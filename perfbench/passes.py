"""One pass of a workload: run its fixed input set, time every operation,
and check every answer.  Imported by the worker after set-up, and by the
self-test."""

import contextlib
import hashlib
import io
import json
import os
import resource
from time import perf_counter

from diobench import cli, intarith, kernels, quadforms, reports

import tracing
import workloads

MAX_REPORTED_FAILURES = 5
SPAN_DIR = ".perfbench"  # under the checkout root, the workers' directory


def _run_cli(argv):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejects its input with exit 2
        rc = e.code
    return rc, buf.getvalue()


def run_pass(workload, seed, traced=False, tiny=False):
    ops = workloads.WORKLOADS[workload](seed, tiny)
    layer_metrics = None
    if traced:
        tracer = tracing.Tracer()
        layer_metrics = tracing.install(tracer)

    answers, latencies, errors = [], [], {}
    t_begin = perf_counter()
    for i, op in enumerate(ops):
        if traced:
            tracer.request = i
        t0 = perf_counter()
        try:
            if workload == "int-kernels":
                answers.append(workloads.run_kernel_op(op, intarith, quadforms))
            else:
                answers.append(_run_cli(op[0]))
        except Exception as e:  # the program raised: a failed operation
            answers.append(None)
            errors[i] = f"{type(e).__name__}: {e}"
        latencies.append(perf_counter() - t0)
    wall = perf_counter() - t_begin

    failures = []
    schema = None
    if workload == "suite-quick":
        schema_path = os.path.join(os.path.dirname(reports.__file__),
                                   "report.schema.json")
        with open(schema_path) as f:
            schema = json.load(f)
    for i, (op, answer) in enumerate(zip(ops, answers)):
        if answer is None:
            reason = errors[i]
        elif workload == "int-kernels":
            reason = answer[1]
        elif workload == "suite-quick":
            reason = workloads.check_suite(*answer, schema)
        else:
            reason = workloads.check_query(op[1], *answer)
        if reason is not None:
            failures.append({"input": op if workload == "int-kernels" else op[0],
                             "reason": reason})

    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    out = {
        "wall_s": wall,
        "latencies_s": latencies,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "digest": digest,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": kernels.BACKEND,
        "program": os.path.dirname(cli.__file__),
    }
    if traced:
        out["layers"] = layer_metrics()
        out["spans"] = len(tracer.spans)
        os.makedirs(SPAN_DIR, exist_ok=True)
        with open(os.path.join(SPAN_DIR, f"spans-{workload}-{seed}.jsonl"),
                  "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(dict(zip(tracing.SPAN_FIELDS, span))) + "\n")
    return out

