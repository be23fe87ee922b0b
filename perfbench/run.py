"""diobench's benchmark: three workloads, end-to-end metrics, and a traced
per-module split.

Usage (from the root of a diobench checkout):

    python3 perfbench/run.py --workload suite-quick --seed 0 --seconds 30 --trace 0

Each pass runs a workload's fixed input set (made from --seed) in a fresh
worker process, so caches start cold, and checks every answer.  Passes run
one after another, closed loop with one client, until --seconds have gone by.
With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is the result as one JSON object.

Workloads (why each is here):
  suite-quick  `verify-all --profile quick`, what a user or CI runs; the
               polynomial and Par layers dominate.
  query-mix    a seeded stream of single CLI queries in one warm process,
               every query operation of the CLI in equal shares plus the
               README's examples; per-query fixed cost sets the median and
               the singlefold-int witness search (Pell pairs over Poly) the
               tail, while cyclotomic and Par work shows in the wall.
  int-kernels  four_squares and Hilbert symbols against the brute-force
               oracle; the only workload where the integer kernels dominate.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("suite-quick", "query-mix", "int-kernels")
SETUP_PROBES = 10       # set-up-only workers per run, besides one per pass
WORKER_TIMEOUT_S = 150
# The percentile of op_tail_ms, fixed per workload so that two runs compare
# the same statistic.  Each sits where the workload's costs are dense, so it
# follows the code rather than the inputs a seed drew, and leaves at least
# ten operations beyond it once a run has two passes: on query-mix the top
# of the singlefold-int searches (above them are only the README's Pell-law
# and Par queries and the odd-int refutations), on int-kernels the deeper
# four_squares calls and oracle scans.  suite-quick runs one operation per
# pass, so its tail is the slowest pass.
TAIL_PERCENTILE = {"suite-quick": 100, "query-mix": 98, "int-kernels": 95}

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"), ("pass_share", "ratio"), ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def worker_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("WORKBENCH_BOUND", None)  # the generated inputs fix every bound
    return env


def spawn(root, spec):
    """Run one worker; returns (set-up seconds, pass result or None)."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        cwd=root, env=worker_env(root), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise BenchError(f"worker failed (exit {proc.returncode}) on {spec}")
    setup = float(lines[0].split()[1]) - t0
    if spec.get("setup_only"):
        return setup, None
    return setup, json.loads(lines[-1])


def nearest_rank(latencies, p):
    ordered = sorted(latencies)
    return ordered[max(0, -(-len(ordered) * p // 100) - 1)]


def end_to_end(workload, passes, setups):
    """The end-to-end metrics of a run's untraced passes."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    latencies = [t for p in passes for t in p["latencies_s"]]
    med = statistics.median
    return {
        "setup_s": med(setups),
        "wall_s": med(p["wall_s"] for p in passes),
        "op_p50_ms": nearest_rank(latencies, 50) * 1e3,
        "op_tail_ms": nearest_rank(latencies, TAIL_PERCENTILE[workload]) * 1e3,
        "pass_share": (attempted - failed) / attempted,
        "peak_rss_mb": med(p["rss_mb"] for p in passes),
    }


def per_layer(traced, untraced):
    metrics = {name: statistics.median_low(p["layers"][name] for p in traced)
               for name, _ in tracing.PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in untraced))
    return metrics


def environment(root, seed):
    sha = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"git": sha, "python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "seed": seed}


def run(root, workload, seed, seconds, trace, tiny):
    t_start = time.perf_counter()
    base = {"workload": workload, "seed": seed, "tiny": tiny}
    spawn(root, dict(base, setup_only=True))  # warm-up: bytecode caches
    setups = [spawn(root, dict(base, setup_only=True))[0]
              for _ in range(SETUP_PROBES)]
    untraced, traced = [], []
    while (not untraced or (trace and not traced)
           or time.perf_counter() - t_start < seconds):
        want_trace = trace and len(traced) < len(untraced)
        setup, result = spawn(root, dict(base, traced=want_trace))
        setups.append(setup)
        (traced if want_trace else untraced).append(result)
    return setups, untraced, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few operations per pass, for the self-test")
    args = ap.parse_args(argv)

    root = os.getcwd()
    program = os.path.realpath(os.path.join(root, "src", "diobench"))
    if not os.path.isfile(os.path.join(program, "cli.py")):
        print(f"perfbench: no diobench sources under {program}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    try:
        setups, untraced, traced = run(root, args.workload, args.seed,
                                       args.seconds, args.trace, args.tiny)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    passes = untraced + traced
    metrics = end_to_end(args.workload, untraced, setups)
    digests = {p["digest"] for p in passes}
    failures = [f for p in passes for f in p["failures"]]
    wrong_program = [p["program"] for p in passes
                     if os.path.realpath(p["program"]) != program]

    env = dict(environment(root, args.seed), backend=passes[0]["backend"])
    print(f"# perfbench {args.workload} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    pooled = len(untraced) * untraced[0]["attempted"]
    print(f"# {len(untraced)} untraced + {len(traced)} traced passes, "
          f"{untraced[0]['attempted']} operations each; op_tail_ms is "
          f"p{TAIL_PERCENTILE[args.workload]} of {pooled} pooled latencies; "
          f"failed {failed} of {attempted} "
          f"(fail_share {failed / attempted:.6f})")
    for f in failures:
        print(f"# FAILED {json.dumps(f)}")
    if len(digests) > 1:
        print("# FAILED answers differ between passes of one seed")
    if wrong_program:
        print(f"# FAILED diobench imported from {wrong_program[0]}")

    if args.trace:
        layers = per_layer(traced, untraced)
        units = dict(tracing.PER_LAYER)
        dead = [name for name in tracing.MUST_MOVE[args.workload]
                if not layers[name]]
        if dead:
            print(f"perfbench: counters read 0 on {args.workload}, which they "
                  f"should dominate: {dead}", file=sys.stderr)
            return 1
        print(f"# {traced[-1]['spans']} spans in the last traced pass")
    else:
        layers, units = metrics, dict(END_TO_END)
    for name, value in layers.items():
        print(f"#   {name:48s} {value:14.6f} {units[name]}")

    result = {
        "correct": failed == 0 and len(digests) == 1 and not wrong_program,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in layers.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
