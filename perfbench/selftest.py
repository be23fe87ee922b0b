"""Fast self-test of the benchmark harness, on tiny inputs.

Usage (from the root of a diobench checkout): python3 perfbench/selftest.py

Checks that the command prints every metric of BENCHMARK.json by name with
its unit, that a corrupted answer in one operation is counted as failed,
that each gate can fail, and that the command refuses to run without the
program's sources.  Exits 0 when every check holds.
"""

import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import passes  # noqa: E402
import workloads  # noqa: E402
from diobench import cyclotomic, intarith, reports  # noqa: E402


def command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metrics_printed_with_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in ("int-kernels", "query-mix"):
            proc = command("--workload", workload, "--seed", "3", "--seconds",
                           "0", "--trace", trace, "--tiny")
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, lines
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, got)
            for name, unit in want.items():
                assert any(line.startswith("#") and line.split()[1:2] == [name]
                           and line.split()[-1] == unit for line in lines), name


def test_corrupted_answer_counts_as_failed():
    real = intarith.four_squares
    calls = []

    def corrupted(n):
        calls.append(n)
        x = real(n)
        return (x[0] + 1,) + x[1:] if len(calls) == 1 else x

    intarith.four_squares = corrupted
    try:
        out = passes.run_pass("int-kernels", 0, tiny=True)
    finally:
        intarith.four_squares = real
    assert out["failed"] == 1, out["failures"]

    real_special = cyclotomic.special_form
    cyclotomic.special_form = lambda n: None
    try:
        out = passes.run_pass("query-mix", 0, tiny=True)
    finally:
        cyclotomic.special_form = real_special
    assert out["failed"] == 1, out["failures"]
    assert passes.run_pass("query-mix", 0, tiny=True)["failed"] == 0


def test_gates_can_fail():
    with open(os.path.join(os.path.dirname(reports.__file__),
                           "report.schema.json")) as f:
        schema = json.load(f)
    report = reports.Report("verify-all")
    for i in range(13):
        report.add(f"{i + 1:02d}", "measured" if i == 4 else True)
    good = report.to_json()
    assert workloads.check_suite(0, good, schema) is None
    report.checks[0].status = "exhausted"
    assert workloads.check_suite(0, report.to_json(), schema)
    assert workloads.check_suite(1, good, schema)
    extra = json.dumps(dict(json.loads(good), elapsed=1.0))
    assert workloads.check_suite(0, extra, schema)
    del report.checks[0]
    assert workloads.check_suite(0, report.to_json(), schema)

    expect = {"rc": 0, "result": {"verdict": "accepted"}}
    ok = json.dumps({"ok": True, "result": {"verdict": "accepted"}})
    assert workloads.check_query(expect, 0, ok) is None
    assert workloads.check_query(expect, 2, ok)
    assert workloads.check_query(
        expect, 0, json.dumps({"ok": True, "result": {"verdict": "refuted"}}))


def _bump(key, extra):
    return lambda result: dict(result, **{key: result[key] + extra})


# per query command, a change to one field of a right answer
SPOIL = {
    "pell": _bump("g", " + T^9"),
    "cyclo phi": lambda result: result + " + T^99",
    "cyclo special": _bump("d", 1),
    "cyclo forweak": _bump("indices", [7]),
    "cyclo approx": _bump("c", 1),
    "qform xi": _bump("xi3", "1"),
    "par theta": lambda result: (result + 1 if isinstance(result, int)
                                 else result + " + T^9"),
    "par eval": lambda result: dict(result, conditions=dict(
        result["conditions"], **{"7-value": False})),
    "par five-squares": lambda result: dict(result, parts=[
        result["parts"][0] + " + T^3"] + result["parts"][1:]),
}


def test_answer_checks_can_fail():
    """Every query that carries a check passes on diobench's answer and
    fails once one field of that answer is changed."""
    rng = random.Random(5)
    queries = [kind(rng, i) for kind in workloads.QUERY_KINDS for i in range(4)]
    queries += list(workloads.README_QUERIES)
    seen = set()
    for argv, expect in queries:
        if "check" not in expect:
            continue
        command = " ".join(argv[:1] if argv[0] == "pell" else argv[:2])
        rc, out = passes._run_cli(["--format", "json"] + argv)
        assert workloads.check_query(expect, rc, out) is None, argv
        spoiled = SPOIL[command](json.loads(out)["result"])
        report = json.dumps({"ok": True, "result": spoiled})
        assert workloads.check_query(expect, 0, report), argv
        seen.add(command)
    assert seen == set(SPOIL), seen


def test_refuses_without_sources():
    empty = os.path.join(ROOT, ".perfbench", "empty")
    os.makedirs(empty, exist_ok=True)
    proc = command("--workload", "int-kernels", "--seed", "0", "--seconds",
                   "1", cwd=empty)
    assert proc.returncode != 0 and not proc.stdout.strip()


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
