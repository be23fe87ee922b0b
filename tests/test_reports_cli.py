import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from importlib import resources
from math import isqrt
from pathlib import Path

import jsonschema
import pytest

from diobench import cli, cyclotomic, kernels
from diobench.reports import Check, Report


def _schema():
    return json.loads(
        resources.files("diobench").joinpath("report.schema.json").read_text()
    )


def _run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_status_validation():
    assert Check("a", True).status == "pass"
    assert Check("a", False).status == "fail"
    with pytest.raises(ValueError):
        Check("a", "maybe")


def test_report_exit_contract():
    r = Report("x")
    r.add("one", True).add("two", "measured").add("three", "exhausted")
    assert r.ok
    r.add("four", False)
    assert not r.ok


def test_report_json_schema_and_order():
    r = Report("demo", inputs={"b": 2, "a": 1})
    r.add("zeta", True, {"k": 3}).add("alpha", "measured", "note")
    doc = json.loads(r.to_json())
    jsonschema.validate(doc, _schema())
    assert [c["name"] for c in doc["checks"]] == ["alpha", "zeta"]


# One query per subcommand and option path; each must exit 0 with a
# schema-valid report.
SUBCOMMAND_ARGVS = [
    ["pell", "--s", "t", "--n", "3"],
    ["pell", "--s", "2*t", "--n", "2", "--check-laws", "--bound", "6"],
    ["defsys", "exp", "--base", "2", "--result", "8", "--exp", "3"],
    ["defsys", "singlefold-int", "--c", "3", "--bound", "20"],
    ["defsys", "constants", "--x", "5"],
    ["defsys", "odd-int", "--r", "3"],
    ["defsys", "nonneg", "--d", "-1"],
    ["cyclo", "phi", "--n", "12"],
    ["cyclo", "special", "--n", "20"],
    ["cyclo", "forweak", "--poly", "1+t+t^2", "--d", "3"],
    ["cyclo", "approx", "--indices", "3:2,5:1"],
    ["qform", "report", "--a", "2", "--b", "5"],
    ["qform", "eisenstein", "--poly", "2+4*t+t^2", "--p", "2"],
    ["qform", "xi", "--f", "t^2", "--p", "3"],
    ["qform", "xi", "--f", "t^2", "--real"],
    ["qform", "gate", "--g", "t"],
    ["par", "theta", "--n", "42"],
    ["par", "eval", "--n", "7"],
    ["par", "five-squares", "--poly", "t^2+1"],
]


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGVS)
def test_cli_subcommands_emit_valid_reports(argv, capsys):
    code, out = _run_cli(["--format", "json"] + argv, capsys)
    assert code == 0, out
    jsonschema.validate(json.loads(out), _schema())


def test_qform_reciprocity_fails_on_a_wrong_symbol_under_O():
    """With the Hilbert symbol at p = 5 negated, the symbols of (2, 5)
    multiply to -1, so `qform report` fails its reciprocity check.  Run
    under python -O, where the library's own assert is gone."""
    script = (
        "import sys\n"
        "from diobench import cli, quadforms as qf\n"
        "symbol = qf.hilbert_symbol\n"
        "qf.hilbert_symbol = lambda a, b, v: "
        "-symbol(a, b, v) if v == 5 else symbol(a, b, v)\n"
        "sys.exit(cli.main(['--format', 'json', 'qform', 'report', "
        "'--a', '2', '--b', '5']))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 1, run.stderr
    checks = {c["name"]: c["status"] for c in json.loads(run.stdout)["checks"]}
    assert checks["reciprocity"] == "fail"


def test_pell_laws_at_the_ceiling(capsys):
    code, out = _run_cli(["--format", "json", "pell", "--s", "t^2", "--n",
                          "2", "--check-laws", "--bound",
                          str(cli.PELL_LAWS_MAX // 2)], capsys)
    assert code == 0, out


def test_cli_reports_a_failed_self_check(capsys, monkeypatch):
    """A SelfCheckError becomes a schema-valid report with one failed
    check and exit 1, not a traceback."""
    right = cyclotomic.crt
    monkeypatch.setattr(cyclotomic, "crt", lambda r, m: right(r, m) + 1)
    code, out = _run_cli(["--format", "json", "cyclo", "approx",
                          "--indices", "3:2"], capsys)
    doc = json.loads(out)
    jsonschema.validate(doc, _schema())
    assert code == 1
    assert [(c["name"], c["status"]) for c in doc["checks"]] == [
        ("self-check", "fail")]


def test_cli_pell_example(capsys):
    code, out = _run_cli(["--format", "json", "pell", "--s", "t",
                          "--n", "3"], capsys)
    doc = json.loads(out)
    assert doc["result"]["f"] == "-3*T + 4*T^3"
    assert doc["result"]["g"] == "-1 + 4*T^2"


def test_cli_parsed_values_do_not_leak(capsys):
    """The parser is built once; a flag given in one call is not set in
    the next."""
    code, out = _run_cli(["--format", "json", "pell", "--s", "t", "--n", "3",
                          "--check-laws"], capsys)
    assert code == 0
    assert {c["name"] for c in json.loads(out)["checks"]} == {
        "identity", "degree-law", "divisibility-law"}
    code, out = _run_cli(["--format", "json", "pell", "--s", "t", "--n", "3"],
                         capsys)
    assert code == 0
    assert [c["name"] for c in json.loads(out)["checks"]] == ["identity"]


def test_cli_exit_codes(capsys):
    code, _ = _run_cli(["qform", "eisenstein", "--poly", "1+t+t^2",
                        "--p", "3"], capsys)
    assert code == 1  # check failed
    code = cli.main(["pell", "--s", "not-a-poly", "--n", "1"])
    assert code == 2  # parse error


@pytest.mark.parametrize("argv", [
    ["cyclo", "phi"],
    ["defsys", "exp"],
    ["qform", "report"],
    ["defsys", "singlefold-int", "--c", "1/0"],
    ["cyclo", "forweak", "--poly", "1+t", "--d", "0"],
    ["par", "five-squares", "--poly", "1/2"],
    ["par", "five-squares", "--poly", "1/4+t^2"],
    ["pell", "--s", "t", "--n", "3", "--check-laws", "--bound", "0"],
    ["qform", "gate", "--g", "0"],
    ["defsys", "singlefold-int", "--c", "3", "--bound", "-1"],
    ["defsys", "odd-int", "--a", "3", "--bound", "-1"],
    ["defsys", "exp", "--base", "2", "--exp", "0", "--result", "1",
     "--bound", "-1"],
    ["par", "five-squares", "--poly", "1+t^2", "--witness-limit", "-1"],
    # a tuple is (WORKBENCH_BOUND, argv)
    ("-1", ["defsys", "singlefold-int", "--c", "3"]),
    ("abc", ["defsys", "singlefold-int", "--c", "3"]),
    ("abc", ["pell", "--s", "t", "--n", "3", "--check-laws"]),
    ["par", "five-squares", "--poly", "1+t^2", "--witness-limit", "0"],
    ("0", ["par", "five-squares", "--poly", "1+t^2"]),
    ["cyclo", "approx", "--indices", "3"],
    # |n| * deg s above cli.PELL_DEGREE_MAX
    ["pell", "--s", "t", "--n", "3000"],
    ["pell", "--s", "t^2", "--n", "201"],
    # bound * deg s above cli.PELL_LAWS_MAX, from --bound or the knob
    ["pell", "--s", "t", "--n", "3", "--check-laws", "--bound", "61"],
    ("31", ["pell", "--s", "t^2", "--n", "3", "--check-laws"]),
])
def test_cli_bad_input_exits_2(argv, capsys, monkeypatch):
    if isinstance(argv, tuple):
        bound, argv = argv
        monkeypatch.setenv("WORKBENCH_BOUND", bound)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_pell_laws_reject_empty_env_bound(capsys, monkeypatch):
    """A bound < 1 from WORKBENCH_BOUND would check the laws over an empty
    range, so it is bad input too."""
    monkeypatch.setenv("WORKBENCH_BOUND", "0")
    assert cli.main(["pell", "--s", "t", "--n", "3", "--check-laws"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_text_format(capsys):
    code, out = _run_cli(["defsys", "nonneg", "--d", "4"], capsys)
    assert code == 0
    assert "[measured]" in out and "accepted" in out


def test_workbench_bound_env(capsys, monkeypatch):
    monkeypatch.setenv("WORKBENCH_BOUND", "0")
    code, out = _run_cli(["--format", "json", "defsys", "singlefold-int",
                          "--c", "3"], capsys)
    doc = json.loads(out)
    # bound 0 cannot reach the witness at n = 3
    assert "refuted-to-bound" in json.dumps(doc)


def test_defsys_exp_honours_bound(capsys, monkeypatch):
    """|exp| above the bound, from WORKBENCH_BOUND or the default --bound,
    answers refuted-to-bound and names the bound without building eps^|exp|."""
    monkeypatch.setenv("WORKBENCH_BOUND", "2")
    code, out = _run_cli(["--format", "json", "defsys", "exp", "--base", "2",
                          "--exp", "3", "--result", "8"], capsys)
    result = json.loads(out)["result"]
    assert code == 0
    assert (result["verdict"], result["bound"]) == ("refuted-to-bound", 2)
    monkeypatch.delenv("WORKBENCH_BOUND")
    code, out = _run_cli(["--format", "json", "defsys", "exp", "--base", "2",
                          "--exp", "2000", "--result", "8"], capsys)
    result = json.loads(out)["result"]
    assert code == 0
    assert (result["verdict"], result["bound"]) == ("refuted-to-bound", 50)
    code, out = _run_cli(["--format", "json", "defsys", "exp", "--base", "2",
                          "--exp", "-3", "--result", "8"], capsys)
    assert json.loads(out)["result"]["verdict"] == "accepted"


def test_defsys_odd_int_constructor_honours_bound(capsys, monkeypatch):
    """An index 3|r| above the bound answers refuted-to-bound, naming the
    bound, before any Pell pair is built."""
    def no_pell(s, n):
        raise AssertionError(f"pell_pair({s}, {n}) built above the bound")

    monkeypatch.setattr(cli.wit, "pell_pair", no_pell)
    code, out = _run_cli(["--format", "json", "defsys", "odd-int",
                          "--r", "301", "--bound", "5"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert (doc["result"]["verdict"], doc["result"]["bound"]) == (
        "refuted-to-bound", 5)
    assert doc["inputs"] == {"bound": "5", "r": "301"}
    monkeypatch.setenv("WORKBENCH_BOUND", "8")
    code, out = _run_cli(["--format", "json", "defsys", "odd-int",
                          "--r", "3"], capsys)
    result = json.loads(out)["result"]
    assert code == 0
    assert (result["verdict"], result["bound"]) == ("refuted-to-bound", 8)
    monkeypatch.undo()
    code, out = _run_cli(["--format", "json", "defsys", "odd-int",
                          "--r", "3"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "accepted"


@pytest.mark.parametrize("argv, inputs", [
    (["constants", "--x", "1+t"], {"x": "1 + T"}),
    (["singlefold-int", "--c", "6/2"], {"c": "3", "bound": "50"}),
    (["exp", "--base", "2", "--result", "8", "--exp", "3", "--bound", "4"],
     {"base": "2", "result": "8", "exp": "3", "bound": "4"}),
    (["odd-int", "--r", "-3"], {"r": "-3", "bound": "50"}),
    (["odd-int", "--a", "t^2+1", "--bound", "2"],
     {"a": "1 + T^2", "bound": "2"}),
    (["nonneg", "--d", "-1"], {"d": "-1"}),
])
def test_defsys_reports_inputs(argv, inputs, capsys):
    """Each defsys report names the options its system read, and the bound
    where one applies."""
    code, out = _run_cli(["--format", "json", "defsys"] + argv, capsys)
    assert code == 0
    assert json.loads(out)["inputs"] == inputs


def test_cyclo_appendix_matches_golden(capsys):
    """The appendix records (divisibility, clause-2 counterexamples and
    measured resultants) stay byte-identical to the recorded ones."""
    golden = Path(__file__).parent / "golden" / "cyclo-appendix.json"
    code, out = _run_cli(["--format", "json", "cyclo", "appendix"], capsys)
    assert code == 0
    assert out == golden.read_text()


def test_verify_all_quick_matches_golden(capsys):
    """The quick report stays byte-identical to the recorded one."""
    golden = Path(__file__).parent / "golden" / "verify-all-quick-seed0.json"
    code, out = _run_cli(["--format", "json", "verify-all",
                          "--profile", "quick", "--seed", "0"], capsys)
    assert code == 0
    assert out == golden.read_text()


# CLI queries whose answers come through the Pos, Pell and five-squares
# caches; their JSON output is recorded in golden/cli-queries-seed0.json.
CLI_QUERIES = [
    "pell --s t --n 5 --check-laws",
    "pell --s 3*t+1 --n 4",
    "par eval --n 7",
    "par eval --n 42",
    "par five-squares --poly 1+t^2",
    "qform xi --f t^2+1 --real",
    "qform gate --g 1",
    "qform gate --g t",
    "qform gate --g t^2+1",
    "qform gate --g 2*t^3-t",
    "qform gate --g=-3",
    "cyclo approx --indices 7:3",
    "par five-squares --poly=-1-t^2",
    "defsys constants --x 5",
    "defsys constants --x t",
]


def cli_queries_json():
    """The exit code and --format json output of each of CLI_QUERIES."""
    runs = []
    for query in CLI_QUERIES:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["--format", "json"] + query.split())
        runs.append({"query": query, "exit": code, "stdout": buf.getvalue()})
    return json.dumps(runs, indent=2) + "\n"


def test_cli_queries_match_golden():
    """The cached Pos/Pell/five-squares paths answer as recorded."""
    golden = Path(__file__).parent / "golden" / "cli-queries-seed0.json"
    assert cli_queries_json() == golden.read_text()


def test_verify_all_quick_deterministic(capsys):
    code1, out1 = _run_cli(["--format", "json", "verify-all",
                            "--profile", "quick", "--seed", "3"], capsys)
    code2, out2 = _run_cli(["--format", "json", "verify-all",
                            "--profile", "quick", "--seed", "3"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    jsonschema.validate(doc, _schema())
    assert len(doc["checks"]) == 13


def _four_squares_reference(n):
    # Exhaustive over x1 >= x2 >= x3; x4 is then forced.
    found = []
    for x1 in range(isqrt(n) + 1):
        for x2 in range(x1 + 1):
            for x3 in range(x2 + 1):
                r = n - x1 * x1 - x2 * x2 - x3 * x3
                if r < 0:
                    continue
                x4 = isqrt(r)
                if x4 <= x3 and x4 * x4 == r:
                    found.append((x1, x2, x3, x4))
    return max(found)


def _mod_scan_reference(a, b, m, p):
    return 1 if any(
        (z * z - a * x * x - b * y * y) % m == 0
        for x in range(m) for y in range(m) for z in range(m)
        if x % p or y % p or z % p
    ) else -1


def test_kernel_backends_agree():
    """The kernels give the brute-force answers."""
    ns = (0, 7, 30, 9999)
    pairs = [(a, b) for a in (1, 2, -1) for b in (1, 3, -3)]
    assert kernels.BACKEND == "python"
    assert [kernels.four_squares_raw(n) for n in ns] == [
        _four_squares_reference(n) for n in ns
    ]
    assert [kernels.mod_scan_soluble(a, b, 27) for a, b in pairs] == [
        _mod_scan_reference(a, b, 27, 3) for a, b in pairs
    ]
