import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from math import isqrt
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diobench import cli, cyclotomic, kernels, parencode
from diobench.parencode import theta_inverse
from diobench.polynomial import Poly
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
    multiply to -1, so `qform report` fails its reciprocity check, with
    and without python -O (which drops asserts)."""
    script = (
        "import sys\n"
        "from diobench import cli, quadforms as qf\n"
        "symbol = qf.hilbert_symbol\n"
        "qf.hilbert_symbol = lambda a, b, v: "
        "-symbol(a, b, v) if v == 5 else symbol(a, b, v)\n"
        "sys.exit(cli.main(['--format', 'json', 'qform', 'report', "
        "'--a', '2', '--b', '5']))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for flags in (["-O"], []):
        run = subprocess.run([sys.executable, *flags, "-c", script],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 1, run.stderr
        checks = {c["name"]: c["status"]
                  for c in json.loads(run.stdout)["checks"]}
        assert checks["reciprocity"] == "fail"


def test_cold_start_loads_no_code_machinery():
    """The set-up of every invocation, importing each diobench module and
    building the CLI parser, loads no module of the code-generation and
    source-inspection machinery (dataclasses pulls in most of it) that a
    bare interpreter in the same environment does not load already."""
    package = Path(cli.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py")
                     if p.stem != "__init__")
    setup = (f"from diobench import {', '.join(modules)}\n"
             "cli.build_parser()\n")
    show = "import sys\nprint(*sorted(sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    bare, loaded = (set(subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, check=True).stdout.split())
        for script in (show, setup + show))
    added = loaded - bare
    assert {f"diobench.{m}" for m in modules} <= added
    banned = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}
    assert not added & banned, sorted(added & banned)


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


@pytest.mark.parametrize("budget, poly, details", [
    (4, "1+t+t^2",
     "stopped at the budget of 4 candidates; g <= 1 searched in full"),
    (60, "50+2*t^2",
     "stopped at the budget of 60 candidates, so the count is a lower bound"),
], ids=["exhausted", "found"])
def test_five_squares_reports_its_budget(budget, poly, details, capsys,
                                         monkeypatch, request):
    """A five-squares search that stops at its budget exits 0, and its
    decomposition check says so."""
    cached = parencode._five_squares_cached
    cached.cache_clear()
    request.addfinalizer(cached.cache_clear)
    monkeypatch.setattr(parencode, "FIVE_SQUARES_CANDIDATES_MAX", budget)
    code, out = _run_cli(["--format", "json", "par", "five-squares",
                          "--poly", poly], capsys)
    assert code == 0
    assert json.loads(out)["checks"][0]["details"] == details


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


# the whole error of a test_cli_bad_input_exits_2 row, where it is pinned
BAD_INPUT_ERRORS = {
    "qform xi --f 1 --real": "error: f must be nonconstant\n",
}


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
    # more than cyclotomic.FORWEAK_FACTORS_MAX special factors
    ["cyclo", "forweak", "--poly", "1+3*t-3*t^2", "--d", "12"],
    # deg theta(n) = 61, above cli.PAR_DEGREE_MAX
    ["par", "eval", "--n", "4611686018427387904"],
    # a report with an int past Python's digit limit for str()
    ["par", "theta", "--poly", "100000"],
    ["--format", "text", "par", "theta", "--poly", "100000"],
    # |numerator * denominator| above cli.QFORM_INT_MAX
    ["qform", "report", "--a", "100000000000000000039", "--b", "5"],
    ["qform", "report", "--a", "2", "--b", "1/1000000000001"],
    # |d| above cli.NONNEG_D_MAX
    ["defsys", "nonneg", "--d", "228"],
    ["defsys", "nonneg", "--d", "-1000"],
    # a constant f, refused on the real path as on the p-adic one
    ["qform", "xi", "--f", "1", "--real"],
])
def test_cli_bad_input_exits_2(argv, capsys, monkeypatch):
    if isinstance(argv, tuple):
        bound, argv = argv
        monkeypatch.setenv("WORKBENCH_BOUND", bound)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert BAD_INPUT_ERRORS.get(" ".join(argv), err) == err


def test_pell_laws_reject_empty_env_bound(capsys, monkeypatch):
    """A bound < 1 from WORKBENCH_BOUND would check the laws over an empty
    range, so it is bad input too."""
    monkeypatch.setenv("WORKBENCH_BOUND", "0")
    assert cli.main(["pell", "--s", "t", "--n", "3", "--check-laws"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# The argv fuzz: per-option grammars of the option texts, small enough that
# every argv answers in well under a second.  One text in ten is junk, whose
# only digit is 0, so that it cannot spell a large exponent or index.
_JUNK = st.text("t/:+-*^,.x0 ", max_size=4)
_INT = st.integers(-3, 8).map(str)
_FRACTION = st.fractions(-4, 4, max_denominator=3).map(str)
_POLY = st.lists(st.integers(-2, 2), min_size=1, max_size=4).map(
    lambda cs: "+".join(f"{c}*t^{k}" for k, c in enumerate(cs)))
_PM_LIST = st.lists(
    st.tuples(st.sampled_from((2, 3, 5, 7, 11, 13)), st.integers(0, 6)),
    min_size=1, max_size=2).map(lambda pms: ",".join(f"{p}:{m}"
                                                     for p, m in pms))
_TEXT = {  # option dest -> its grammar, for options that take text
    "s": _POLY, "poly": _POLY, "f": _POLY, "g": _POLY,
    "x": _POLY | _FRACTION, "c": _POLY | _FRACTION, "a": _POLY | _FRACTION,
    "b": _FRACTION, "indices": _PM_LIST,
}
# Commands and ops that read no option: the goldens pin their output, and
# one run costs from 0.3 s (cyclo appendix) to a second (verify-all).
_NO_INPUT = {"verify-all", "appendix"}


def _subparsers():
    """Subcommand name -> its parser."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: p for name, p in sub.choices.items()
            if name not in _NO_INPUT}


def _grammar(action):
    """The grammar of an option's text; a KeyError names a text option
    that has none yet."""
    if action.choices is not None:
        return st.sampled_from([c for c in action.choices
                                if c not in _NO_INPUT])
    if action.type is int:
        return _INT
    return _TEXT[action.dest]


@st.composite
def _argvs(draw):
    """A subcommand, then each of its options present or not, drawn from
    the option's grammar, or one time in ten junk; flags come as --name,
    values as --name=text."""
    name = draw(st.sampled_from(sorted(_subparsers())))
    argv = ["--format", "json", name]
    for action in _subparsers()[name]._actions:
        if isinstance(action, argparse._HelpAction) or (
                action.option_strings and not draw(st.booleans())):
            continue
        if action.nargs == 0:
            argv.append(action.option_strings[0])
            continue
        text = draw(_JUNK if draw(st.integers(0, 9)) == 0
                    else _grammar(action))
        argv.append(f"{action.option_strings[0]}={text}"
                    if action.option_strings else text)
    return argv


def test_argv_fuzz_keeps_the_exit_contract(monkeypatch):
    """Every argv exits 0, 1 or 2 without a traceback: 2 with an error
    message, 1 exactly when a check fails, and a report that exits 0 or 1
    is schema-valid."""
    monkeypatch.setenv("WORKBENCH_BOUND", "3")
    schema = _schema()

    @given(argv=_argvs())
    # argparse reads --opt=-- as an empty list, which cli.main rejects
    @example(argv=["--format", "json", "cyclo", "phi", "--n=--"])
    @example(argv=["--format", "json", "pell", "--s=--", "--n=2"])
    # past the forweak factor ceiling
    @example(argv=["--format", "json", "cyclo", "forweak",
                   "--poly=1+3*t-3*t^2", "--d=12"])
    # theta(n) = 150, whose minimal c is 22501
    @example(argv=["--format", "json", "par", "eval",
                   f"--n={theta_inverse(Poly([150]))}"])
    # deg theta(n) = 61, past the par eval ceiling
    @example(argv=["--format", "json", "par", "eval",
                   "--n=4611686018427387904"])
    # an index past Python's digit limit for str()
    @example(argv=["--format", "json", "par", "theta", "--poly=100000"])
    # d = 1, but the five-squares search stops at its budget
    @example(argv=["--format", "json", "par", "eval", "--n=274878169089"])
    @example(argv=["--format", "json", "par", "five-squares",
                   "--poly=1000000000000"])
    # past the qform factoring ceiling
    @example(argv=["--format", "json", "qform", "report",
                   "--a=100000000000000000039", "--b=5"])
    @settings(max_examples=2000, deadline=None)
    def exit_contract(argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the argv
            code = e.code
        assert code in (0, 1, 2), code
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert "error: " in err.getvalue()
        else:
            doc = json.loads(out.getvalue())
            jsonschema.validate(doc, schema)
            failed = any(c["status"] == "fail" for c in doc["checks"])
            assert failed == (code == 1), doc

    exit_contract()


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
    # the variable beats an explicit --bound as well as the default
    monkeypatch.setenv("WORKBENCH_BOUND", "3")
    code, out = _run_cli(["--format", "json", "defsys", "singlefold-int",
                          "--c", "5", "--bound", "50"], capsys)
    result = json.loads(out)["result"]
    assert code == 0
    assert (result["verdict"], result["bound"]) == ("refuted-to-bound", 3)


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


def _eps_queries():
    """The eps-power systems on the desk: exp with c = b^n, -b^n and
    b^n + 1 for |b| <= 8 and |d| <= 4, singlefold-int on integers, two
    fractions and a polynomial, and nonneg, whose exp system has base
    d^4 + 1."""
    queries = []
    for b in (*range(-8, 0), *range(1, 9)):
        for d in range(-4, 5):
            v = b ** abs(d)
            queries += [["defsys", "exp", f"--base={b}", f"--exp={d}",
                         f"--result={c}"] for c in (v, -v, v + 1)]
    queries += [["defsys", "singlefold-int", f"--c={c}"]
                for c in (*range(-6, 7), "1/2", "-7/4", "t")]
    queries += [["defsys", "nonneg", f"--d={d}"] for d in range(-6, 7)]
    return queries


def test_eps_systems_match_golden(monkeypatch):
    """The exit code and --format json output of each eps-system query
    stay byte-identical to the recorded ones."""
    monkeypatch.delenv("WORKBENCH_BOUND", raising=False)
    runs = []
    for argv in _eps_queries():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["--format", "json", *argv])
        runs.append({"argv": argv, "exit": code, "stdout": buf.getvalue()})
    golden = Path(__file__).parent / "golden" / "eps-systems-seed0.json"
    assert json.dumps(runs, indent=1) + "\n" == golden.read_text()


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


# (m, p, pairs) in the order scanned.  Each modulus has a pair divisible by
# p and a pair that answers -1 (both scans run to the end); 27 comes
# back after 25, and 49 after 32, so a table of squares kept under the wrong
# modulus, or one left over from the previous call, gives a wrong answer.
MOD_SCAN_CASES = [
    (32, 2, [(1, 1), (-1, -1), (2, 5), (6, -3), (3, 3)]),
    (27, 3, [(a, b) for a in (1, 2, -1) for b in (1, 3, -3)]),
    (25, 5, [(1, 2), (2, 5), (5, -1), (10, 3)]),
    (27, 3, [(2, 3), (-1, 3), (6, 1), (3, -3)]),
    (49, 7, [(1, 3), (3, 7), (-1, 7), (14, 5)]),
]


def test_kernel_backends_agree():
    """The kernels give the brute-force answers."""
    ns = (0, 7, 30, 9999)
    assert kernels.BACKEND == "python"
    assert [kernels.four_squares_raw(n) for n in ns] == [
        _four_squares_reference(n) for n in ns
    ]
    for m, p, pairs in MOD_SCAN_CASES:
        assert [kernels.mod_scan_soluble(a, b, m) for a, b in pairs] == [
            _mod_scan_reference(a, b, m, p) for a, b in pairs
        ], m
