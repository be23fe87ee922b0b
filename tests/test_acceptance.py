"""The thirteen acceptance criteria, one test (and one printed pass/fail
line) per row of `acceptance.CRITERIA`, at the full profile; the test id is
the check name.  "measured" is a pass with data attached; only "fail"
fails.  Mutation tests run criteria at the quick profile with one fault of
the table FAULTS injected and require "fail", all of them also under
python -O, where a line trace shows that together they reach every
`return False, ...` of acceptance.py; so do the self-checks of 01, 05, 07
and 13 on faults inside their constructions.  The criteria table itself
is checked against the suite's report and the functions' signatures.
c11's irreducibility test is checked against sympy."""

import ast
import inspect
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from diobench import (acceptance, cyclotomic, parencode, pellpairs,
                      quadforms, witness)
from diobench.polynomial import Poly, T


def _run(check):
    line = f"[{check.status.upper():9}] {check.name}"
    if check.details:
        line += f" :: {check.details}"
    print(line)
    assert check.status != "fail", check.details


@pytest.mark.parametrize("name", acceptance.CRITERIA)
def test_criterion(name):
    _run(acceptance.run_criterion(name))


def test_criteria_table_is_consistent():
    names = list(acceptance.CRITERIA)
    quick = [c.name for c in acceptance.run_suite("quick").checks]
    golden = Path(__file__).parent / "golden" / "verify-all-quick-seed0.json"
    recorded = [c["name"] for c in json.loads(golden.read_text())["checks"]]
    assert names == quick == recorded
    for name, (fn, quick_kw, full_kw, seeded) in acceptance.CRITERIA.items():
        func = getattr(acceptance, fn)
        assert func.__name__ == fn, name
        sig = inspect.signature(func)
        assert all(p.default is p.empty for p in sig.parameters.values()), fn
        seed = {"seed": 0} if seeded else {}
        sig.bind(**quick_kw, **seed)
        sig.bind(**full_kw, **seed)


# Mutation tests: one wrong value injected through a public name (so a warm
# cache behind it cannot hide the fault) must make the criterion fail.


def _verdict(verdict):
    """Wrap a witness system so that every report carries `verdict`."""
    return lambda right: (
        lambda *args, **kwargs: replace(right(*args, **kwargs),
                                        verdict=verdict))


# One row per fault: (check name, (module or class, public name it calls,
# right function -> wrong one), the details it must give or None).  The
# rows of a check reach different failure returns.  None marks a fault
# that a self-check inside a construction catches (07, 08, the first of
# 11) or a criterion whose details are data (05, 09).
FAULTS = [
    # a pair with f off by one, which the round trip does not recognise
    ("01-pell-laws", (acceptance, "pell_pair",
                      lambda right: lambda s, n: replace(
                          right(s, n), f=right(s, n).f + 1)),
     "round trip T, 0"),
    # the pair at n + 1: it satisfies the identity at the wrong index
    ("01-pell-laws", (pellpairs, "pell_pair",
                      lambda right: lambda s, n: right(s, n + (n >= 1))),
     "degree law T, 1"),
    ("01-pell-laws", (Poly, "divides", lambda right: lambda f, g: True),
     "divisibility 2, 1, T"),
    ("02-singlefold-z", (witness, "singlefold_int",
                         _verdict("refuted-to-bound")),
     "c = -5: refuted-to-bound, folds 1"),
    ("02-singlefold-z", (witness, "singlefold_int", _verdict("accepted")),
     "c = 1/2 not refuted: accepted"),
    ("03-exp-system", (witness, "exp_system", _verdict("accepted")),
     "(-8, 513, -3) wrongly accepted"),
    ("03-exp-system", (witness, "exp_system", _verdict("refuted")),
     "(-8, 512, -3): refuted, folds 1"),
    ("04-odd-integer", (witness, "odd_integer_refute", _verdict("accepted")),
     "a = 0 wrongly accepted"),
    ("04-odd-integer", (witness, "odd_integer_system", _verdict("invalid")),
     "r = -5: all relations hold"),
    ("05-nonneg-gadget", (witness, "nonneg_gadget", _verdict("accepted")),
     None),
    ("06-cyclo-base", (cyclotomic, "cyclotomic",
                       lambda right: lambda n: right(n) + 1),
     "product at n = 1"),
    # indices congruent to 1 - s*T^d, so the product misses F
    ("07-forweak", (cyclotomic, "find_special_congruent",
                    lambda right: lambda d, s, count, avoid_primes=(): right(
                        d, -s, count, avoid_primes=avoid_primes)), None),
    ("08-approx-point", (cyclotomic, "crt",
                         lambda right: lambda residues, moduli: right(
                             residues, moduli) + 1), None),
    ("09-appendix-lemmas", (cyclotomic, "appendix_checks",
                            lambda right: lambda **kw: {**right(**kw),
                                                        "pass": False}),
     None),
    ("10-hilbert-symbols", (quadforms, "hilbert_symbol",
                            lambda right: lambda a, b, v: -right(a, b, v)),
     "mismatch at (-10, -10, 2)"),
    # wrong only at 17, a place outside the grid: reciprocity sees it
    ("10-hilbert-symbols", (quadforms, "hilbert_symbol",
                            lambda right: lambda a, b, v: right(a, b, v) * (
                                -1 if v == 17 else 1)),
     "reciprocity fails at (-765, -5421)"),
    ("11-xi-constructors", (quadforms, "eisenstein_certify",
                            lambda right: lambda f, p: replace(
                                right(f, p), verdict=False)), None),
    # wrong only at degree <= 4, past the h of degree 6 that
    # padic_xi_construct certifies
    ("11-xi-constructors", (quadforms, "eisenstein_certify",
                            lambda right: lambda f, p: right(f, p)
                            if f.degree > 4 else replace(right(f, p),
                                                         verdict=False)),
     "certify 2 + 4*T + T^2 at 2"),
    ("11-xi-constructors", (acceptance, "_monic_factor",
                            lambda right: lambda g: T),
     "2 + 4*T + T^2 factors over Q"),
    ("12-theta-par", (parencode, "pos_check", lambda right: lambda F: True),
     "perturbation accepted at n = 1: S = 1"),
    # theta_inverse off by one at index 42, so the round trip fails
    ("12-theta-par", (parencode, "theta_inverse",
                      lambda right: lambda P: right(P) + (right(P) == 42)),
     "round trip at 42"),
    # Par tuples with c one too large, so 4-c-minimal fails
    ("12-theta-par", (parencode, "make_par_tuple",
                      lambda right: lambda n: replace(right(n),
                                                      c=right(n).c + 1)),
     "no accepting tuple at 1"),
    ("13-four-squares", (acceptance, "four_squares",
                         lambda right: lambda n: tuple(sorted(right(n)))),
     "not canonical at 1"),
]


def _fault_ids():
    """A check's first row is named by the check, its later rows add their
    place among the check's rows."""
    ids, seen = [], {}
    for name, _, _ in FAULTS:
        seen[name] = seen.get(name, 0) + 1
        ids.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return ids


# The caches that would keep values computed under a fault: Phi_n, Phi_n
# mod p, the five-squares results, the Par cores, eps per desk and the
# checked Hilbert-symbol places.
FAULT_CACHES = (cyclotomic.cyclotomic, cyclotomic._cyclotomic_mod_p,
                parencode._five_squares_cached, parencode._par_core,
                witness._eps, quadforms._place_is_prime)


@pytest.mark.parametrize("name, fault, details", FAULTS, ids=_fault_ids())
def test_criterion_fails_on_fault(name, fault, details, monkeypatch, request):
    """The quick Check of criterion `name` with `fault` injected fails,
    with `details` when they are given."""
    for cached in FAULT_CACHES:
        request.addfinalizer(cached.cache_clear)
    owner, attr, wrong = fault
    monkeypatch.setattr(owner, attr, wrong(getattr(owner, attr)))
    check = acceptance.run_criterion(name, "quick")
    assert check.status == "fail"
    if details is not None:
        assert check.details == details


def test_12_builds_each_par_core_once():
    """From cold caches, quick c12 builds one Par core per index, though
    make_par_tuple, par_eval and each reconstruct_check read it."""
    parencode._par_core.cache_clear()
    assert acceptance.run_criterion("12-theta-par", "quick").status == "pass"
    n_par = acceptance.CRITERIA["12-theta-par"][1]["n_par"]
    assert parencode._par_core.cache_info().misses == n_par


def test_03_builds_eps_once_per_desk(monkeypatch):
    """From cold caches, c03 builds eps once, whatever the size of its
    grid."""
    calls = []
    right = witness.epsilon
    monkeypatch.setattr(witness, "epsilon",
                        lambda s: calls.append(s) or right(s))
    builds = []
    for b_max in (8, 16):
        for cached in (witness._eps, witness._exp_b_relation,
                       witness._exp_d_relation):
            cached.cache_clear()
        calls.clear()
        assert acceptance.exp_grid(b_max=b_max, d_max=3, seed=0)[0]
        builds.append(len(calls))
    assert builds == [1, 1]


def _python(script, *flags):
    """Run `script` in a fresh python with `flags`, diobench and these
    tests on its path."""
    path = os.pathsep.join([str(Path(acceptance.__file__).parents[1]),
                            str(Path(__file__).parent)])
    run = subprocess.run([sys.executable, *flags, "-c", script],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert "Traceback" not in run.stderr, run.stderr
    return run


# Runs in the child: inject each fault of the table in turn, print the
# criterion's quick status and details, then undo the fault and empty the
# caches; last, print the lines of acceptance.py that ran under a fault.
_EVERY_FAULT = """
import json, sys
import test_acceptance as t
from diobench import acceptance

reached = set()

def line(frame, event, arg):
    if event == "line":
        reached.add(frame.f_lineno)
    return line

def call(frame, event, arg):
    return line if frame.f_code.co_filename == acceptance.__file__ else None

for name, (owner, attr, wrong), _ in t.FAULTS:
    right = getattr(owner, attr)
    setattr(owner, attr, wrong(right))
    sys.settrace(call)
    try:
        check = acceptance.run_criterion(name, "quick")
    finally:
        sys.settrace(None)
        setattr(owner, attr, right)
        for cached in t.FAULT_CACHES:
            cached.cache_clear()
    print(json.dumps([check.status, check.details]))
print(json.dumps(sorted(reached)))
"""


def _failure_returns():
    """Line and source of every `return False, ...` in acceptance.py."""
    src = Path(acceptance.__file__).read_text()
    return {node.lineno: ast.get_source_segment(src, node)
            for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Return)
            and isinstance(node.value, ast.Tuple)
            and isinstance(node.value.elts[0], ast.Constant)
            and node.value.elts[0].value is False}


def test_every_fault_fails_under_O():
    """python -O drops asserts; every injected fault still fails its
    criterion there, with its details, and together the faults reach every
    failure return of acceptance.py: a check that no fault can fail is
    reached by a new row or deleted."""
    run = _python(_EVERY_FAULT, "-O")
    *results, reached = map(json.loads, run.stdout.splitlines())
    for row, (_, _, details), (status, got) in zip(
            _fault_ids(), FAULTS, results, strict=True):
        assert status == "fail", row
        assert details is None or got == details, (row, got)
    unreached = {line: src for line, src in _failure_returns().items()
                 if line not in reached}
    assert not unreached, f"no fault reaches acceptance.py lines {unreached}"


def _status_and_cli(fault, name, argv):
    """For each of python -O and plain python: the quick status of
    criterion `name` after the lines `fault` ran, and the exit code and
    JSON report of `diobench --format json` on argv."""
    script = (f"import sys\nfrom diobench import acceptance, cli\n{fault}"
              f"print(acceptance.run_criterion({name!r}, 'quick').status)\n"
              f"sys.exit(cli.main(['--format', 'json', *{argv!r}]))\n")
    for flags in (["-O"], []):
        run = _python(script, *flags)
        status, _, report = run.stdout.partition("\n")
        yield status, run.returncode, json.loads(report)


def _self_check_failed(report):
    return [(c["name"], c["status"]) for c in report["checks"]] == [
        ("self-check", "fail")]


def _status_under_O(fault, name):
    """The quick status of criterion `name` in a python -O process (which
    drops asserts) after running the lines `fault`."""
    script = (f"from diobench import acceptance\n{fault}"
              f"print(acceptance.run_criterion({name!r}, 'quick').status)\n")
    run = _python(script, "-O")
    assert run.stdout.split() == ["fail"], run.stderr


def test_07_fails_under_O():
    """A repeated forweak index fails c07 and `cyclo forweak` through the
    construction's self-check, with and without python -O; 1 + 2T needs
    two factors at T^1, so the fault repeats Phi_2."""
    fault = ("from diobench import cyclotomic as cyc\n"
             "right = cyc.find_special_congruent\n"
             "cyc.find_special_congruent = lambda d, s, count, "
             "avoid_primes=(): right(d, s, 1, avoid_primes)[:1] * count\n")
    argv = ["cyclo", "forweak", "--poly", "1+2*t", "--d", "2"]
    for status, code, report in _status_and_cli(fault, "07-forweak", argv):
        assert (status, code) == ("fail", 1)
        assert _self_check_failed(report), report


def test_01_fails_on_a_pair_off_the_identity():
    """A Pell pair built with f off by one fails its identity check where
    it is built, so c01 fails and `pell` exits 1, with and without
    python -O, at an integer s and at s = t/3 + 1/2, whose pairs are built
    over Z[T] and then divided by powers of 6."""
    fault = ("from diobench import pellpairs\n"
             "right = pellpairs.PellPair\n"
             "pellpairs.PellPair = lambda n, f, g, s: right(n, f + 1, g, s)\n")
    for s in ("t", "1/3*t+1/2"):
        argv = ["pell", "--s", s, "--n", "3"]
        for status, code, report in _status_and_cli(fault, "01-pell-laws",
                                                    argv):
            assert (status, code) == ("fail", 1)
            assert _self_check_failed(report), report


def test_05_fails_under_O():
    """The gadget's own exp-system check survives python -O."""
    _status_under_O(
        "from dataclasses import replace\n"
        "from diobench import witness\n"
        "right = witness.exp_system\n"
        "witness.exp_system = lambda *a, **kw: replace(right(*a, **kw), "
        "verdict='refuted')\n", "05-nonneg-gadget")


def test_13_fails_under_O():
    """four_squares re-checks the kernel's answer under python -O."""
    _status_under_O(
        "from diobench import kernels\n"
        "right = kernels.four_squares_raw\n"
        "kernels.four_squares_raw = lambda n: "
        "(right(n)[0] + 1,) + right(n)[1:]\n", "13-four-squares")


def _sympy_irreducible(g):
    import sympy

    x = sympy.Symbol("x")
    _, factors = sympy.factor_list(sympy.Poly(g.coeffs[::-1], x))
    return len(factors) == 1 and factors[0][1] == 1


def _monic(rng, degree, size):
    return Poly([rng.randint(-size, size) for _ in range(degree)] + [1])


def test_monic_factor_agrees_with_sympy():
    """c11's test by Gauss's lemma against sympy's factorization over Q:
    random monic polynomials of degree 2 to 4, products of monic factors
    (two quadratics among them), and quartics that take the c = e branch."""
    rng = random.Random(11)
    cases = [_monic(rng, rng.randint(2, 4), 12) for _ in range(2000)]
    for degrees in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 2), (2, 2)):
        cases += [_monic(rng, degrees[0], 6) * _monic(rng, degrees[1], 6)
                  for _ in range(100)]
    cases += [T**4 + 4, (T * T + 1) ** 2, T**4 + T * T + 1, T**4 + 1,
              T**4 - 2, Poly([5, 0, 25, 0, 1]), Poly([3, 9, 0, 1])]
    for g in cases:
        f = acceptance._monic_factor(g)
        assert (f is None) == _sympy_irreducible(g), g
        if f is not None:
            assert f.lead() == 1 and f.degree in (1, 2), (g, f)
            assert f.degree < g.degree and f.divides(g), (g, f)
            assert all(type(c) is int for c in f.coeffs), (g, f)
