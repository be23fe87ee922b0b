"""The thirteen acceptance criteria, one test (and one printed pass/fail
line) per row of `acceptance.CRITERIA`, at the full profile; the test id is
the check name.  "measured" is a pass with data attached; only "fail"
fails.  Mutation tests run rows at the quick profile with one fault
injected and require "fail", all of them also under python -O, as do the
self-checks of 01, 05, 07 and 13 on faults inside their constructions;
the table itself is checked against the suite's report and the functions'
signatures.  c11's irreducibility test is checked against sympy."""

import inspect
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from diobench import acceptance, cyclotomic, parencode, quadforms, witness
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


# check name: (module, public name it calls, right function -> wrong one)
MUTATIONS = {
    "02-singlefold-z": (witness, "singlefold_int",
                        _verdict("refuted-to-bound")),
    "03-exp-system": (witness, "exp_system", _verdict("accepted")),
    "04-odd-integer": (witness, "odd_integer_refute", _verdict("accepted")),
    "05-nonneg-gadget": (witness, "nonneg_gadget", _verdict("accepted")),
    "06-cyclo-base": (cyclotomic, "cyclotomic",
                      lambda right: lambda n: right(n) + 1),
    # indices congruent to 1 - s*T^d, so the product misses F
    "07-forweak": (cyclotomic, "find_special_congruent",
                   lambda right: lambda d, s, count, avoid_primes=(): right(
                       d, -s, count, avoid_primes=avoid_primes)),
    "08-approx-point": (cyclotomic, "crt",
                        lambda right: lambda residues, moduli: right(
                            residues, moduli) + 1),
    "09-appendix-lemmas": (cyclotomic, "appendix_checks",
                           lambda right: lambda **kw: {**right(**kw),
                                                       "pass": False}),
    "10-hilbert-symbols": (quadforms, "hilbert_symbol",
                           lambda right: lambda a, b, v: -right(a, b, v)),
    "11-xi-constructors": (quadforms, "eisenstein_certify",
                           lambda right: lambda f, p: replace(
                               right(f, p), verdict=False)),
    "13-four-squares": (acceptance, "four_squares",
                        lambda right: lambda n: tuple(sorted(right(n)))),
}


# The faults of test_01 and test_12, which the python -O run below adds to
# MUTATIONS: a Pell pair with f off by one, a Pos that accepts all,
# theta_inverse off by one at index 42 (so the round trip fails) and Par
# tuples with c one too large (so 4-c-minimal fails).
WRONG_PELL_PAIR = (acceptance, "pell_pair",
                   lambda right: lambda s, n: replace(right(s, n),
                                                      f=right(s, n).f + 1))
POS_ACCEPTS_ALL = (parencode, "pos_check", lambda right: lambda F: True)
THETA_INVERSE_OFF_BY_ONE = (
    parencode, "theta_inverse",
    lambda right: lambda P: right(P) + (right(P) == 42))
PAR_C_PLUS_ONE = (parencode, "make_par_tuple",
                  lambda right: lambda n: replace(right(n), c=right(n).c + 1))
EXTRA_FAULTS = (("01-pell-laws", WRONG_PELL_PAIR),
                ("12-theta-par", POS_ACCEPTS_ALL),
                ("12-theta-par", THETA_INVERSE_OFF_BY_ONE),
                ("12-theta-par", PAR_C_PLUS_ONE))


# The caches that would keep values computed under a fault: Phi_n, Phi_n
# mod p, the five-squares results, the Par cores, eps per desk and the
# checked Hilbert-symbol places.
FAULT_CACHES = (cyclotomic.cyclotomic, cyclotomic._cyclotomic_mod_p,
                parencode._five_squares_cached, parencode._par_core,
                witness._eps, quadforms._place_is_prime)


def _fails(name, fault, monkeypatch, request):
    """The quick Check of criterion `name` with `fault` injected; it must
    fail."""
    for cached in FAULT_CACHES:
        request.addfinalizer(cached.cache_clear)
    module, attr, wrong = fault
    monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
    check = acceptance.run_criterion(name, "quick")
    assert check.status == "fail"
    return check


@pytest.mark.parametrize("name", MUTATIONS)
def test_criterion_fails_on_fault(name, monkeypatch, request):
    _fails(name, MUTATIONS[name], monkeypatch, request)


def test_01_fails_on_wrong_pell_pair(monkeypatch, request):
    """pell_laws reads the pair's identity through the round trip."""
    _fails("01-pell-laws", WRONG_PELL_PAIR, monkeypatch, request)


def test_12_fails_when_pos_accepts_everything(monkeypatch, request):
    _fails("12-theta-par", POS_ACCEPTS_ALL, monkeypatch, request)


def test_12_fails_on_a_wrong_round_trip(monkeypatch, request):
    check = _fails("12-theta-par", THETA_INVERSE_OFF_BY_ONE, monkeypatch,
                   request)
    assert check.details == "round trip at 42"


def test_12_fails_on_a_c_above_the_minimum(monkeypatch, request):
    check = _fails("12-theta-par", PAR_C_PLUS_ONE, monkeypatch, request)
    assert check.details == "no accepting tuple at 1"


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
# criterion's quick status, then undo the fault and empty the caches.
_EVERY_FAULT = """
import test_acceptance as t
from diobench import acceptance

for name, (module, attr, wrong) in [*t.MUTATIONS.items(), *t.EXTRA_FAULTS]:
    right = getattr(module, attr)
    setattr(module, attr, wrong(right))
    try:
        print(name, acceptance.run_criterion(name, "quick").status)
    finally:
        setattr(module, attr, right)
        for cached in t.FAULT_CACHES:
            cached.cache_clear()
"""


def test_every_fault_fails_under_O():
    """python -O drops asserts; every injected fault still fails its
    criterion there."""
    run = _python(_EVERY_FAULT, "-O")
    names = [*MUTATIONS, *(name for name, _ in EXTRA_FAULTS)]
    assert run.stdout.splitlines() == [f"{n} fail" for n in names], run.stderr


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
