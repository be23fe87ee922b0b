"""The thirteen acceptance criteria, one test (and one printed pass/fail
line) per row of `acceptance.CRITERIA`, at the full profile; the test id is
the check name.  "measured" is a pass with data attached; only "fail"
fails.  Mutation tests run rows at the quick profile with one fault
injected and require "fail", three of them also under python -O; the table
itself is checked against the suite's report and the functions'
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


@pytest.mark.parametrize("name", MUTATIONS)
def test_criterion_fails_on_fault(name, monkeypatch, request):
    # Phi_n built under the fault must not outlive it
    for cached in (cyclotomic.cyclotomic, cyclotomic._cyclotomic_mod_p):
        request.addfinalizer(cached.cache_clear)
    module, attr, wrong = MUTATIONS[name]
    monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
    assert acceptance.run_criterion(name, "quick").status == "fail"


def test_01_fails_on_wrong_pell_pair(monkeypatch):
    right = acceptance.pell_pair
    monkeypatch.setattr(acceptance, "pell_pair",
                        lambda s, n: replace(right(s, n), f=right(s, n).f + 1))
    assert acceptance.run_criterion("01-pell-laws", "quick").status == "fail"


def test_12_fails_when_pos_accepts_everything(monkeypatch, request):
    # five-squares results computed under the fault must not outlive it
    request.addfinalizer(parencode._five_squares_cached.cache_clear)
    monkeypatch.setattr(parencode, "pos_check", lambda F: True)
    assert acceptance.run_criterion("12-theta-par", "quick").status == "fail"


def _status_under_O(fault, name):
    """The quick status of criterion `name` in a python -O process (which
    drops asserts) after running the lines `fault`."""
    script = (f"from diobench import acceptance\n{fault}"
              f"print(acceptance.run_criterion({name!r}, 'quick').status)\n")
    src = Path(acceptance.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, env=env)
    assert run.stdout.split() == ["fail"], run.stderr
    assert "Traceback" not in run.stderr, run.stderr


def test_07_fails_under_O():
    """The forweak self-check survives python -O."""
    _status_under_O(
        "from diobench import cyclotomic as cyc\n"
        "right = cyc.find_special_congruent\n"
        "cyc.find_special_congruent = lambda d, s, count, avoid_primes=(): "
        "right(d, -s, count, avoid_primes=avoid_primes)\n", "07-forweak")


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
