"""The thirteen acceptance criteria, one test (and one printed pass/fail
line) per row of `acceptance.CRITERIA`, at the full profile; the test id is
the check name.  "measured" is a pass with data attached; only "fail"
fails.  Mutation tests inject one fault of the table FAULTS and require a
criterion at the quick profile to fail, or a command to exit 1 on its
self-check; all rows run again under python -O, where a line trace shows
that together they reach every `return False, ...` of acceptance.py and
every `raise SelfCheckError` of the package.  The criteria table itself
is checked against the suite's report and the functions' signatures.
c11's irreducibility test is checked against sympy."""

import ast
import inspect
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from diobench import (acceptance, cli, cyclotomic, kernels, parencode,
                      pellpairs, quadforms, witness)
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


# Mutation tests: one wrong value injected through a module or class
# attribute must make a criterion fail, or a command exit 1.


def _rebuild(record, **changes):
    """`record` with `changes`, built anew by its class's constructor, so
    that the record's own checks run on the changed fields."""
    cls = type(record)
    names = getattr(cls, "_fields", None) or cls.__slots__
    return cls(**dict({name: getattr(record, name) for name in names},
                      **changes))


def _verdict(verdict):
    """Wrap a witness system so that every report carries `verdict`."""
    return lambda right: (
        lambda *args, **kwargs: _rebuild(right(*args, **kwargs),
                                         verdict=verdict))


def _f_off_by_one(right):
    """PellPair with f off by one, so the pair misses the Pell identity."""
    return lambda n, f, g, s: right(n, f + 1, g, s)


def _pair_one_up(right):
    """pell_pair giving the pair at |n| + 1."""
    return lambda s, n: right(s, abs(n) + 1)


def _repeat_first(right):
    """find_special_congruent giving its first index `count` times."""
    return lambda d, s, count, avoid_primes=(): right(
        d, s, 1, avoid_primes)[:1] * count


def _parts_plus_one(right):
    """_decompositions adding 1 to every part it finds."""
    def wrong(G, limit, budget):
        found, left = right(G, limit, budget)
        return [[part + 1 for part in parts] for parts in found], left
    return wrong


# One row per fault: (target, (module or class, name it calls, right
# function -> wrong one), the details it must give or None).  The target is
# a check name, or an argv whose report must hold one check, the failed
# self-check.  The rows of a target reach different failure returns or
# self-checks, or fault different code on the way to one.  None marks a
# criterion whose details are data (05, 09) or the certificate of the first
# row of 11.
FAULTS = [
    # a pair with f off by one, which the round trip does not recognise
    ("01-pell-laws", (acceptance, "pell_pair",
                      lambda right: lambda s, n: _rebuild(
                          right(s, n), f=right(s, n).f + 1)),
     "round trip T, 0"),
    # the pair at n + 1: it satisfies the identity at the wrong index
    ("01-pell-laws", (pellpairs, "pell_pair",
                      lambda right: lambda s, n: right(s, n + (n >= 1))),
     "degree law T, 1"),
    ("01-pell-laws", (Poly, "divides", lambda right: lambda f, g: True),
     "divisibility 2, 1, T"),
    # a pair built with f off by one: its identity check fails where it
    # is built
    ("01-pell-laws", (pellpairs, "PellPair", _f_off_by_one),
     "f^2 - (s^2 - 1) g^2 != 1 at s = T, n = 0"),
    ("02-singlefold-z", (witness, "singlefold_int",
                         _verdict("refuted-to-bound")),
     "c = -5: refuted-to-bound, folds 1"),
    ("02-singlefold-z", (witness, "singlefold_int", _verdict("accepted")),
     "c = 1/2 not refuted: accepted"),
    # eps^(n + 1) for eps^n: the quotient y_n leaves a remainder
    ("02-singlefold-z", (witness, "pell_pair", _pair_one_up),
     "(eps - 1)^2 does not divide eps^5 - 1 - 5(eps - 1) at a = T"),
    ("03-exp-system", (witness, "exp_system", _verdict("accepted")),
     "(-8, 513, -3) wrongly accepted"),
    ("03-exp-system", (witness, "exp_system", _verdict("refuted")),
     "(-8, 512, -3): refuted, folds 1"),
    # eps^(n + 1) for eps^n: the quotient by eps - b leaves a remainder
    ("03-exp-system", (witness, "pell_pair", _pair_one_up),
     "eps - b does not divide eps^3 - b^3 at a = T, b = -8"),
    ("04-odd-integer", (witness, "odd_integer_refute", _verdict("accepted")),
     "a = 0 wrongly accepted"),
    ("04-odd-integer", (witness, "odd_integer_system", _verdict("invalid")),
     "r = -5: all relations hold"),
    # every divisibility holds, so a = 2 passes the checker's relations
    ("04-odd-integer", (Poly, "divides", lambda right: lambda f, g: True),
     "accepted tuple has a = 2, not an odd integer"),
    ("05-nonneg-gadget", (witness, "nonneg_gadget", _verdict("accepted")),
     None),
    ("05-nonneg-gadget", (witness, "exp_system", _verdict("refuted")),
     "exp system refutes b = (d^4 + 1)^|2d| at d = -10"),
    ("06-cyclo-base", (cyclotomic, "cyclotomic",
                       lambda right: lambda n: right(n) + 1),
     "product at n = 1"),
    # indices congruent to 1 - s*T^d, so the product misses F
    ("07-forweak", (cyclotomic, "find_special_congruent",
                    lambda right: lambda d, s, count, avoid_primes=(): right(
                        d, -s, count, avoid_primes=avoid_primes)),
     "the product of Phi_n, n in [136, 156], differs from 1 - T^2 + T^4 "
     "mod T^5"),
    # the wrong parity of the factor count of r
    ("07-forweak", (cyclotomic, "moebius", lambda right: lambda n: -right(n)),
     "constructed index 156 fails the congruence"),
    ("07-forweak", (cyclotomic, "find_special_congruent", _repeat_first),
     "repeated index in [2, 20, 136, 136, 342]"),
    ("08-approx-point", (cyclotomic, "crt",
                         lambda right: lambda residues, moduli: right(
                             residues, moduli) + 1),
     "the CRT point 2 misses a lift"),
    # the root of unity of order 2 replaced by 1 ...
    ("08-approx-point", (cyclotomic, "hensel_root_of_unity",
                         lambda right: lambda m, p, k: 1 if m == 2
                         else right(m, p, k)),
     "ord_5(Phi_10(c)) = 0, not phi(2) = 1"),
    # ... and those of order >= 3
    ("08-approx-point", (cyclotomic, "hensel_root_of_unity",
                         lambda right: lambda m, p, k: 1 if m >= 3
                         else right(m, p, k)),
     "off-index ord_7(Phi_1(c)) = INF"),
    ("09-appendix-lemmas", (cyclotomic, "appendix_checks",
                            lambda right: lambda **kw: {**right(**kw),
                                                        "pass": False}),
     None),
    # every resultant one too large, so lemma (ii) sees false divisors
    ("09-appendix-lemmas", (cyclotomic, "resultant",
                            lambda right: lambda a, b: right(a, b) + 1),
     [{"r": 2, "m": 1, "p": 3, "pass": False},
      {"r": 3, "m": 1, "p": 2, "pass": False},
      {"r": 4, "m": 1, "p": 3, "pass": False},
      {"r": 5, "m": 1, "p": 2, "pass": False},
      {"r": 5, "m": 1, "p": 3, "pass": False}]),
    ("10-hilbert-symbols", (quadforms, "hilbert_symbol",
                            lambda right: lambda a, b, v: -right(a, b, v)),
     "mismatch at (-10, -10, 2)"),
    # wrong only at 17, a place outside the grid: reciprocity sees it
    ("10-hilbert-symbols", (quadforms, "hilbert_symbol",
                            lambda right: lambda a, b, v: right(a, b, v) * (
                                -1 if v == 17 else 1)),
     "reciprocity fails at (-765, -5421)"),
    # a wrong scan behind the oracle, seen only if its cache starts cold
    ("10-hilbert-symbols", (quadforms, "mod_scan_soluble",
                            lambda right: lambda a, b, m: -right(a, b, m)),
     "mismatch at (-10, -10, 2)"),
    ("11-xi-constructors", (quadforms, "eisenstein_certify",
                            lambda right: lambda f, p: _rebuild(
                                right(f, p), verdict=False)), None),
    # wrong only at degree <= 4, past the h of degree 6 that
    # padic_xi_construct certifies
    ("11-xi-constructors", (quadforms, "eisenstein_certify",
                            lambda right: lambda f, p: right(f, p)
                            if f.degree > 4 else _rebuild(right(f, p),
                                                          verdict=False)),
     "certify 2 + 4*T + T^2 at 2"),
    ("11-xi-constructors", (acceptance, "_monic_factor",
                            lambda right: lambda g: T),
     "2 + 4*T + T^2 factors over Q"),
    ("11-xi-constructors", (Poly, "compose",
                            lambda right: lambda f, g: right(f, g) + 1),
     "h(p^r T) != xi1 f^3 + xi2 T + xi3 at f = T^2, p = 2"),
    ("12-theta-par", (parencode, "pos_check", lambda right: lambda F: True),
     "perturbation accepted at n = 1: S = 1"),
    # theta_inverse off by one at index 42, so the round trip fails
    ("12-theta-par", (parencode, "theta_inverse",
                      lambda right: lambda P: right(P) + (right(P) == 42)),
     "round trip at 42"),
    # Par tuples with c one too large, so 4-c-minimal fails
    ("12-theta-par", (parencode, "make_par_tuple",
                      lambda right: lambda n: _rebuild(right(n),
                                                       c=right(n).c + 1)),
     "no accepting tuple at 1"),
    # five parts that do not square up to their target
    ("12-theta-par", (parencode, "_decompositions", _parts_plus_one),
     "g^2 F != sum of the five squares at F = 4*T^2, g = 1"),
    # a search that finds nothing leaves condition 5 semi-decided
    ("12-theta-par", (parencode, "_decompositions",
                      lambda right: lambda G, limit, budget: ([], budget)),
     "g semi-decided at 1"),
    ("13-four-squares", (acceptance, "four_squares",
                         lambda right: lambda n: tuple(sorted(right(n)))),
     "not canonical at 1"),
    ("13-four-squares", (kernels, "four_squares_raw",
                         lambda right: lambda n: (right(n)[0] + 1,)
                         + right(n)[1:]),
     "(1, 0, 0, 0) is no sum of four squares for 0"),
    # CLI rows: a fault inside a construction reached from the command line
    (["pell", "--s", "t", "--n", "3"], (pellpairs, "PellPair", _f_off_by_one),
     "f^2 - (s^2 - 1) g^2 != 1 at s = T, n = 3"),
    # s = t/3 + 1/2: pairs built over Z[T], then divided by powers of 6
    (["pell", "--s", "1/3*t+1/2", "--n", "3"],
     (pellpairs, "PellPair", _f_off_by_one),
     "f^2 - (s^2 - 1) g^2 != 1 at s = 1/2 + 1/3*T, n = 3"),
    # 1 + 2T needs two factors at T^1, so the fault repeats Phi_2
    (["cyclo", "forweak", "--poly", "1+2*t", "--d", "2"],
     (cyclotomic, "find_special_congruent", _repeat_first),
     "repeated index in [2, 2]"),
    # wrong at 3 and 5 both, so the product over all places stays 1
    (["qform", "report", "--a", "2", "--b", "15"],
     (quadforms, "hilbert_symbol",
      lambda right: lambda a, b, v: right(a, b, v) * (
          -1 if v in (3, 5) else 1)),
     "(2, 15)_3 = 1 breaks the unit rule"),
    (["qform", "xi", "--real", "--f", "2*t^2-3"],
     (quadforms, "real_root_count", lambda right: lambda h: 0),
     "h = -73/4 + T + 54*T^2 - 36*T^4 + 8*T^6 is not positive at 0"),
]


def _fault_ids():
    """A target's first row is named by the target (a check name, or the
    argv joined by "_"), its later rows add their place among the target's
    rows."""
    ids, seen = [], {}
    for target, _, _ in FAULTS:
        name = target if isinstance(target, str) else "_".join(target)
        seen[name] = seen.get(name, 0) + 1
        ids.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return ids


# The caches that would keep values computed under a fault, or hide from a
# warm run a fault inside the construction they cache: Phi_n, the
# five-squares results, the Pell pairs, the Par cores, the acceptance of
# each Par tuple, eps and the eps-relation quotients per desk, the checked
# Hilbert-symbol places and the oracle's scans.
FAULT_CACHES = (cyclotomic.cyclotomic, parencode._five_squares_cached,
                parencode._par_core, parencode._par_accepted,
                pellpairs._pell_cached, witness._eps, witness._x, witness._y,
                quadforms._place_is_prime, quadforms._oracle_scan)


def _clear_caches():
    for cached in FAULT_CACHES:
        cached.cache_clear()


def _outcome(target):
    """The quick status and details of criterion `target`, or for an argv
    the exit code of `diobench --format json` on it and the (name, status,
    details) of each check of its report."""
    if isinstance(target, str):
        check = acceptance.run_criterion(target, "quick")
        return [check.status, check.details]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--format", "json", *target])
    checks = json.loads(out.getvalue())["checks"]
    return [code, [[c["name"], c["status"], c["details"]] for c in checks]]


def _assert_fails(row, target, details, outcome):
    """A criterion fails, with `details` when they are given; a command
    exits 1 with one failed check, the self-check, with `details`."""
    if isinstance(target, str):
        status, got = outcome
        assert status == "fail", row
        assert details is None or got == details, (row, got)
    else:
        assert outcome == [1, [["self-check", "fail", details]]], (row,
                                                                   outcome)


@pytest.mark.parametrize("target, fault, details", FAULTS, ids=_fault_ids())
def test_criterion_fails_on_fault(target, fault, details, monkeypatch,
                                  request):
    """The quick Check of criterion `target`, or the command `target`, with
    `fault` injected fails, with `details` when they are given."""
    _clear_caches()
    request.addfinalizer(_clear_caches)
    owner, attr, wrong = fault
    monkeypatch.setattr(owner, attr, wrong(getattr(owner, attr)))
    _assert_fails(request.node.name, target, details, _outcome(target))


def test_12_builds_each_par_core_once():
    """From cold caches, quick c12 builds one Par core per index, though
    make_par_tuple, par_eval and each reconstruct_check read it."""
    parencode._par_core.cache_clear()
    assert acceptance.run_criterion("12-theta-par", "quick").status == "pass"
    n_par = acceptance.CRITERIA["12-theta-par"][1]["n_par"]
    assert parencode._par_core.cache_info().misses == n_par


def test_12_evaluates_each_par_tuple_twice(monkeypatch):
    """From cold caches, quick c12 calls par_eval on each of its 60 tuples
    once for its own verdict and once more for all the reconstruct_check
    calls against that tuple."""
    _clear_caches()
    calls = []
    right = parencode.par_eval
    monkeypatch.setattr(parencode, "par_eval",
                        lambda t: calls.append(t.n) or right(t))
    assert acceptance.run_criterion("12-theta-par", "quick").status == "pass"
    assert len(calls) == 120


def test_03_builds_eps_once_per_desk(monkeypatch):
    """From cold caches, c03 builds eps once, whatever the size of its
    grid."""
    calls = []
    right = witness.epsilon
    monkeypatch.setattr(witness, "epsilon",
                        lambda s: calls.append(s) or right(s))
    builds = []
    for b_max in (8, 16):
        for cached in (witness._eps, witness._x, witness._y):
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


# Runs in the child: inject each fault of the table in turn, print its
# outcome, then undo the fault and empty the caches; last, print the
# targets that ran under a fault.  Only frames whose code holds a target
# get the line tracer.
_EVERY_FAULT = """
import json, sys
import test_acceptance as t

targets = t._targets()
reached = set()
holds = {}

def line(frame, event, arg):
    key = (frame.f_code.co_filename, frame.f_lineno)
    if event == "line" and key in targets:
        reached.add(targets[key])
    return line

def call(frame, event, arg):
    code = frame.f_code
    if code not in holds:
        holds[code] = any((code.co_filename, n) in targets
                          for _, _, n in code.co_lines())
    return line if holds[code] else None

for target, (owner, attr, wrong), _ in t.FAULTS:
    right = getattr(owner, attr)
    t._clear_caches()
    setattr(owner, attr, wrong(right))
    sys.settrace(call)
    try:
        outcome = t._outcome(target)
    finally:
        sys.settrace(None)
        setattr(owner, attr, right)
        t._clear_caches()
    print(json.dumps(outcome))
print(json.dumps(sorted(reached)))
"""


def _targets():
    """Map (file, line) of every `return False, ...` in acceptance.py and of
    every `raise SelfCheckError` in the package to its name, file:line."""
    found = {}
    for path in sorted(Path(acceptance.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            failure_return = (
                path.name == "acceptance.py"
                and isinstance(node, ast.Return)
                and isinstance(node.value, ast.Tuple)
                and isinstance(node.value.elts[0], ast.Constant)
                and node.value.elts[0].value is False)
            self_check = (isinstance(node, ast.Raise)
                          and isinstance(node.exc, ast.Call)
                          and isinstance(node.exc.func, ast.Name)
                          and node.exc.func.id == "SelfCheckError")
            if failure_return or self_check:
                found[str(path), node.lineno] = f"{path.name}:{node.lineno}"
    return found


def test_every_fault_fails_under_O():
    """python -O drops asserts; every injected fault still fails its
    criterion or command there, with its details, and together the faults
    reach every failure return of acceptance.py and every SelfCheckError
    raised in the package: a check that no fault can fail is reached by a
    new row or deleted."""
    run = _python(_EVERY_FAULT, "-O")
    *outcomes, reached = map(json.loads, run.stdout.splitlines())
    for row, (target, _, details), outcome in zip(
            _fault_ids(), FAULTS, outcomes, strict=True):
        _assert_fails(row, target, details, outcome)
    unreached = sorted(set(_targets().values()) - set(reached))
    assert not unreached, f"no fault reaches {unreached}"


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
