"""The thirteen acceptance criteria of the workbench, runnable one by one
or as a suite (the `verify-all` subcommand and tests/test_acceptance.py).

CRITERIA is the one table of them: each row names the check, the function
and its keyword arguments at the `quick` and `full` profiles.  A criterion
returns (status, details); `run_criterion` wraps that in the named Check.

Every criterion is exact (tolerance zero).  Two report measured data next
to the pass/fail core: the non-negativity gadget (the d = -1 anomaly) and
the approximation point (on-index valuations for m >= 3).
"""

import random
from fractions import Fraction
from math import gcd

from diobench import SelfCheckError
from diobench import cyclotomic as cyc
from diobench import parencode as pe
from diobench import quadforms as qf
from diobench import witness as wit
from diobench.intarith import divisors, four_squares
from diobench.pellpairs import (
    check_degree_law,
    check_divisibility_law,
    pell_pair,
    recognize_solution,
)
from diobench.polynomial import Poly, T
from diobench.reports import Check, Report

S_FAMILY = (T, 2 * T, T * T, 3 * T + 1)


def pell_laws(bound):
    for s in S_FAMILY:
        for n in range(bound + 1):
            pair = pell_pair(s, n)  # raises unless the identity holds
            if n >= 1 and not check_degree_law(s, n):
                return False, f"degree law {s}, {n}"
            if recognize_solution(pair.f, pair.g, s) != (n, 1):
                return False, f"round trip {s}, {n}"
        for ell in range(1, bound + 1):
            for n in range(1, bound + 1):
                if not check_divisibility_law(ell, n, s):
                    return False, f"divisibility {ell}, {n}, {s}"
    return True, f"identity/degree/divisibility/round-trip, bound {bound}"


def singlefold_z(c_max, bound):
    for c in range(-c_max, c_max + 1):
        rep = wit.singlefold_int(c, bound=bound)
        if not (rep.accepted and rep.fold_count == 1):
            return False, f"c = {c}: {rep.verdict}, folds {rep.fold_count}"
    for c in (Fraction(1, 2), T, T * T + 1):
        rep = wit.singlefold_int(c, bound=bound)
        if rep.verdict != "refuted-to-bound":
            return False, f"c = {c} not refuted: {rep.verdict}"
    return True, f"single witness for |c| <= {c_max}, bound {bound}"


def exp_grid(b_max, d_max, seed):
    rng = random.Random(seed)
    for b in range(-b_max, b_max + 1):
        if b == 0:
            continue
        for d in range(-d_max, d_max + 1):
            v = abs(b) ** abs(d)
            for c in (v, -v):
                rep = wit.exp_system(b, c, d)
                if not (rep.accepted and rep.fold_count == 1):
                    return False, (f"({b}, {c}, {d}): {rep.verdict}, "
                                   f"folds {rep.fold_count}")
            # membership is |c| = |b|^|d|: nearby and random non-members
            bad = {v + 1, -v - 1, v - 1, rng.randrange(2, 10**6)}
            for c in bad:
                if abs(c) == v:
                    continue
                if wit.exp_system(b, c, d).accepted:
                    return False, f"({b}, {c}, {d}) wrongly accepted"
    return True, f"grid |b| <= {b_max}, |d| <= {d_max}, single-fold"


def odd_integers(r_max, bound):
    for r in range(-r_max, r_max + 1, 2):
        rep = wit.odd_integer_system(r=r)
        if not rep.accepted:
            return False, f"r = {r}: {rep.notes}"
    for a in (0, 2, -2, 4, T, T * T + 1):
        rep = wit.odd_integer_refute(a, bound=bound)
        if rep.accepted:
            return False, f"a = {a} wrongly accepted"
    return True, f"constructed odd |r| <= {r_max}; even/nonconstant refuted"


def nonneg_set(d_max):
    accepted = [d for d in range(-d_max, d_max + 1)
                if wit.nonneg_gadget(d).accepted]
    expected = [-1] + list(range(0, d_max + 1))
    status = "measured" if accepted == expected else "fail"
    return status, {
        "accepted_set": f"{{-1}} u [0, {d_max}]"
        if accepted == expected else str(accepted),
        "anomaly": "d = -1 accepted (vacuous modulus 1)",
    }


def cyclo_base(n_max):
    # the product identities fix every Phi_d, d <= n_max; c09 checks their
    # values at 1
    for n in range(1, n_max + 1):
        prod = Poly([1])
        for d in divisors(n):
            prod = prod * cyc.cyclotomic(d)
        if prod != Poly.monomial(n) - 1:
            return False, f"product at n = {n}"
    return True, f"prod Phi_d = T^n - 1 (n <= {n_max})"


def forweak_random(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        deg = rng.randrange(0, 7)
        coeffs = [rng.choice((-1, 1))] + [
            rng.choice((-1, 0, 1)) for _ in range(deg)
        ]
        F = Poly(coeffs)
        d = rng.randrange(1, 9)
        # raises unless the indices are distinct and F == M mod T^d; each
        # index p*m (or p*p2*m) has a fresh prime p = 1 mod m above the
        # primes of m, so it is special by construction
        cyc.forweak_approx(F, d)
    return True, (f"{count} random F: M in the special product set, "
                  f"F == M mod T^d")


APPROX_POOL = [(2, 1), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2),
               (5, 4), (7, 3), (7, 6), (13, 4)]


def approx_points():
    measured = []
    for i, pm in enumerate(APPROX_POOL):
        sets = [[pm]]
        for qn in APPROX_POOL[i + 1:]:
            # m | p - 1, so p, m, q and n are pairwise coprime exactly
            # when p*m and q*n are
            if gcd(pm[0] * pm[1], qn[0] * qn[1]) == 1:
                sets.append([pm, qn])
        for s in sets:
            point = cyc.approx_point(s)  # checks off-index and m <= 2 cases
            for rec in point.records:
                if not rec["asserted"]:
                    measured.append(
                        f"(p={rec['p']}, m={rec['m']}): "
                        f"measured {rec['measured']}, target {rec['target']}"
                    )
    return "measured" if measured else "pass", {
        "on_index_m_ge_3": measured,
        "note": "off-index valuations 0 asserted; "
                "m in {1, 2} asserted equal to phi(m)",
    }


def appendix_lemmas(n_max, grid):
    rep = cyc.appendix_checks(n_max=n_max, grid=grid)
    if not rep["pass"]:
        bad = [r for r in rep["value_at_one"] + rep["divisibility"]
               if not r["pass"]]
        return False, bad[:5]
    return True, (f"value at 1 (n <= {n_max}); "
                  f"resultant divisibility grid {grid} x {grid}")


def hilbert_grid(a_max, pairs, seed):
    places = [2, 3, 5, 7, 11, 13, qf.REAL]
    for a in range(-a_max, a_max + 1):
        if a == 0:
            continue
        for b in range(-a_max, a_max + 1):
            if b == 0:
                continue
            for v in places:
                sym = qf.hilbert_symbol(a, b, v)
                if v == qf.REAL:
                    oracle = 1 if (a > 0 or b > 0) else -1
                else:
                    oracle = qf.local_solubility_oracle(a, b, v)
                if sym != oracle:
                    return False, f"mismatch at ({a}, {b}, {v})"
    rng = random.Random(seed)
    for _ in range(pairs):
        a = rng.randrange(-10**4, 10**4) or 1
        b = rng.randrange(-10**4, 10**4) or 1
        prod = 1
        for v in qf.relevant_places(a, b):
            prod *= qf.hilbert_symbol(a, b, v)
        if prod != 1:
            return False, f"reciprocity fails at ({a}, {b})"
    return True, (f"closed form == oracle on [-{a_max}, {a_max}]^2 x 7 "
                  f"places; reciprocity on {pairs} random pairs")


def xi_constructors():
    primes = [2, 5]  # the anisotropic primes of <1, -2, -5, 10>
    fs = (T * T, T * T + 1, T * T + T + 1)
    for f in fs:
        for p in primes:
            qf.padic_xi_construct(f, p)  # raises unless certified with r = 2
        qf.real_xi_construct(f)  # returns only an h with no real root
    # Eisenstein-certified => irreducible, cross-checked at degree <= 4
    for g, p in ((Poly([2, 4, 1]), 2), (Poly([3, 9, 0, 1]), 3),
                 (Poly([5, 0, 25, 0, 1]), 5)):
        if not qf.eisenstein_certify(g, p).verdict:
            return False, f"certify {g} at {p}"
        if _monic_factor(g) is not None:
            return False, f"{g} factors over Q"
    return True, (f"p-adic and real xi for {len(fs)} polynomials at primes "
                  f"{primes}; certified => irreducible")


def _monic_factor(g):
    """A monic factor in Z[T] of degree 1 or 2 of the monic g in Z[T] of
    degree 2 to 4, or None.

    By Gauss's lemma a monic g in Z[T] that factors over Q factors into
    monic integer polynomials, and at degree <= 4 one of them has degree 1
    or 2.  An integer root divides g(0).  T^2 + bT + c times T^2 + dT + e
    is g when ce = g(0), d = a3 - b, b(e - c) = a1 - c a3 and
    b(a3 - b) = a2 - c - e; so b is pinned when e != c, and divides
    a2 - 2c when e = c (b = 0 works if that is 0).
    """
    a0, a1, a2, a3 = g[0], g[1], g[2], g[3]
    if a0 == 0:
        return T
    cands = [s * c for c in divisors(abs(a0)) for s in (1, -1)]
    for r in cands:
        if g(r) == 0:
            return T - r
    if g.degree < 4:
        return None
    for c in cands:
        e = a0 // c
        if e != c:
            b, rem = divmod(a1 - c * a3, e - c)
            bs = () if rem else (b,)
        elif a1 != c * a3:
            continue
        else:
            k = a2 - 2 * c
            bs = (0,) if k == 0 else [s * b for b in divisors(abs(k))
                                      for s in (1, -1)]
        for b in bs:
            if b * (a3 - b) == a2 - c - e:
                return Poly([c, b, 1])
    return None


def theta_par(n_round, n_par, perturbations, seed):
    for n in range(1, n_round + 1):
        if pe.theta_inverse(pe.theta(n)) != n:
            return False, f"round trip at {n}"
    rng = random.Random(seed)
    for n in range(1, n_par + 1):
        t = pe.make_par_tuple(n)
        ev = pe.par_eval(t)
        if ev["verdict"] != "accepted":
            return False, f"no accepting tuple at {n}"
        # the target has degree 2d + 2, so at d <= 1 the search decides g
        if t.d <= 1 and ev["conditions"]["5-g-minimal"] is not True:
            return False, f"g semi-decided at {n}"
        P = pe.theta(n)
        k = 2 * t.b + 2 * t.c + t.d
        for _ in range(perturbations):
            S = Poly([
                rng.choice((-3, -2, -1, 1, 2, 3))
                for _ in range(rng.randrange(1, t.d + 2))
            ])
            Fp = P + Poly([k, -1]) * S
            if Fp == P:
                continue
            if pe.reconstruct_check(Fp, t)["accepted"]:
                return False, f"perturbation accepted at n = {n}: S = {S}"
    return True, (f"round trip n <= {n_round}; accepting tuples and "
                  f"rejected perturbations for n <= {n_par}")


def four_squares_range(n_max):
    for n in range(n_max + 1):
        sol = four_squares(n)  # re-verifies internally
        if list(sol) != sorted(sol, reverse=True):
            return False, f"not canonical at {n}"
    return True, f"verified for all n <= {n_max}"


# check name: (function, quick kwargs, full kwargs, takes the suite's seed).
# Functions are named, not bound, so a wrapper rebound over a module global
# (a tracer, a test's monkeypatch) is the one that runs.
CRITERIA = {
    "01-pell-laws": ("pell_laws", {"bound": 10}, {"bound": 20}, False),
    "02-singlefold-z": ("singlefold_z", {"c_max": 5, "bound": 50},
                        {"c_max": 10, "bound": 50}, False),
    "03-exp-system": ("exp_grid", {"b_max": 8, "d_max": 3},
                      {"b_max": 16, "d_max": 4}, True),
    "04-odd-integer": ("odd_integers", {"r_max": 5, "bound": 15},
                       {"r_max": 9, "bound": 15}, False),
    "05-nonneg-gadget": ("nonneg_set", {"d_max": 10}, {"d_max": 20}, False),
    "06-cyclo-base": ("cyclo_base", {"n_max": 100}, {"n_max": 200}, False),
    "07-forweak": ("forweak_random", {"count": 50}, {"count": 200}, True),
    "08-approx-point": ("approx_points", {}, {}, False),
    "09-appendix-lemmas": ("appendix_lemmas", {"n_max": 100, "grid": 30},
                           {"n_max": 200, "grid": 60}, False),
    "10-hilbert-symbols": ("hilbert_grid", {"a_max": 10, "pairs": 100},
                           {"a_max": 20, "pairs": 500}, True),
    "11-xi-constructors": ("xi_constructors", {}, {}, False),
    "12-theta-par": ("theta_par",
                     {"n_round": 10**4, "n_par": 60, "perturbations": 4},
                     {"n_round": 10**5, "n_par": 200, "perturbations": 8},
                     True),
    "13-four-squares": ("four_squares_range", {"n_max": 2000},
                        {"n_max": 10**4}, False),
}


def run_criterion(name, profile="full", seed=0):
    """The Check of criterion `name` at the profile's arguments."""
    fn, quick, full, seeded = CRITERIA[name]
    kwargs = dict(quick if profile == "quick" else full)
    if seeded:
        kwargs["seed"] = seed
    try:
        status, details = globals()[fn](**kwargs)
    except SelfCheckError as e:
        status, details = "fail", str(e)
    return Check(name, status, details)


def run_suite(profile="full", seed=0):
    """One check per criterion; `quick` shrinks the grids."""
    report = Report("verify-all", inputs={"profile": profile, "seed": seed})
    report.checks = [run_criterion(name, profile, seed) for name in CRITERIA]
    return report
