"""Effective indexing of Z[T], the Pos relation, bounded five-squares
decompositions, the Par relation, and the reconstruction harness
(ground field Q, r = 1, alpha_1 = 1).

The indexing theta is a fixed bijection from positive integers onto Z[T]
(bijective binary run-lengths + zigzag signs); the scheme is documented
bit-for-bit in docs/theta-scheme.md.
"""

from functools import lru_cache
from math import isqrt

from diobench import SelfCheckError
from diobench.pellpairs import pell_pair
from diobench.polynomial import (
    Poly,
    T,
    chain_root_count,
    poly_gcd,
    real_root_count,
    sturm_chain,
)

# Small integers where Pos looks for a negative value before any Sturm work,
# and where the five-squares search screens its candidate parts.
SAMPLE_POINTS = (0, 1, -1, 2, -2, 3, -3)

# The most (a, b, c) candidates that one five_squares_search examines, summed
# over g; past it the search answers "exhausted" (nothing found) or marks its
# count a lower bound.  It examines 0.5-3 million a second on 2 cores.
FIVE_SQUARES_CANDIDATES_MAX = 10**6

# The largest g that five_squares_search tries by default.
FIVE_SQUARES_G_MAX = 4

# -- theta: positive integers <-> integer polynomials -------------------------


def theta(n):
    """The polynomial with index n >= 1; theta(1) is the zero polynomial."""
    if n < 1:
        raise ValueError("index must be >= 1")
    if n == 1:
        return Poly()
    # bits of (n - 2) + 1 below the leading 1 form an arbitrary bitstring;
    # its zero-run lengths a_0, ..., a_d (separated by 1s) give the
    # codes u, the last one shifted to keep the lead nonzero, each decoded
    # by zigzag: (u + 1) / 2 for odd u, -u / 2 for even u
    codes = list(map(len, bin(n - 1)[3:].split("1")))
    codes[-1] += 1
    return Poly([(u + 1) >> 1 if u & 1 else -(u >> 1) for u in codes])


def theta_inverse(P):
    """Index of an integer polynomial under theta."""
    P = Poly.coerce(P)
    if any(not isinstance(c, int) for c in P.coeffs):
        raise ValueError("theta only indexes integer polynomials")
    if P.is_zero():
        return 1
    # the bitstring 1 0^{a_0} 1 0^{a_1} ... 1 0^{a_d - 1} by shifts: code a
    # (2c - 1 for c > 0, else -2c) adds a zeros and a 1, the last a - 1 zeros
    *head, last = P.coeffs
    n = 1
    for c in head:
        n = (n << (2 * c if c > 0 else 1 - 2 * c)) | 1
    return (n << (2 * last - 2 if last > 0 else -2 * last - 1)) + 1


# -- Pos ----------------------------------------------------------------------


def pos_check(F):
    """F(t) >= 0 for every real t, decided exactly.

    True iff F = 0, or deg F is even with positive lead and no real root of
    odd multiplicity.  A negative value at one of SAMPLE_POINTS refutes Pos
    first; otherwise Sturm counts down the gcd tower g_0 = F, g_k =
    gcd(g_{k-1}, g_{k-1}') decide it.  A root of multiplicity m is a root of
    g_0, ..., g_{m-1}, so N(g_0) - N(g_1) + N(g_2) - ... of their distinct
    real root counts is the number of roots of odd multiplicity.  The Sturm
    chain of F ends in g_1.  Each polynomial is decided once.
    """
    return _pos_cached(Poly.coerce(F).coeffs)


@lru_cache(maxsize=1 << 14)
def _pos_cached(coeffs):
    F = Poly(coeffs)
    if F.is_zero():
        return True
    if F.degree % 2 or F.lead() < 0:
        return False
    if any(F(x) < 0 for x in SAMPLE_POINTS):
        return False
    chain = sturm_chain(F)
    odd, sign, g = chain_root_count(chain), -1, chain[-1]
    while g.degree:
        odd += sign * real_root_count(g)
        sign, g = -sign, poly_gcd(g, g.derivative())
    return odd == 0


# -- five squares -------------------------------------------------------------


def five_squares_verify(g, F, parts):
    """Exact identity g^2 F = F_1^2 + ... + F_5^2."""
    if len(parts) != 5:
        raise ValueError("need exactly five parts")
    F = Poly.coerce(F)
    acc = Poly()
    for Fi in parts:
        Fi = Poly.coerce(Fi)
        acc = acc + Fi * Fi
    return acc == g * g * F


def _decompositions(G, limit, budget):
    """Up to `limit` canonical 5-tuples of parts c + bT + aT^2 (positive
    lead, (a, b, c) non-increasing) whose squares sum to G = (r_0, ..., r_4),
    and the budget left after one step per candidate, below 0 if it ran out.
    The m parts left, with coefficient columns A, B and C, meet the Gram
    identities |A|^2 = r_4, 2A.B = r_3, |B|^2 + 2A.C = r_2, 2B.C = r_1 and
    |C|^2 = r_0 of the remainder r, so |B|^2 <= bb = r_2 + isqrt(4 r_4 r_0).
    The next part is the largest, so its lead (the first of a, b, c that r
    lets be nonzero) has m lead^2 >= top, the first nonzero of r_4, r_2, r_0.
    """
    results, left = [], budget

    def rec(r, prefix):
        nonlocal left
        if not any(r):
            results.append([Poly([c, b, a]) for a, b, c in prefix]
                           + [Poly()] * (5 - len(prefix)))
            return
        r0, r1, r2, r3, r4 = r
        m, top = 5 - len(prefix), r4 or r2 or r0
        bb = r2 + isqrt(4 * r4 * r0)
        if (m == 0 or bb < 0 or r3 * r3 > 4 * r4 * bb or r1 * r1 > 4 * r0 * bb
                or m * isqrt(top) ** 2 < top):
            return
        lo = isqrt((top - 1) // m) + 1
        a_max, b_max, c_max = isqrt(r4), isqrt(bb), isqrt(r0)
        a_lo, b_lo, c_lo = ((lo, -b_max, -c_max) if a_max else
                            (0, lo, -c_max) if b_max else (0, 0, lo))
        pa, pb, pc = prefix[-1] if prefix else (a_max, b_max, c_max)
        vals = [(x, r0 + x * (r1 + x * (r2 + x * (r3 + x * r4))))
                for x in SAMPLE_POINTS]
        for a in range(min(a_max, pa), a_lo - 1, -1):
            for b in range(b_lo, (b_max if a < pa else min(b_max, pb)) + 1):
                c_hi = c_max if (a, b) < (pa, pb) else min(c_max, pc)
                for c in range(c_lo, c_hi + 1):
                    left -= 1
                    if left < 0:
                        return
                    for x, rx in vals:  # screened at SAMPLE_POINTS
                        if (c + b * x + a * x * x) ** 2 > rx:
                            break
                    else:
                        rec((r0 - c * c, r1 - 2 * b * c,
                             r2 - b * b - 2 * a * c, r3 - 2 * a * b,
                             r4 - a * a), prefix + [(a, b, c)])
                        if left < 0 or len(results) >= limit:
                            return

    rec(tuple(G), [])
    return results, left


def five_squares_search(F, g_max=FIVE_SQUARES_G_MAX, witness_limit=50):
    """Bounded search for the minimal g with g^2 F a sum of five squares.

    Returns a dict with status "found" (g, parts, witness count within the
    limit), "not-pos" (F fails pos_check, no decomposition exists), or
    "exhausted" (no decomposition up to g_max; the relation is c.e., so this
    is a semi-decision, not a refusal).  Degree of F is capped at 4.

    The search runs once per (F, g_max, witness_limit); every call gets its
    own copy of the result.
    """
    F = Poly.coerce(F)
    if (F.degree or 0) > 4:
        raise ValueError("search restricted to deg F <= 4")
    if not all(isinstance(c, int) for c in F.coeffs):
        raise ValueError("search restricted to integer polynomials")
    if witness_limit < 1:
        raise ValueError(f"witness limit {witness_limit} is below 1")
    res = dict(_five_squares_cached(F.coeffs, g_max, witness_limit))
    if "parts" in res:
        res["parts"] = list(res["parts"])
    return res


@lru_cache(maxsize=1 << 12)
def _five_squares_cached(coeffs, g_max, witness_limit):
    F = Poly(coeffs)
    if not pos_check(F):
        return {"status": "not-pos"}
    if F.is_zero():
        return {"status": "found", "g": 1,
                "parts": [Poly()] * 5, "count": 1, "exhausted": False}
    budget = FIVE_SQUARES_CANDIDATES_MAX
    for g in range(1, g_max + 1):
        G = [g * g * x for x in coeffs] + [0] * (5 - len(coeffs))
        found, budget = _decompositions(G, witness_limit, budget)
        if found:
            parts = found[0]
            if not five_squares_verify(g, F, parts):
                raise SelfCheckError(f"g^2 F != sum of the five squares at "
                                     f"F = {F}, g = {g}")
            return {"status": "found", "g": g, "parts": parts,
                    "count": len(found),
                    "exhausted": budget < 0 or len(found) >= witness_limit}
        if budget < 0:
            return {"status": "exhausted", "g_max": g - 1}
    return {"status": "exhausted", "g_max": g_max}


# -- Par ----------------------------------------------------------------------


class ParTuple:
    __slots__ = ("n", "b", "c", "d", "g", "v")

    def __init__(self, n, b, c, d, g, v):
        self.n, self.b, self.c, self.d, self.g, self.v = n, b, c, d, g, v

    def to_dict(self):
        return {"n": self.n, "b": self.b, "c": self.c, "d": self.d,
                "g": self.g, "v": self.v}


@lru_cache(maxsize=1 << 10)
def _par_core(n):
    """P_n, d, Y_{d+2} and the Pos target Y_{d+2}^2 + c - P_n^2 - 1 less c."""
    P = theta(n)
    d = P.degree if P.degree is not None else 0  # zero polynomial: degree 0
    Y = pell_pair(T, d + 2).g
    base = Y * Y - P * P - 1
    return P, d, Y, base


def minimal_c(n):
    """Smallest positive c with Pos(Y_{d+2}^2 + c - P_n^2 - 1).  The base
    has even degree 2d + 2 > 2 deg P_n and a positive lead, so some c holds,
    and Pos(base + c) is monotone in c: double c until Pos holds, bisect."""
    _, _, _, base = _par_core(n)
    lo, hi = 0, 1  # lo = 0 or Pos fails at lo
    while not pos_check(base + hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pos_check(base + mid) else (mid, hi)
    return hi


def make_par_tuple(n):
    """The canonical accepting Par tuple for index n.

    g comes from the bounded five-squares search when the Pos target has
    degree <= 4; otherwise g = 1 with condition (5) recorded as semi-decided
    by par_eval.  Only g is read, so the search stops at the first
    decomposition, which is the one the default witness limit reports.
    """
    P, d, Y, base = _par_core(n)
    c = minimal_c(n)
    target = base + c
    g = 1
    if (target.degree or 0) <= 4:
        res = five_squares_search(target, witness_limit=1)
        if res["status"] == "found":
            g = res["g"]
    b = max(Y(x) for x in range(0, d + 1))
    v = P(2 * b + 2 * c + d)
    return ParTuple(n, b, c, d, g, v)


def par_eval(t):
    """Verdict for a Par tuple with a per-condition breakdown.

    Condition values are True, False, or "semi-decided" (condition (5) when
    the bounded five-squares search exhausts).  The verdict is "accepted"
    when no condition is False.
    """
    conds = {}
    ok_types = all(
        isinstance(x, int) for x in (t.n, t.b, t.c, t.d, t.g, t.v)
    )
    conds["1-index"] = ok_types and t.n >= 1
    conds["2-signs"] = ok_types and min(t.n, t.b, t.c, t.d, t.g) >= 0
    if not (conds["1-index"] and conds["2-signs"]):
        return {"verdict": "invalid", "conditions": conds}
    P, d, Y, base = _par_core(t.n)
    conds["3-degree"] = t.d == d
    target = base + t.c
    conds["4-c-minimal"] = (
        t.c >= 1
        and pos_check(target)
        and (t.c == 1 or not pos_check(base + (t.c - 1)))
    )
    res = (five_squares_search(target, witness_limit=1)
           if (target.degree or 0) <= 4 else {"status": "degree-above-4"})
    conds["5-g-minimal"] = (t.g == res["g"] if res["status"] == "found"
                            else "semi-decided")
    conds["6-b-bound"] = all(Y(x) <= t.b for x in range(0, t.d + 1))
    conds["7-value"] = P(2 * t.b + 2 * t.c + t.d) == t.v
    verdict = "accepted" if all(
        v is True or v == "semi-decided" for v in conds.values()
    ) else "refuted"
    return {"verdict": verdict, "conditions": conds}


def reconstruct_check(F, t):
    """Whether F passes the reconstruction conditions against the tuple t.

    Accepts iff Pos(Y_{d+2}^2 + c - F^2 - 1) holds and F(2b+2c+d) = v.
    Acceptance forces F = P_{t.n}.  par_eval judges each tuple once, however
    many F are checked against it.
    """
    if not _par_accepted(t.n, t.b, t.c, t.d, t.g, t.v):
        raise ValueError("tuple not accepted by par_eval")
    F = Poly.coerce(F)
    _, _, Y, _ = _par_core(t.n)  # par_eval required t.d == d
    target = Y * Y + t.c - F * F - 1
    pos_ok = pos_check(target)
    value_ok = F(2 * t.b + 2 * t.c + t.d) == t.v
    return {
        "pos": pos_ok,
        "value": value_ok,
        "accepted": pos_ok and value_ok,
    }


@lru_cache(maxsize=1 << 10, typed=True)
def _par_accepted(*fields):
    return par_eval(ParTuple(*fields))["verdict"] == "accepted"
