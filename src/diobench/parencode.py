"""Effective indexing of Z[T], the Pos relation, bounded five-squares
decompositions, the Par relation, and the reconstruction harness
(ground field Q, r = 1, alpha_1 = 1).

The indexing theta is a fixed bijection from positive integers onto Z[T]
(bijective binary run-lengths + zigzag signs); the scheme is documented
bit-for-bit in docs/theta-scheme.md.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from diobench import SelfCheckError
from diobench.pellpairs import pell_pair
from diobench.polynomial import (
    Poly,
    T,
    chain_root_count,
    real_root_count,
    squarefree_decomposition,
    sturm_chain,
)

# Small integers where Pos looks for a negative value before any Sturm work,
# and where the five-squares search bounds its remainders and parts.
SAMPLE_POINTS = (0, 1, -1, 2, -2, 3, -3)

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
    odd multiplicity (squarefree factors of odd multiplicity must have Sturm
    count 0).  A negative value at one of SAMPLE_POINTS refutes Pos first;
    otherwise one Sturm chain of F decides it unless F has a repeated factor
    and a real root.  Each polynomial is decided once.
    """
    return _pos_cached(Poly.coerce(F).coeffs)


@lru_cache(maxsize=1 << 14)
def _pos_cached(coeffs):
    F = Poly(coeffs)
    if F.is_zero():
        return True
    if F.degree % 2 or F.lead() < 0:
        return False
    if F.degree == 0:
        return True
    if any(F(x) < 0 for x in SAMPLE_POINTS):
        return False
    chain = sturm_chain(F)
    if chain_root_count(chain) == 0:
        return True
    if chain[-1].degree == 0:
        return False  # squarefree, so a real root is a sign change
    # a repeated factor: only roots of odd multiplicity change the sign
    for factor, mult in squarefree_decomposition(F):
        if mult % 2 and real_root_count(factor) > 0:
            return False
    return True


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


def _decompositions(G, k, limit):
    """Canonical non-increasing 5-tuples of integer polynomials of degree
    <= k (k <= 2) whose squares sum to G.

    Parts are enumerated coefficientwise from the top: the degree-2k
    coefficient of the running remainder is a sum of squares of the parts'
    top coefficients, so each top coefficient is bounded by its square
    root; middle coefficients are bounded through values at small points.
    """
    if k > 2:
        raise ValueError("search restricted to parts of degree <= 2")
    results = []

    def rec(R, prefix, prev_key):
        if len(results) >= limit:
            return
        if R.is_zero():
            results.append(prefix + [Poly()] * (5 - len(prefix)))
            return
        if len(prefix) == 5:
            return
        if R.degree % 2 or R.lead() < 0:
            return
        vals = {}
        for x in SAMPLE_POINTS:
            rx = R(x)
            if rx < 0:
                return
            vals[x] = rx
        m = 5 - len(prefix)
        a_max = isqrt(R[4]) if k == 2 else 0
        c_max = isqrt(vals[0])
        if k == 2:
            b_max = (isqrt(vals[1]) + isqrt(vals[-1])) // 2
        else:
            b_max = isqrt(R[2]) if k >= 1 else 0
        # the next part is the largest remaining one, so m copies of its
        # top coefficient squared must reach the top coefficient of R
        top = R[4] if k == 2 else (R[2] if k == 1 else R[0])
        a_lo = 0
        while m * a_lo * a_lo < top:
            a_lo += 1
        a_rng = range(a_max, a_lo - 1, -1) if k == 2 else range(0, 1)
        for a in a_rng:
            for b in range(-b_max, b_max + 1):
                if a == 0 and b < 0:
                    continue  # canonical sign: leading coefficient > 0
                if k == 1 and b < a_lo:
                    continue
                for c in range(-c_max, c_max + 1):
                    if a == 0 and b == 0 and c <= 0:
                        continue
                    if k == 0 and c < a_lo:
                        continue
                    # the sign rules leave a positive lead, so the part's
                    # key (degree, then coefficients from the top down) is
                    # read off (a, b, c) without normalizing its sign
                    if a:
                        key = (3, (a, b, c))
                    elif b:
                        key = (2, (b, c))
                    else:
                        key = (1, (c,))
                    if key > prev_key:
                        continue
                    if any((c + b * x + a * x * x) ** 2 > rx
                           for x, rx in vals.items()):
                        continue
                    cand = Poly([c, b, a])
                    rec(R - cand * cand, prefix + [cand], key)
                    if len(results) >= limit:
                        return

    rec(G, [], (k + 2, ()))
    return results


def five_squares_search(F, g_max=4, witness_limit=50):
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
    k = F.degree // 2
    for g in range(1, g_max + 1):
        G = g * g * F
        found = _decompositions(G, k, witness_limit)
        if found:
            parts = found[0]
            if not five_squares_verify(g, F, parts):
                raise SelfCheckError(f"g^2 F != sum of the five squares at "
                                     f"F = {F}, g = {g}")
            return {"status": "found", "g": g, "parts": parts,
                    "count": len(found),
                    "exhausted": len(found) >= witness_limit}
    return {"status": "exhausted", "g_max": g_max}


# -- Par ----------------------------------------------------------------------


@dataclass
class ParTuple:
    n: int
    b: int
    c: int
    d: int
    g: int
    v: int

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
    if (target.degree or 0) <= 4:
        res = five_squares_search(target, witness_limit=1)
        if res["status"] == "found":
            conds["5-g-minimal"] = t.g == res["g"]
        else:
            conds["5-g-minimal"] = "semi-decided"
    else:
        conds["5-g-minimal"] = "semi-decided"
    conds["6-b-bound"] = all(Y(x) <= t.b for x in range(0, t.d + 1))
    conds["7-value"] = P(2 * t.b + 2 * t.c + t.d) == t.v
    verdict = "accepted" if all(
        v is True or v == "semi-decided" for v in conds.values()
    ) else "refuted"
    return {"verdict": verdict, "conditions": conds}


def reconstruct_check(F, t):
    """Whether F passes the reconstruction conditions against the tuple t.

    Accepts iff Pos(Y_{d+2}^2 + c - F^2 - 1) holds and F(2b+2c+d) = v.
    Acceptance forces F = P_{t.n}.
    """
    ev = par_eval(t)
    if ev["verdict"] != "accepted":
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
