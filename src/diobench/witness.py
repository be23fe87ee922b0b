"""Diophantine definition systems as executable witness verifiers.

Desk instantiation: K = Q(t), S = {pole of t}, O = Q[t], a = t;
eps = a - sqrt(a^2 - 1) generates the Pell solution group.

Each system reports accepted / refuted (/ refuted-to-bound N for co-c.e.
refusals) together with the witness tuples found and a fold count.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from diobench import SelfCheckError
from diobench.pellpairs import epsilon, is_pell_solution, pell_pair
from diobench.polynomial import ZERO, Poly, QuadExt, T


@dataclass
class WitnessReport:
    system: str
    input: tuple
    verdict: str  # "accepted" | "refuted" | "refuted-to-bound" | "invalid"
    witnesses: list = field(default_factory=list)
    bound: int = None
    notes: str = ""

    @property
    def fold_count(self):
        return len(self.witnesses)

    @property
    def accepted(self):
        return self.verdict == "accepted"

    def to_dict(self):
        return {
            "system": self.system,
            "input": [str(v) for v in self.input],
            "verdict": self.verdict,
            "witnesses": [[str(v) for v in w] for w in self.witnesses],
            "fold_count": self.fold_count,
            "bound": self.bound,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class DeskInstantiation:
    a: Poly = T

    def __post_init__(self):
        if self.a.degree is None or self.a.degree < 1:
            raise ValueError("a must be nonconstant (pole at the place)")


@lru_cache(maxsize=1 << 6)
def _eps(a_coeffs):
    """eps at a, built once per a."""
    return epsilon(Poly(a_coeffs))


DESK = DeskInstantiation()


def constants_system(x):
    """Membership of x in the constant field, witnessed by unit inverses.

    x is accepted iff x^2 + 1 and x^2 + 2 are units of O, i.e. constants
    (both are then at least 1); the witness is the pair of inverses, which
    is uniquely determined (fold count 1).
    """
    x = Poly.coerce(x)
    inverses = []
    for v in (x * x + 1, x * x + 2):
        if not v.is_constant():
            return WitnessReport(
                "constants", (x,), "refuted",
                notes=f"{v} is not a unit of the polynomial ring",
            )
        inverses.append(1 / Fraction(v.constant()))
    return WitnessReport(
        "constants", (x,), "accepted", witnesses=[tuple(inverses)],
    )


def singlefold_int(c, bound=50, desk=DESK):
    """c is an integer constant, witnessed by a single eps-power index.

    Acceptance: some n in [0, bound] and sign with
    (eps - 1) | (q_n -+ c) where q_n = (eps^n - 1)/(eps - 1); the witness is
    (n, u, w) with eps^n = u - sqrt(a^2-1) w.  Exactly one witness exists per
    integer |c| (single-fold); non-integers are refuted to the bound.
    Divisibility is read off residues: with res(x) the components of
    x * conj(eps - 1) reduced modulo N(eps - 1), a Q-linear map, the test
    holds exactly when res(q_n) = +-c * res(1).  The residues of 1 and of
    each q_n are computed once per (a, bound) and tested against every c.
    """
    c = Poly.coerce(c)
    witnesses = []
    if c.is_constant():
        cv = c.constant()
        (one_u, one_w), ladder = _q_ladder(desk.a.coeffs, bound)
        targets = [(sign, (one_u * (sign * cv), one_w * (sign * cv)))
                   for sign in (1, -1)]
        for n, res_q in enumerate(ladder):
            for sign, target in targets:
                if res_q == target:
                    pair = pell_pair(desk.a, n)
                    witnesses.append((n, sign, pair.f, pair.g))
                    break  # both signs match only at c = 0: res(1) != 0
    verdict = "accepted" if witnesses else "refuted-to-bound"
    return WitnessReport("singlefold-int", (c,), verdict,
                         witnesses=witnesses, bound=bound)


@lru_cache(maxsize=1 << 6)
def _q_ladder(a_coeffs, bound):
    """res(1) and (res(q_0), ..., res(q_bound)) for eps at a, where
    q_n = (eps^n - 1)/(eps - 1) = eps^0 + ... + eps^(n-1) and res is
    (eps - 1).residue.

    res(x) is x * conj(eps - 1) with both components reduced modulo
    N(eps - 1), and that reduction is a ring map, so res(eps^(k+1)) is
    res(eps^k) * eps reduced and res(q_n) is the sum of the res(eps^k):
    every step costs the same whatever n is.
    """
    eps = _eps(a_coeffs)
    den = eps - QuadExt(1, 0, eps.D)
    # a constant multiple of the norm leaves every remainder as it is
    nm = den.norm().primitive_part()
    step = _reduce(eps, nm)
    res_one = den.residue(QuadExt(1, 0, eps.D))
    r = QuadExt(*res_one, eps.D)  # res(eps^n)
    q = QuadExt(0, 0, eps.D)  # res(q_n)
    ladder = []
    for _ in range(bound + 1):
        ladder.append((q.u, q.w))
        q = q + r
        r = _reduce(r * step, nm)
    return res_one, tuple(ladder)


def _reduce(x, M):
    """x with both components reduced modulo the polynomial M."""
    return QuadExt(x.u % M, x.w % M, x.D)


def exp_system(b, c, d, bound=None, desk=DESK):
    """|c| = |b|^|d| for integers, single-fold up to witness values.

    Witness (n, s1, s2): (eps - b) | (eps^n + s1*c) and
    (eps - 1)^2 | (d*(eps-1) + s2*(eps^n - 1)); n must equal |d| for the
    second relation to hold, so the search is direct.  Witnesses are
    deduplicated by the underlying ring values (u, w, x, y), which folds the
    spurious sign ambiguity at c = 0 or d = 0.  The second relation depends
    on d alone and is built once per (a, d).  The first holds for at most
    one value of s1*c, read off residues once per (a, b, n) with its
    quotient.
    """
    b, c, d = int(b), int(c), int(d)
    if b == 0:
        raise ValueError("base b must be nonzero")
    n = abs(d)
    if bound is not None and n > bound:
        return WitnessReport("exp", (b, c, d), "refuted-to-bound", bound=bound)
    eps_n, d_quots = _exp_d_relation(desk.a.coeffs, d)
    k_b, x_quot = _exp_b_relation(desk.a.coeffs, b, n)
    witnesses = []
    for s1 in (1, -1):
        if s1 * c != k_b:
            continue
        for s2, y_quot in d_quots:
            witnesses.append(
                (n, s1, s2, eps_n.u, eps_n.w, x_quot.u, x_quot.w,
                 y_quot.u, y_quot.w)
            )
    # fold by ring values: (u, w) of eps^n and the two quotients
    seen, unique = set(), []
    for w in witnesses:
        key = w[3:]
        if key not in seen:
            seen.add(key)
            unique.append(w)
    if unique:
        return WitnessReport("exp", (b, c, d), "accepted", witnesses=unique)
    return WitnessReport("exp", (b, c, d), "refuted")


@lru_cache(maxsize=1 << 8)
def _exp_b_relation(a_coeffs, b, n):
    """(k, x) with (eps - b) x = eps^n + k for eps at a, or (None, None).

    With res the Q-linear map (eps - b).residue, (eps - b) | (eps^n + k)
    exactly when res(eps^n) + k*res(1) = 0.  N(eps - b) = 1 - 2ab + b^2 is
    nonconstant for a nonconstant a and b != 0, so res(1) != 0 and at most
    one k holds: the one least squares gives.
    """
    eps = _eps(a_coeffs)
    den = eps - QuadExt(b, 0, eps.D)
    eps_n = _eps_power(eps, n)
    one, res = den.residue(QuadExt(1, 0, eps.D)), den.residue(eps_n)
    # least squares: k = -<res(eps^n), res(1)> / <res(1), res(1)>
    dot = sum(p * q for r, o in zip(res, one)
              for p, q in zip(r.coeffs, o.coeffs))
    k = -Fraction(dot, sum(q * q for o in one for q in o.coeffs))
    if any(r + k * o != ZERO for r, o in zip(res, one)):
        return None, None
    return k, (eps_n + QuadExt(k, 0, eps.D)).exact_div(den)


def _eps_power(eps, n):
    """eps^n = f_n - sqrt(D) g_n, read off the Pell pair at eps.u, n >= 0."""
    pair = pell_pair(eps.u, n)
    return QuadExt(pair.f, -pair.g, eps.D)


@lru_cache(maxsize=1 << 6)
def _exp_d_relation(a_coeffs, d):
    """The part of exp_system that depends on d alone, for eps at a: eps^|d|
    and each (s2, y) with (eps - 1)^2 y = d(eps - 1) + s2(eps^|d| - 1)."""
    eps = _eps(a_coeffs)
    one = QuadExt(1, 0, eps.D)
    eps_n = _eps_power(eps, abs(d))
    e1 = eps - one
    den2 = e1 * e1
    quots = []
    for s2 in (1, -1):
        num2 = d * e1 + s2 * (eps_n - one)
        if den2.divides(num2):
            quots.append((s2, num2.exact_div(den2)))
    return eps_n, tuple(quots)


# -- odd-integer system (seven relations at s = a*x) --------------------------


# the relations in the order the notes list them
_ODD_RELATIONS = (
    "s-nonconstant", "pell-pairs", "pell-identity", "g3-divides-g",
    "t-divides-g3g2", "t-cong-g", "ax-divides-f", "a-eq-t-over-g3",
)


def _odd_relations(a, f, g, f2, g2, f3, g3, tv):
    """Yield (name, holds) for the seven relations."""
    s = a * T  # a*x with x the polynomial variable
    if s.is_constant():
        yield "s-nonconstant", False
        return
    p2, p3 = pell_pair(s, 2), pell_pair(s, 3)
    yield "pell-pairs", (f2, g2, f3, g3) == (p2.f, p2.g, p3.f, p3.g)
    yield "a-eq-t-over-g3", a * g3 == tv
    yield "t-divides-g3g2", tv.divides(g3 * g2)
    yield "ax-divides-f", s.divides(f)
    yield "g3-divides-g", g3.divides(g)
    yield "t-cong-g", (g3 * g3).divides(tv - g)
    yield "pell-identity", is_pell_solution(f, g, s)


def odd_integer_system(r=None, tuple_=None, bound=None):
    """Constructor (r odd) or checker (full tuple) for the odd-integer system.

    Constructor: emits the canonical witness at s = r*x and verifies all
    seven relations; with a bound below its Pell index 3|r| it answers
    refuted-to-bound without building the witness.  Checker: validates an
    arbitrary tuple (a, f, g, f2, g2, f3, g3, t-var); acceptance certifies
    that a is an odd integer.  Both report every relation in their notes.
    """
    if r is not None and tuple_ is None:
        r = int(r)
        if r % 2 == 0:
            raise ValueError("r must be odd")
        m = 3 * abs(r)
        if bound is not None and m > bound:
            return WitnessReport("odd-int", (r,), "refuted-to-bound",
                                 bound=bound)
        a = Poly.const(r)
        s = a * T
        pm = pell_pair(s, m)
        f = pm.f
        g = pm.g if r > 0 else -pm.g
        p2, p3 = pell_pair(s, 2), pell_pair(s, 3)
        tv = r * p3.g
        tup = (a, f, g, p2.f, p2.g, p3.f, p3.g, tv)
        rel = dict(_odd_relations(*tup))
        ok = all(rel.values())
        return WitnessReport(
            "odd-int", (r,), "accepted" if ok else "invalid",
            witnesses=[tup] if ok else [], notes=_rel_notes(rel),
        )
    if tuple_ is not None:
        tup = tuple(Poly.coerce(v) for v in tuple_)
        if len(tup) != 8:
            raise ValueError("tuple must be (a, f, g, f2, g2, f3, g3, t)")
        rel = dict(_odd_relations(*tup))
        ok = all(rel.values())
        if ok:
            a = tup[0]
            if not (a.is_constant()
                    and type(a.constant()) is int
                    and a.constant() % 2 == 1):
                raise SelfCheckError(f"accepted tuple has a = {a}, "
                                     f"not an odd integer")
            return WitnessReport(
                "odd-int", tup, "accepted", witnesses=[tup],
                notes=f"certified odd integer a = {a.constant()}",
            )
        return WitnessReport("odd-int", tup, "refuted", notes=_rel_notes(rel))
    raise ValueError("give either r or a full witness tuple")


def odd_integer_refute(a_value, bound=15):
    """Search all witness tuples for the given a up to Pell index bound.

    The candidates +-(f_m, g_m), m = 0..bound, at s = a*x are screened on
    one walk of eps^m reduced modulo M = s*g3^2: that reduction is a ring
    map and s, g3 and g3^2 divide M, so s | f_m, g3 | g_m and
    g3^2 | t -+ g_m read the same off the reduced components, and every
    step costs the same whatever m is.  A candidate that passes the screen
    is built in full and checked by `odd_integer_system`, as any tuple is.
    """
    a = Poly.coerce(a_value)
    s = a * T
    if s.is_constant():
        return WitnessReport("odd-int", (a_value,), "refuted",
                             notes="a = 0 gives a constant Pell parameter")
    p2, p3 = pell_pair(s, 2), pell_pair(s, 3)
    g3 = p3.g
    tv = a * g3  # forced by a = t/g3
    g3_sq = g3 * g3
    # a constant multiple of M leaves every remainder as it is
    M = (s * g3_sq).primitive_part()
    eps = epsilon(s)
    step = _reduce(eps, M)
    z = QuadExt(1, 0, eps.D)  # eps^m = f_m - sqrt(s^2 - 1) g_m, reduced
    for m in range(bound + 1):
        f_m, g_m = z.u, -z.w
        if s.divides(f_m) and g3.divides(g_m):
            for sign in (1, -1):
                if not g3_sq.divides(tv - sign * g_m):
                    continue
                pm = pell_pair(s, m)
                tup = (a, sign * pm.f, sign * pm.g, p2.f, p2.g, p3.f, p3.g,
                       tv)
                if odd_integer_system(tuple_=tup).accepted:
                    return WitnessReport(
                        "odd-int", (a_value,), "accepted", witnesses=[tup],
                        bound=bound,
                    )
        z = _reduce(z * step, M)
    return WitnessReport(
        "odd-int", (a_value,), "refuted-to-bound", bound=bound,
        notes="no witness tuple up to the index bound",
    )


def _rel_notes(rel):
    bad = [k for k in _ODD_RELATIONS if k in rel and not rel[k]]
    return "all relations hold" if not bad else "failed: " + ", ".join(bad)


def nonneg_gadget(d):
    """Non-negativity of d via b = (d^4+1)^|2d| and a congruence mod d^4.

    Accepted iff 2d == (b-1)/d^4 mod d^4.  d = 0 is accepted by convention.
    Note: d = -1 gives modulus 1, so the congruence is vacuously true; the
    defined set as measured is {d >= 0} union {-1}.
    """
    d = int(d)
    if d == 0:
        return WitnessReport("nonneg", (0,), "accepted",
                             notes="d = 0 accepted by convention")
    b = (d**4 + 1) ** abs(2 * d)
    if not exp_system(d**4 + 1, b, 2 * d).accepted:
        raise SelfCheckError(f"exp system refutes b = (d^4 + 1)^|2d| "
                             f"at d = {d}")
    mod = d**4
    q = (b - 1) // mod  # exact: (mod + 1)^k == 1 mod mod, binomially
    ok = (2 * d - q) % mod == 0
    notes = ""
    if ok and d < 0:
        notes = "vacuous modulus anomaly: d = -1 slips through"
    return WitnessReport(
        "nonneg", (d,), "accepted" if ok else "refuted",
        witnesses=[(b, q % mod)] if ok else [], notes=notes,
    )
