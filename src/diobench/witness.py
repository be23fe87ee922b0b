"""Diophantine definition systems as executable witness verifiers.

Desk instantiation: K = Q(t), S = {pole of t}, O = Q[t], a = t;
eps = a - sqrt(a^2 - 1) generates the Pell solution group.

Each system reports accepted / refuted (/ refuted-to-bound N for co-c.e.
refusals) together with the witness tuples found and a fold count.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from diobench import SelfCheckError
from diobench.pellpairs import epsilon, is_pell_solution, pell_pair
from diobench.polynomial import Poly, QuadExt, T


class WitnessReport:
    __slots__ = ("system", "input", "verdict", "witnesses", "bound", "notes")

    def __init__(self, system, input, verdict, witnesses=None, bound=None,
                 notes=""):
        # verdict: "accepted" | "refuted" | "refuted-to-bound" | "invalid"
        self.system, self.input, self.verdict = system, input, verdict
        self.witnesses = [] if witnesses is None else witnesses
        self.bound, self.notes = bound, notes

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


class DeskInstantiation(namedtuple("DeskInstantiation", "a")):
    __slots__ = ()

    def __new__(cls, a=T):
        if a.degree is None or a.degree < 1:
            raise ValueError("a must be nonconstant (pole at the place)")
        return super().__new__(cls, a)


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

    Acceptance: some n in [0, bound] and sign with (eps - 1) | (q_n -+ c),
    where q_n = (eps^n - 1)/(eps - 1) = 1 + eps + ... + eps^(n-1); the
    witness is (n, sign, f, g) with eps^n = f - sqrt(a^2 - 1) g.  Only a
    constant c is tested; any other c is refuted to the bound.

    By Taylor's formula at 1, P(eps) = P(1) + (eps - 1) R(eps) for P in
    Q[X], so (eps - 1) | (q_n -+ c) exactly when (eps - 1) | (n -+ c).
    eps - 1 is no unit, since its norm 2 - 2a is nonconstant, so it divides
    the constant n -+ c only when that is 0.  An integer c with |c| <= bound
    thus has exactly one witness, n = |c| with the sign of c (+ at c = 0),
    read off c directly, and every other c has none (single-fold).  The
    quotient (q_n - n)/(eps - 1) = y_n is built by exact division, which
    checks the witness in the ring.
    """
    c = Poly.coerce(c)
    witnesses = []
    cv = c.constant()
    if c.is_constant() and type(cv) is int and abs(cv) <= bound:
        n = abs(cv)
        _y(desk.a.coeffs, n)  # checks (eps - 1) | (q_n - n) in the ring
        pair = pell_pair(desk.a, n)
        witnesses.append((n, -1 if cv < 0 else 1, pair.f, pair.g))
    verdict = "accepted" if witnesses else "refuted-to-bound"
    return WitnessReport("singlefold-int", (c,), verdict,
                         witnesses=witnesses, bound=bound)


def exp_system(b, c, d, bound=None, desk=DESK):
    """|c| = |b|^|d| for integers, single-fold up to witness values.

    Witness (n, s1, s2) with the quotients x and y:
    (eps - b) x = eps^n + s1*c and (eps - 1)^2 y = d(eps - 1) + s2(eps^n - 1).

    By Taylor's formula at beta, P(eps) = P(beta) + P'(beta)(eps - beta)
    + (eps - beta)^2 R(eps) for P in Z[X].  eps - beta is no unit for
    beta != 0, since its norm beta^2 - 2a*beta + 1 is nonconstant, so
    (eps - beta) | P(eps) exactly when P(beta) = 0, and
    (eps - beta)^2 | P(eps) exactly when P(beta) = P'(beta) = 0.  The first
    relation thus holds exactly when s1*c = -b^n, which b != 0 makes
    nonzero, so at most one s1.  The second has P(1) = 0 and
    P'(1) = d + s2*n, so n = |d| and s2 = -sgn d; d = 0 admits both s2,
    both give y = 0, and the first, s2 = 1, is the witness.  Then
    x = (eps^n - b^n)/(eps - b) and y = s2*y_n, each built once by exact
    division, which checks the witness in the ring.
    """
    b, c, d = int(b), int(c), int(d)
    if b == 0:
        raise ValueError("base b must be nonzero")
    n = abs(d)
    if bound is not None and n > bound:
        return WitnessReport("exp", (b, c, d), "refuted-to-bound", bound=bound)
    v = b**n
    if abs(c) != abs(v):
        return WitnessReport("exp", (b, c, d), "refuted")
    s1 = -1 if c == v else 1
    s2 = -1 if d > 0 else 1
    x, y = _x(desk.a.coeffs, b, n), s2 * _y(desk.a.coeffs, n)
    pair = pell_pair(desk.a, n)
    witness = (n, s1, s2, pair.f, -pair.g, x.u, x.w, y.u, y.w)
    return WitnessReport("exp", (b, c, d), "accepted", witnesses=[witness])


@lru_cache(maxsize=1 << 8)
def _x(a_coeffs, b, n):
    """x = (eps^n - b^n)/(eps - b) for eps at a."""
    eps = _eps(a_coeffs)
    return _quotient(_eps_power(eps, n) - b**n, eps - b,
                     f"eps - b does not divide eps^{n} - b^{n} at "
                     f"a = {eps.u}, b = {b}")


@lru_cache(maxsize=1 << 8)
def _y(a_coeffs, n):
    """y_n = (eps^n - 1 - n(eps - 1))/(eps - 1)^2 for eps at a."""
    eps = _eps(a_coeffs)
    e1 = eps - 1
    return _quotient(_eps_power(eps, n) - 1 - n * e1, e1 * e1,
                     f"(eps - 1)^2 does not divide eps^{n} - 1 - {n}(eps - 1) "
                     f"at a = {eps.u}")


def _eps_power(eps, n):
    """eps^n = f_n - sqrt(D) g_n, read off the Pell pair at eps.u, n >= 0."""
    pair = pell_pair(eps.u, n)
    return QuadExt(pair.f, -pair.g, eps.D)


def _quotient(num, den, failure):
    """num / den by one exact division, or SelfCheckError(failure) when the
    remainder is not zero: the relation of an accepted witness fails."""
    try:
        return num.exact_div(den)
    except ValueError:
        raise SelfCheckError(failure) from None


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


def _reduce(x, M):
    """x with both components reduced modulo the polynomial M."""
    return QuadExt(x.u % M, x.w % M, x.D)


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
