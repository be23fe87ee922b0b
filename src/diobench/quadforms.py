"""Local analysis of the quaternary form <1, -a, -b, ab> over Q, the
generalized Eisenstein certifier, and the xi-parameter constructors.

The form is the norm form of the quaternion algebra (a, b), so it is
isotropic at a place v exactly when the Hilbert symbol (a, b)_v is +1.
Closed-form local rules are cross-checked against a brute-force modular
oracle built on the search kernels.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from diobench import SelfCheckError
from diobench.intarith import factorize, is_prime, ord_p
from diobench.kernels import mod_scan_soluble
from diobench.polynomial import ONE, Poly, T, cauchy_bound, real_root_count

REAL = "real"


def _split(n, p):
    """n = p^alpha * u with p coprime to u; returns (alpha, u)."""
    alpha = 0
    while n % p == 0:
        n //= p
        alpha += 1
    return alpha, n


def _legendre(u, p):
    ls = pow(u % p, (p - 1) // 2, p)
    return 1 if ls == 1 else -1


def _int_rep(q):
    """Integer with the same square class as the rational q."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    return q.numerator * q.denominator


def squarefree_kernel(n):
    """Squarefree integer in the square class of n (sign kept)."""
    if n == 0:
        raise ValueError("zero has no square class")
    sign = -1 if n < 0 else 1
    out = 1
    for p, e in factorize(abs(n)).items():
        if e % 2:
            out *= p
    return sign * out


# each place a Hilbert symbol is taken at is tested once
_place_is_prime = lru_cache(maxsize=1 << 10, typed=True)(is_prime)


def hilbert_symbol(a, b, v):
    """(a, b)_v for nonzero rationals; v is a prime or \"real\"."""
    a, b = _int_rep(a), _int_rep(b)
    if a == 0 or b == 0:
        raise ValueError("arguments must be nonzero")
    if v == REAL:
        return -1 if a < 0 and b < 0 else 1
    p = v
    if not _place_is_prime(p):
        raise ValueError(f"bad place {v!r}")
    alpha, u = _split(abs(a), p)
    beta, w = _split(abs(b), p)
    u *= 1 if a > 0 else -1
    w *= 1 if b > 0 else -1
    if p != 2:
        sym = _legendre(u, p) ** beta * _legendre(w, p) ** alpha
        if alpha * beta % 2 and (p - 1) // 2 % 2:
            sym = -sym
        return sym
    eps_u, eps_w = (u - 1) // 2 % 2, (w - 1) // 2 % 2
    om_u, om_w = (u * u - 1) // 8 % 2, (w * w - 1) // 8 % 2
    e = eps_u * eps_w + alpha * om_w + beta * om_u
    return -1 if e % 2 else 1


def local_solubility_oracle(a, b, p):
    """Brute-force test for primitive solutions of z^2 = a x^2 + b y^2 mod p^k.

    Inputs are reduced to their squarefree kernels first (square factors do
    not change solubility), after which k = 3 suffices for odd p and k = 5
    for p = 2.  Each (kernel of a, kernel of b, p) is scanned once.
    """
    if a == 0 or b == 0:
        raise ValueError("arguments must be nonzero")
    return _oracle_scan(squarefree_kernel(_int_rep(a)),
                        squarefree_kernel(_int_rep(b)), p)


# bounded above the 4,056 distinct keys of the full profile's criterion 10
@lru_cache(maxsize=1 << 13)
def _oracle_scan(a, b, p):
    return mod_scan_soluble(a, b, p ** (5 if p == 2 else 3))


class FormDiagnosis:
    __slots__ = ("a", "b", "symbols", "anisotropic_places",
                 "globally_isotropic")

    def __init__(self, a, b, symbols, anisotropic_places, globally_isotropic):
        self.a, self.b, self.symbols = a, b, symbols
        self.anisotropic_places = anisotropic_places
        self.globally_isotropic = globally_isotropic

    def to_dict(self):
        return {
            "a": str(self.a),
            "b": str(self.b),
            "symbols": {
                ("real" if v == REAL else f"p:{v}"): s
                for v, s in self.symbols.items()
            },
            "anisotropic_places": [
                "real" if v == REAL else f"p:{v}"
                for v in self.anisotropic_places
            ],
            "globally_isotropic": self.globally_isotropic,
        }


def relevant_places(a, b):
    places = {2, REAL}
    for q in (a, b):
        places.update(factorize(abs(_int_rep(q))))
    return sorted(
        (v for v in places if v != REAL), key=int
    ) + [REAL]


def anisotropy_report(a, b):
    """Symbols of <1, -a, -b, ab> at all relevant places, plus the local
    special cases of the anisotropy criterion."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("arguments must be nonzero")
    symbols = {v: hilbert_symbol(a, b, v) for v in relevant_places(a, b)}
    # A product other than 1 is the caller's to report (the CLI's
    # reciprocity check).  When it is 1, a wrong symbol can still break the
    # local rule at an odd p where a is a unit.
    reciprocal = prod(symbols.values()) == 1
    for v, s in symbols.items():
        if not reciprocal or v in (REAL, 2):
            continue
        oa, ob = ord_p(a, v), ord_p(b, v)
        if oa == 0:
            au = _split(abs(_int_rep(a)), v)[1] * (1 if a > 0 else -1)
            odd_nonsquare = _legendre(au, v) == -1 and ob % 2 == 1
            if (odd_nonsquare and s != -1) or (ob % 2 == 0 and s != 1):
                raise SelfCheckError(f"({a}, {b})_{v} = {s} breaks the "
                                     f"unit rule")
    aniso = [v for v, s in symbols.items() if s == -1]
    return FormDiagnosis(a, b, symbols, aniso, not aniso)


class EisensteinCert:
    __slots__ = ("p", "m", "r", "valuations", "verdict")

    def __init__(self, p, m, r, valuations, verdict):
        self.p, self.m, self.r = p, m, r
        self.valuations, self.verdict = valuations, verdict

    def to_dict(self):
        return {"p": self.p, "m": self.m, "r": self.r,
                "valuations": [str(v) for v in self.valuations],
                "verdict": self.verdict}


def eisenstein_certify(f, p):
    """Certificate that f is irreducible over Q_p with a totally ramified
    root field: ord a_m = 0, ord a_i >= r for 0 < i < m, ord a_0 = r - 1,
    r > 1, gcd(m, r-1) = 1."""
    f = Poly.coerce(f)
    m = f.degree
    if m is None or m < 2:
        raise ValueError("degree must be >= 2")
    vals = [ord_p(f[i], p) for i in range(m + 1)]
    verdict = False
    r = None
    if vals[m] == 0 and isinstance(vals[0], int):
        r = vals[0] + 1  # pinned by ord a_0 = r - 1
        verdict = (
            r > 1
            and gcd(m, r - 1) == 1
            and all(v >= r for v in vals[1:m])
        )
    return EisensteinCert(p, m, r if verdict else None, vals, verdict)


class XiTriple:
    __slots__ = ("xi1", "xi2", "xi3")

    def __init__(self, xi1, xi2, xi3):
        self.xi1, self.xi2, self.xi3 = xi1, xi2, xi3


def _f_cubed_plus_t(f):
    f = Poly.coerce(f)
    if f.is_constant():
        raise ValueError("f must be nonconstant")
    if f.degree % 2:
        raise ValueError("degree of f must be even")
    return f**3 + Poly([0, 1])


def padic_xi_construct(f, p):
    """xi parameters making xi1*f^3 + xi2*T + xi3 Eisenstein-certified at p.

    With F = f^3 + T of degree n: r = minimal value >= 0 with
    ord_p(p^r * a_i / a_n) >= 2 for all i < n; xi1 = xi2 = p^(n r)/a_n,
    xi3 = p.  Substituting W = p^r T turns xi1*F + xi3 into a monic h(W)
    meeting the certificate with parameter 2, so the root field is totally
    ramified of even degree n.

    Returns (XiTriple, h, EisensteinCert).
    """
    F = _f_cubed_plus_t(f)
    n = F.degree
    an = Fraction(F.lead())
    r = 0
    for i in range(n):
        if F[i] == 0:
            continue
        need = 2 - ord_p(Fraction(F[i]) / an, p)
        r = max(r, need)
    xi1 = Fraction(p) ** (n * r) / an
    xi = XiTriple(xi1, xi1, Fraction(p))
    # h(W) = W^n + sum_{i<n} p^{(n-i)r} (a_i/a_n) W^i + xi3
    coeffs = [Fraction(p) ** ((n - i) * r) * Fraction(F[i]) / an
              for i in range(n)]
    coeffs[0] += xi.xi3
    h = Poly(coeffs + [1])
    cert = eisenstein_certify(h, p)
    if not (cert.verdict and cert.r == 2):
        raise SelfCheckError(f"h = {h} is not certified with r = 2 at {p}: "
                             f"{cert.to_dict()}")
    # cross-check: h(p^r T) really is xi1*f^3 + xi2*T + xi3
    if h.compose(Poly([0, Fraction(p) ** r])) != (
            xi.xi1 * (F - T) + xi.xi2 * T + xi.xi3):
        raise SelfCheckError(f"h(p^r T) != xi1 f^3 + xi2 T + xi3 at "
                             f"f = {f}, p = {p}")
    return xi, h, cert


def real_xi_construct(f):
    """xi parameters making h = xi1*f^3 + T + xi3 strictly positive on R.

    xi1 = +-1 gives a positive leading coefficient; xi3 starts at
    1 + Cauchy bound of xi1*f^3 + T and doubles until the Sturm count of h
    is 0.  The first value need not work (for 2T^2 - 3 xi3 doubles from
    35/4 to 35); the loop ends because xi1*f^3 + T, of even degree with a
    positive leading coefficient, is bounded below.
    """
    F = _f_cubed_plus_t(f)
    xi1 = Fraction(1) if F.lead() > 0 else Fraction(-1)
    base = xi1 * (F - T) + T
    xi3 = 1 + cauchy_bound(base)
    while True:
        h = base + xi3
        if real_root_count(h) == 0:
            break
        xi3 *= 2
    if h(0) <= 0:
        raise SelfCheckError(f"h = {h} is not positive at 0")
    return XiTriple(xi1, Fraction(1), xi3), h


def even_order_gate(num, den=ONE):
    """h = T g^2 + T^2 for g = num/den, and the parity verdict at the pole
    of T.

    h is kept as the pair (T num^2 + T^2 den^2, den^2).  The order at the
    infinite place is deg(den) - deg(num), which a common factor does not
    change, so neither pair is reduced.  "pass" says whether the
    biconditional  ord g >= 0  <=>  ord h even  holds.
    """
    num, den = Poly.coerce(num), Poly.coerce(den)
    if den.is_zero():
        raise ValueError("zero denominator")
    h = (T * num * num + T * T * den * den, den * den)
    ordh = _inf_order(*h)
    ordg = _inf_order(num, den)
    nonneg = ordg is None or ordg >= 0
    even = ordh % 2 == 0
    return {"h": h, "ord_g": ordg, "ord_h": ordh,
            "g_integral": nonneg, "h_even": even, "pass": nonneg == even}


def _inf_order(num, den):
    """Order of num/den at the infinite place; None for the zero function."""
    if num.is_zero():
        return None
    return den.degree - num.degree
