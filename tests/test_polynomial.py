from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diobench.polynomial import (
    ONE,
    Poly,
    QuadExt,
    T,
    cauchy_bound,
    format_poly,
    parse_poly,
    poly_gcd,
    real_root_count,
    resultant,
    sturm_chain,
)

small_polys = st.builds(
    Poly, st.lists(st.integers(-9, 9), min_size=0, max_size=6)
)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())
# integer and rational coefficients mixed, so division runs in Z, in Q, or
# switches between them step by step
rat_polys = st.builds(Poly, st.lists(
    st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6)),
    min_size=0, max_size=6,
))
nonzero_rat_polys = rat_polys.filter(lambda p: not p.is_zero())
# divisor leads 2 and 3 divide some dividend coefficients but not others
SWITCHING = [
    (Poly([1, 3, 4, 6]), Poly([1, 2])),        # Z, then Q
    (Poly([0, 0, 4, 3]), Poly([1, 0, 2])),     # Q, then Z
    (Poly([5, 9, 8, 1, 6]), Poly([1, 0, 3])),  # Z, Q, Z
    (Poly([Fraction(1, 2), 4, 6]), Poly([1, 2])),
]


def test_construction_and_basics():
    p = Poly([1, 0, Fraction(2, 1)])  # denominator-1 fractions collapse
    assert p.coeffs == (1, 0, 2)
    assert all(isinstance(c, int) for c in p.coeffs)
    assert Poly([0, 0]).is_zero() and Poly([0]).degree is None
    assert (T * T + 1).degree == 2 and (T + 1).lead() == 1
    assert Poly.monomial(3, 5) == 5 * T**3


@given(a=small_polys, b=small_polys, c=small_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


def test_power_by_squaring(monkeypatch):
    """p ** n multiplies no initial 1 and squares nothing past its top bit,
    and equals repeated multiplication."""
    for p in (T + 1, Poly([Fraction(1, 2), -3, 2]), Poly(), Poly([7])):
        product = ONE
        for n in range(13):
            assert p**n == product, (p, n)
            product = product * p
    products = []
    right = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__",
                        lambda a, b: products.append(1) or right(a, b))
    counts = []
    for n in (2, 3, 4, 8):
        products.clear()
        (T + 1) ** n
        counts.append(len(products))
    assert counts == [1, 2, 2, 3]
    with pytest.raises(ValueError):
        T ** -1


def _switching(test):
    for a, b in SWITCHING:
        test = example(a=a, b=b)(test)
    return test


@given(a=rat_polys, b=nonzero_rat_polys)
@_switching
def test_divmod_law(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@given(a=rat_polys, b=nonzero_rat_polys)
@example(a=Poly([0, 2, 13, 6]), b=Poly([4, 2]))  # divides; Z, then Q
@_switching
def test_divides_iff_zero_remainder(a, b):
    assert b.divides(a) == (a % b).is_zero()
    if b.divides(a) and not a.is_zero():
        assert a.exact_div(b) * b == a


def test_compose_truncate():
    p = T * T + 2 * T + 3
    assert p.compose(T - 1) == T * T + 2
    assert p.truncate(2) == 2 * T + 3
    assert p.derivative() == 2 * T + 2


@given(p=small_polys)
def test_parse_format_round_trip(p):
    assert parse_poly(format_poly(p)) == p


def test_parse_corner_cases():
    assert parse_poly("+T") == T
    assert parse_poly("-T^2 + 1") == -T * T + 1
    assert parse_poly("0") == Poly()
    with pytest.raises(ValueError):
        parse_poly("T + x")


def test_gcd_and_resultant():
    a = (T - 1) * (T + 2)
    b = (T - 1) * (T - 3)
    assert poly_gcd(a, b) == T - 1
    # Res(T^2 - 1, T - 2) = product of (root - 2) times lead powers
    assert resultant(T * T - 1, T - 2) == 3
    assert resultant(T * T + 1, T * T - 1) == 4
    assert resultant(T * T + 1, T - 1) == 2


def euclid_gcd(a, b):
    """A gcd of a and b over Q by Euclid's algorithm, remainders by `%`: the
    reference for the library's primitive remainder sequence."""
    while not b.is_zero():
        a, b = b, a % b
    return a


@given(a=rat_polys, b=rat_polys, c=rat_polys)
@example(a=2 * T + 1, b=Poly([Fraction(1, 3)]), c=(T - 1) * Fraction(3, 2))
@settings(max_examples=150, deadline=None)
def test_poly_gcd_is_primitive_and_divides(a, b, c):
    # a*c and b*c share c, so the gcd is often nonconstant
    for x, y in ((a, b), (a * c, b * c)):
        g = poly_gcd(x, y)
        assert g.degree == euclid_gcd(x, y).degree
        if g.is_zero():
            continue
        assert (x % g).is_zero() and (y % g).is_zero()
        assert all(type(k) is int for k in g.coeffs)
        assert g.lead() > 0 and gcd(*g.coeffs) == 1


@given(a=nonzero_polys, b=nonzero_polys)
@settings(max_examples=100)
def test_resultant_zero_iff_common_factor(a, b):
    common = poly_gcd(a, b).degree
    assert (resultant(a, b) == 0) == (common is not None and common > 0)


def sylvester_resultant(a, b):
    """Res(a, b) as the determinant of the Sylvester matrix, by Gaussian
    elimination over Fraction: the reference for the library's remainder
    sequence.  0 if a or b is zero; the empty matrix of two constants has
    determinant 1."""
    if a.is_zero() or b.is_zero():
        return 0
    m, n = a.degree, b.degree
    rows = [[0] * i + list(reversed(p.coeffs)) + [0] * (k - 1 - i)
            for p, k in ((a, n), (b, m)) for i in range(k)]
    rows = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(m + n):
        pivot = next((i for i in range(col, m + n) if rows[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for i in range(col + 1, m + n):
            f = rows[i][col] / rows[col][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return det


@given(a=rat_polys, b=rat_polys)
@example(a=T + 1, b=T**3 - 2)
@example(a=Poly([Fraction(2, 3)]), b=T * T - Fraction(1, 2) * T + 5)
@example(a=2 * T - 2, b=(T - 1) * (T * T + Fraction(3, 2)))
@example(a=Fraction(1, 2) * T - 3, b=2 * T**4 + Fraction(5, 3) * T + 1)
@settings(max_examples=200, deadline=None)
def test_resultant_matches_sylvester_determinant(a, b):
    got = resultant(a, b)
    assert got == sylvester_resultant(a, b)
    # an int when the value is integral, a Fraction otherwise
    assert type(got) is (int if Fraction(got).denominator == 1
                         else Fraction)


def test_real_root_count():
    assert real_root_count(T * T + 1) == 0
    assert real_root_count((T - 1) * (T - 2) * (T * T + 1)) == 2
    assert real_root_count(Poly([1])) == 0
    assert real_root_count(T**3 - T) == 3


def fraction_sturm_chain(p):
    """The Sturm chain p, p', -(p mod p'), ... of p over Q, each member an
    ascending list of Fractions, by plain long division: the reference for
    the library's fraction-free chain."""
    a = [Fraction(c) for c in p.coeffs]
    b = [i * c for i, c in enumerate(a)][1:]
    chain = [a]
    while b:
        chain.append(b)
        r = list(a)
        while len(r) >= len(b):
            q = r[-1] / b[-1]
            for i, x in enumerate(b):
                r[len(r) - len(b) + i] -= q * x
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        a, b = b, [-x for x in r]
    return chain


def _sign_changes(values):
    signs = [v > 0 for v in values if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def fraction_root_count(p):
    """Distinct real roots of a nonzero p: the sign changes of its Fraction
    Sturm chain at -oo less those at +oo, read off leads and degrees."""
    chain = fraction_sturm_chain(p)
    return (_sign_changes([q[-1] if len(q) % 2 else -q[-1] for q in chain])
            - _sign_changes([q[-1] for q in chain]))


def _sturm_count(p, lo, hi):
    """Distinct real roots of p in (lo, hi], from the sign changes of its
    Fraction Sturm chain at the two ends."""
    chain = fraction_sturm_chain(p)

    def changes(x):
        return _sign_changes([sum(c * x**i for i, c in enumerate(q))
                              for q in chain])
    return changes(lo) - changes(hi)


@given(p=rat_polys)
@example(p=(T * T - 1) ** 2 * (2 * T + 1))  # gcd(p, p') of degree 1
@example(p=Poly([Fraction(1, 2), Fraction(-1, 3), Fraction(1, 6)]))
@settings(max_examples=200, deadline=None)
def test_sturm_chain_is_a_positive_multiple_of_the_euclid_chain(p):
    chain = sturm_chain(p)
    ref = fraction_sturm_chain(p)
    assert len(chain) == len(ref)
    for q, r in zip(chain, ref):
        assert all(type(c) is int for c in q.coeffs)
        if not r:
            assert q.is_zero()
            continue
        ratio = q.lead() / r[-1]
        assert ratio > 0 and q == Poly([ratio * c for c in r])


@given(a=nonzero_rat_polys, b=nonzero_rat_polys, k=st.integers(2, 3))
@example(a=T * T - 1, b=2 * T + 1, k=2)  # roots -1, 1 twice, -1/2 once
@settings(max_examples=100, deadline=None)
def test_real_root_count_agrees_with_sturm_count_at_bound(a, b, k):
    # a^k * b has a repeated factor whenever a is nonconstant
    for p in (a, a**k * b):
        bound = cauchy_bound(p)
        assert real_root_count(p) == _sturm_count(p, -bound, bound)


def test_cauchy_bound_contains_roots():
    p = (T - 5) * (T + 7) * (2 * T - 1)
    b = cauchy_bound(p)
    assert b >= 7


def quad_power(x, n):
    """x^n by repeated multiplication; conj(x)^|n| for n < 0, which is
    x^n when x has norm 1."""
    if n < 0:
        x, n = x.conj(), -n
    power = QuadExt(1, 0, x.D)
    for _ in range(n):
        power = power * x
    return power


def test_quadext_arithmetic():
    D = T * T - 1
    eps = QuadExt(T, -1, D)  # T - sqrt(D)
    assert eps.norm() == ONE
    assert eps * eps.conj() == QuadExt(1, 0, D)
    cube = eps * eps * eps
    assert cube.u == 4 * T**3 - 3 * T and cube.w == -(4 * T * T - 1)
    assert quad_power(eps, 5).exact_div(eps * eps) == cube
    e1, z = eps - QuadExt(1, 0, D), quad_power(eps, 4) - QuadExt(1, 0, D)
    assert e1 * z.exact_div(e1) == z


D1 = T * T - 1
EPS = QuadExt(T, -1, D1)  # the eps at a = T
EPS2 = QuadExt(2 * T, -1, 4 * T * T - 1)  # the eps at a = 2T
QUAD_DIVISORS = [
    EPS - QuadExt(1, 0, D1),
    EPS - QuadExt(3, 0, D1),
    EPS2 - QuadExt(1, 0, EPS2.D),
    EPS2,  # a unit: it divides everything
]
quad_coeffs = st.lists(
    st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=4)),
    min_size=0, max_size=4,
)


def _quad(den, u, w):
    return QuadExt(Poly(u), Poly(w), den.D)


@given(k=st.integers(0, len(QUAD_DIVISORS) - 1), xu=quad_coeffs,
       xw=quad_coeffs, yu=quad_coeffs, yw=quad_coeffs,
       c=st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=4)))
@settings(max_examples=150, deadline=None)
def test_quadext_exact_div_succeeds_iff_the_norm_divides(k, xu, xw, yu, yw,
                                                        c):
    """z / den succeeds exactly when N(den) divides both components of
    z * conj(den), the definition of den | z, and then den times the
    quotient is z."""
    den = QUAD_DIVISORS[k]
    x, y = _quad(den, xu, xw), _quad(den, yu, yw)
    nm = den.norm()
    for z in (x, den * y, den * y + c * x):
        prod = z * den.conj()
        if nm.divides(prod.u) and nm.divides(prod.w):
            assert den * z.exact_div(den) == z
        else:
            with pytest.raises(ValueError):
                z.exact_div(den)
