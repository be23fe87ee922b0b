from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diobench.polynomial import (
    ONE,
    Poly,
    QuadExt,
    T,
    cauchy_bound,
    factor_small,
    format_poly,
    parse_poly,
    poly_gcd,
    poly_mod_p,
    rational_roots,
    real_root_count,
    resultant,
    resultant_fp,
    squarefree_decomposition,
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
    assert resultant_fp(poly_mod_p(T * T + 1, 5),
                        poly_mod_p(T - 1, 5), 5) == 2


@given(a=nonzero_polys, b=nonzero_polys)
@settings(max_examples=100)
def test_resultant_zero_iff_common_factor(a, b):
    common = poly_gcd(a, b).degree
    assert (resultant(a, b) == 0) == (common is not None and common > 0)


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


def test_squarefree_decomposition():
    p = (T - 1) ** 2 * (T + 2) ** 3 * (T * T + 1)
    parts = dict(squarefree_decomposition(p))
    assert parts[(T - 1).monic()] == 2
    assert parts[(T + 2).monic()] == 3
    assert parts[(T * T + 1).monic()] == 1


def test_rational_roots():
    p = (2 * T - 1) * (T + 3) * (T * T + 1)
    assert sorted(rational_roots(p)) == [-3, Fraction(1, 2)]


def test_factor_small():
    unit, factors = factor_small((T * T + 1) * (T - 2))
    assert unit == 1
    assert sorted(f.degree for f, _ in factors) == [1, 2]
    unit, factors = factor_small(Poly([2, 4, 1]))
    assert len(factors) == 1 and factors[0][1] == 1  # irreducible
    unit, factors = factor_small(T**4 + 4)  # = (T^2-2T+2)(T^2+2T+2)
    assert sorted(f.degree for f, _ in factors) == [2, 2]
    prod = Poly([unit])
    for f, m in factors:
        prod = prod * f**m
    assert prod == T**4 + 4


def test_quadext_arithmetic():
    D = T * T - 1
    eps = QuadExt(T, -1, D)  # T - sqrt(D)
    assert eps.norm() == ONE
    assert eps * eps.conj() == QuadExt(1, 0, D)
    cube = eps**3
    assert cube.u == 4 * T**3 - 3 * T and cube.w == -(4 * T * T - 1)
    assert eps**-1 == eps.conj()  # norm-1 inversion
    assert (eps**5).exact_div(eps**2) == eps**3
    assert (eps - QuadExt(1, 0, D)).divides(eps**4 - QuadExt(1, 0, D))


D1 = T * T - 1
EPS = QuadExt(T, -1, D1)  # the eps at a = T
EPS2 = QuadExt(2 * T, -1, 4 * T * T - 1)  # the eps at a = 2T
RESIDUE_DIVISORS = [
    EPS - QuadExt(1, 0, D1),
    EPS - QuadExt(3, 0, D1),
    EPS2 - QuadExt(1, 0, EPS2.D),
    EPS2,  # a unit: every residue is zero
]
quad_coeffs = st.lists(
    st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=4)),
    min_size=0, max_size=4,
)


def _quad(den, u, w):
    return QuadExt(Poly(u), Poly(w), den.D)


@given(k=st.integers(0, len(RESIDUE_DIVISORS) - 1), xu=quad_coeffs,
       xw=quad_coeffs, yu=quad_coeffs, yw=quad_coeffs,
       c=st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=4)))
@settings(max_examples=150, deadline=None)
def test_quadext_residue_is_linear_and_decides_division(k, xu, xw, yu, yw, c):
    den = RESIDUE_DIVISORS[k]
    x, y = _quad(den, xu, xw), _quad(den, yu, yw)
    rx, ry = den.residue(x), den.residue(y)
    assert den.residue(x + c * y) == (rx[0] + c * ry[0], rx[1] + c * ry[1])
    assert den.residue(den * y) == (Poly(), Poly())
    nm = den.norm()
    for z in (x, den * y, den * y + c * x):
        zero = den.residue(z) == (Poly(), Poly())
        prod = z * den.conj()  # reference: the norm divides both components
        assert zero == (nm.divides(prod.u) and nm.divides(prod.w))
        assert den.divides(z) == zero
        if zero:
            assert den * z.exact_div(den) == z


def test_quadext_residue_needs_nonzero_norm():
    null = QuadExt(T, 1, T * T)  # norm T^2 - T^2 = 0
    with pytest.raises(ValueError):
        null.residue(QuadExt(1, 0, T * T))
    assert null.divides(QuadExt(0, 0, T * T))
    assert not null.divides(QuadExt(1, 0, T * T))


def test_poly_mod_p_takes_integers_only():
    assert poly_mod_p(T * T - 7 * T + 3, 5) == [3, 3, 1]
    assert poly_mod_p(T * T + 5 * T + 10, 5) == [0, 0, 1]
    with pytest.raises(ValueError):
        poly_mod_p(Poly([Fraction(1, 2), 1]), 5)
    for a in (5 * T * T + 1, 5 * T + 10, Poly()):  # the degree drops
        with pytest.raises(ValueError):
            poly_mod_p(a, 5)
