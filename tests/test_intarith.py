from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diobench.intarith import (
    INF,
    crt,
    euler_phi,
    factorize,
    four_squares,
    hensel_root_of_unity,
    is_prime,
    moebius,
    ord_int,
    ord_p,
    primitive_root,
    radical,
)

nonzero_rationals = st.fractions(
    min_value=-10**6, max_value=10**6
).filter(lambda q: q != 0)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)
    with pytest.raises(ValueError):
        is_prime(2**64)


def test_ord_p_examples():
    assert ord_p(651, 3) == 1
    assert ord_p(1, 5) == 0
    assert ord_p(Fraction(3, 8), 2) == -3
    assert ord_p(0, 7) is INF
    with pytest.raises(ValueError):
        ord_p(4, 6)


def test_infinity_marker():
    assert INF >= 10**100 and INF >= -1 and INF >= INF
    assert repr(INF) == "INF"


@given(x=nonzero_rationals, y=nonzero_rationals,
       p=st.sampled_from([2, 3, 5, 7, 11]))
def test_ord_p_valuation_laws(x, y, p):
    assert ord_p(x * y, p) == ord_p(x, p) + ord_p(y, p)
    if x + y != 0:
        lo = min(ord_p(x, p), ord_p(y, p))
        assert ord_p(x + y, p) >= lo
        if ord_p(x, p) != ord_p(y, p):
            assert ord_p(x + y, p) == lo


def test_factorize_and_friends():
    assert factorize(651) == {3: 1, 7: 1, 31: 1}
    assert factorize(1) == {}
    assert moebius(30) == -1 and moebius(6) == 1 and moebius(12) == 0
    assert euler_phi(1) == 1 and euler_phi(20) == 8
    assert radical(72) == 6
    # cached result must not leak mutations
    d = factorize(12)
    d[2] = 99
    assert factorize(12) == {2: 2, 3: 1}


def test_crt_examples():
    assert crt([8, 1], [9, 25]) == 26
    assert crt([0], [7]) == 0
    assert crt([8, 1], [9, 4]) == 17
    with pytest.raises(ValueError):
        crt([1, 2], [4, 6])
    with pytest.raises(ValueError):
        crt([1], [4, 9])


@given(st.data())
@settings(max_examples=100)
def test_crt_reduces_correctly(data):
    moduli = data.draw(
        st.lists(st.sampled_from([4, 9, 25, 7, 11, 13]), min_size=1,
                 max_size=3, unique=True)
    )
    residues = [data.draw(st.integers(0, m - 1)) for m in moduli]
    c = crt(residues, moduli)
    prod = 1
    for m in moduli:
        prod *= m
    assert 0 <= c < prod
    assert all(c % m == r for r, m in zip(residues, moduli))


def test_primitive_root():
    assert primitive_root(2) == 1
    assert primitive_root(7) == 3
    assert primitive_root(23) == 5


def test_hensel_examples():
    assert hensel_root_of_unity(2, 3, 2) == 8
    assert hensel_root_of_unity(4, 5, 3) == 57
    assert hensel_root_of_unity(1, 7, 2) == 1
    with pytest.raises(ValueError):
        hensel_root_of_unity(3, 5, 2)


@given(st.sampled_from([(2, 5), (4, 5), (3, 7), (6, 7), (2, 13), (4, 13),
                        (3, 13), (12, 13)]),
       st.integers(1, 4))
def test_hensel_exact_order(mp, k):
    m, p = mp
    c = hensel_root_of_unity(m, p, k)
    q = p**k
    assert pow(c, m, q) == 1
    for ell in factorize(m):
        assert pow(c, m // ell, q) != 1


def test_four_squares_examples():
    assert four_squares(0) == (0, 0, 0, 0)
    assert four_squares(7) == (2, 1, 1, 1)
    assert four_squares(30) == (5, 2, 1, 0)
    with pytest.raises(ValueError):
        four_squares(-1)


@given(st.integers(0, 10**6))
@example(2 * 4**9)  # the raw search's slow case, n = 2*4^k
@settings(max_examples=200)
def test_four_squares_verifies(n):
    sol = four_squares(n)
    assert sum(x * x for x in sol) == n
    assert list(sol) == sorted(sol, reverse=True)
