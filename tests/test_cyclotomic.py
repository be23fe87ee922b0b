import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from diobench.cyclotomic import (
    CycloProductSpec,
    appendix_checks,
    approx_point,
    congruence_profile,
    cyclotomic,
    cyclotomic_mod,
    find_special_congruent,
    forweak_approx,
    special_form,
)
from diobench.intarith import euler_phi
from diobench.polynomial import Poly, T

_x = sympy.symbols("x")


def _sympy_phi(n):
    return Poly([int(c) for c in reversed(
        sympy.Poly(sympy.cyclotomic_poly(n, _x), _x).all_coeffs()
    )])


# truncation orders B for cyclotomic_mod; each n also adds deg Phi_n + 2
TRUNCATIONS = (1, 2, 3, 7, 16, 50)


def _check_against_sympy(n):
    phi = _sympy_phi(n)
    assert cyclotomic(n) == phi, n
    for B in TRUNCATIONS + (phi.degree + 2,):
        assert cyclotomic_mod(n, B) == phi.truncate(B), (n, B)


# 420 = 2^2*3*5*7, 546 = 2*3*7*13, 1092 = 2^2*3*7*13 and 2310 = 2*3*5*7*11
# have many factors 1 - T^d; 105 is the first n with a coefficient -2
@pytest.mark.parametrize("n", [1, 2, 6, 12, 30, 105, 128, 255,
                               420, 546, 1092, 2310])
def test_cyclotomic_matches_sympy(n):
    _check_against_sympy(n)


def test_every_cyclotomic_up_to_300_matches_sympy():
    for n in range(1, 301):
        _check_against_sympy(n)


def test_cyclotomic_basics():
    assert cyclotomic(1) == T - 1
    assert cyclotomic(2) == T + 1
    assert cyclotomic(12) == T**4 - T * T + 1
    assert cyclotomic(105)[7] == -2  # first index with a coefficient != 0,+-1
    assert cyclotomic(9)(1) == 3
    with pytest.raises(ValueError):
        cyclotomic(0)


@given(n=st.integers(2, 400), B=st.integers(1, 20))
# A cold Phi_n for n near 400 takes about 0.3 s and its re-run hits the
# lru_cache, so a deadline would fail by timing and by test order.
@settings(max_examples=150, deadline=None)
def test_cyclotomic_mod_truncation(n, B):
    assert cyclotomic_mod(n, B) == cyclotomic(n).truncate(B)


def test_special_form():
    sf = special_form(6)
    assert (sf.p, sf.m) == (3, 2)
    sf = special_form(20)
    assert (sf.p, sf.m) == (5, 4)
    assert special_form(15) is None  # 3 does not divide 5 - 1
    assert special_form(4) is None


def test_congruence_profile():
    # Phi_6 = 1 - T + T^2
    assert congruence_profile(6) == (1, -1)
    # Phi_20 = 1 - T^2 + T^4 - ... : d = 2, s = -1
    assert congruence_profile(20) == (2, -1)
    d, s = congruence_profile(7)
    assert (d, s) == (1, 1)  # Phi_7 = 1 + T + ...
    with pytest.raises(ValueError):
        congruence_profile(15)


@given(d=st.integers(1, 6), s=st.sampled_from([1, -1]),
       count=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_find_special_congruent(d, s, count):
    target = Poly([1] + [0] * (d - 1) + [s])
    out = [n for n, _ in find_special_congruent(d, s, count)]
    assert len(set(out)) == count
    for n in out:
        assert special_form(n) is not None
        assert cyclotomic_mod(n, 2 * d) == target.truncate(2 * d)


def test_find_special_congruent_first_indices():
    # ascending construction from the smallest fresh primes
    assert find_special_congruent(1, 1, 1) == [(2, 2)]
    assert find_special_congruent(1, -1, 1) == [(2 * 3, 3)]


def test_product_spec():
    spec = CycloProductSpec(-1, [6, 2])
    assert spec.indices == [2, 6]
    # Phi_2 * Phi_6 has degree 3, so mod T^8 the product is exact
    assert spec.expand_mod(8) == -cyclotomic(2) * cyclotomic(6)
    with pytest.raises(ValueError):
        CycloProductSpec(1, [2, 2])


def test_forweak_examples():
    spec = forweak_approx(Poly([1, 1, 1]), 3)
    assert spec.expand_mod(3) == Poly([1, 1, 1])
    spec = forweak_approx(Poly([-1, 2, 0, -3]), 4)
    assert spec.expand_mod(4) == Poly([-1, 2, 0, -3])
    with pytest.raises(ValueError):
        forweak_approx(Poly([2, 1]), 3)  # F(0) must be a unit of Z


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_forweak_random(data):
    deg = data.draw(st.integers(0, 6))
    coeffs = [data.draw(st.sampled_from([-1, 1]))] + [
        data.draw(st.sampled_from([-1, 0, 1])) for _ in range(deg)
    ]
    F = Poly(coeffs)
    d = data.draw(st.integers(1, 8))
    spec = forweak_approx(F, d)
    assert spec.expand_mod(d) == F.truncate(d)
    assert len(set(spec.indices)) == len(spec.indices)
    for n in spec.indices:
        assert special_form(n) is not None


def test_approx_point_examples():
    point = approx_point([(3, 2), (5, 1)])
    assert point.c == 26 and point.modulus == 225
    point = approx_point([(3, 2)])
    assert point.c == 8
    point = approx_point([(5, 4)])
    assert point.c == 57
    rec = point.records[0]
    assert rec["measured"] == 1 and rec["target"] == euler_phi(4)
    assert not rec["asserted"]  # m >= 3: measured only
    with pytest.raises(ValueError):
        approx_point([(3, 2), (7, 6)])  # components share the factor 2, 3


def test_appendix_checks():
    rep = appendix_checks(n_max=60, grid=30)
    assert rep["pass"]
    # the printed second clause of the divisibility lemma has this
    # counterexample; it is recorded, not asserted
    assert {"r": 6, "m": 3, "p": 2, "a": 1} in rep["clause2_counterexamples"]
    for rec in rep["pdivides"]:
        assert rec["matches_stated"]
