import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diobench import cli, quadforms
from diobench.polynomial import Poly, T, real_root_count
from diobench.quadforms import (
    REAL,
    anisotropy_report,
    eisenstein_certify,
    even_order_gate,
    hilbert_symbol,
    local_solubility_oracle,
    padic_xi_construct,
    real_xi_construct,
    relevant_places,
    squarefree_kernel,
)

nonzero = st.integers(-200, 200).filter(bool)
places = st.sampled_from([2, 3, 5, 7, 11, 13, REAL])


def test_squarefree_kernel():
    assert squarefree_kernel(12) == 3
    assert squarefree_kernel(-18) == -2
    assert squarefree_kernel(49) == 1
    with pytest.raises(ValueError):
        squarefree_kernel(0)


def test_hilbert_symbol_examples():
    assert hilbert_symbol(-1, -1, REAL) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(2, 5, 5) == -1
    assert hilbert_symbol(2, 5, 2) == -1
    assert hilbert_symbol(1, 7, 7) == 1
    assert hilbert_symbol(Fraction(1, 2), 5, 5) == -1  # square-class invariant


@given(a=nonzero, b=nonzero, v=places)
@settings(max_examples=300)
def test_hilbert_symmetry_and_squares(a, b, v):
    assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
    assert hilbert_symbol(a * a, b, v) == 1 if a * a > 0 else True
    assert hilbert_symbol(a, b * b * b * b, v) == hilbert_symbol(a, 1, v)


@given(a=nonzero, b=nonzero, c=nonzero, v=places)
@settings(max_examples=200)
def test_hilbert_bimultiplicative(a, b, c, v):
    assert (hilbert_symbol(a, b * c, v)
            == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v))


@given(a=st.integers(-10, 10).filter(bool),
       b=st.integers(-10, 10).filter(bool),
       p=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19]))
@settings(max_examples=150, deadline=None)
def test_symbol_agrees_with_oracle(a, b, p):
    assert hilbert_symbol(a, b, p) == local_solubility_oracle(a, b, p)


@given(a=nonzero, b=nonzero)
@settings(max_examples=300)
def test_reciprocity(a, b):
    prod = 1
    for v in relevant_places(a, b):
        prod *= hilbert_symbol(a, b, v)
    assert prod == 1


def test_anisotropy_report():
    diag = anisotropy_report(2, 5)
    assert diag.anisotropic_places == [2, 5]
    assert not diag.globally_isotropic
    diag = anisotropy_report(1, 7)
    assert diag.globally_isotropic
    diag = anisotropy_report(-1, -1)
    assert 2 in diag.anisotropic_places and REAL in diag.anisotropic_places


def test_eisenstein_certify():
    assert eisenstein_certify(Poly([2, 4, 1]), 2).verdict  # classic shape
    cert = eisenstein_certify(Poly([3, 9, 0, 1]), 3)
    assert cert.verdict and cert.r == 2
    assert not eisenstein_certify(Poly([1, 1, 1]), 3).verdict
    assert not eisenstein_certify(Poly([4, 4, 1]), 2).verdict  # ord a0 = 2
    # gcd(m, r-1) = 1 violation: m = 2, r = 3 -> gcd fine; m = 4, r = 3
    assert not eisenstein_certify(
        Poly([9, 27, 27, 27, 1]), 3
    ).verdict


def test_padic_xi_construct():
    xi, h, cert = padic_xi_construct(T * T, 3)
    assert xi.xi1 == 3**12 and xi.xi3 == 3
    assert h == Poly([3, 3**10] + [0] * 4 + [1])
    assert cert.verdict and cert.r == 2
    # h is xi1*(f^3 + T) + xi3 under W = p^2 T
    assert h.compose(9 * T) == 3**12 * (T**6 + T) + 3
    for f in (T * T + 1, T * T + T + 1):
        for p in (2, 5):
            _, _, cert = padic_xi_construct(f, p)
            assert cert.verdict


@pytest.mark.parametrize("f", [T * T, T * T + 1, T * T + T + 1,
                               2 * T**4 + 3, Poly([1, 0, 3])])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_padic_xi_triple_rebuilds_h(f, p):
    """h(p^r T) = xi1*f^3 + xi2*T + xi3, with p^r read off xi1 = p^(n r)/a_n
    for n = deg f^3."""
    xi, h, _ = padic_xi_construct(f, p)
    n, an = 3 * f.degree, f.lead() ** 3
    rs = [r for r in range(8) if Fraction(p) ** (n * r) / an == xi.xi1]
    assert len(rs) == 1
    r = rs[0]
    assert h.compose(Poly([0, Fraction(p) ** r])) == (
        xi.xi1 * f**3 + xi.xi2 * T + xi.xi3)


def test_padic_xi_rejects_odd_degree():
    with pytest.raises(ValueError):
        padic_xi_construct(T, 3)
    with pytest.raises(ValueError):
        padic_xi_construct(Poly([4]), 3)


def test_real_xi_construct():
    for f, xi3 in ((T * T, 3), (T * T + 1, 5), (-T * T + T, 5),
                   # 1 + the Cauchy bound has a real root here: xi3
                   # doubles from 35/4 twice and from 788/27 five times
                   (2 * T * T - 3, 35),
                   (3 * T * T - 5 * T - 7, Fraction(25216, 27))):
        xi, h = real_xi_construct(f)
        assert xi.xi3 == xi3
        assert real_root_count(h) == 0
        assert h(0) > 0
        assert xi.xi1 in (1, -1)


def test_even_order_gate():
    out = even_order_gate(T)  # pole at the infinite place: odd order h
    assert out["ord_g"] == -1
    assert not out["g_integral"] and not out["h_even"]
    out = even_order_gate(Poly([1]), T)  # 1/T vanishes at the place
    assert out["ord_g"] == 1 and out["g_integral"] and out["h_even"]
    out = even_order_gate(Poly())  # zero function
    assert out["ord_g"] is None and out["g_integral"] and out["h_even"]
    with pytest.raises(ValueError):
        even_order_gate(T, Poly())


@given(num=st.builds(Poly, st.lists(st.integers(-5, 5), min_size=1,
                                    max_size=4)),
       den=st.builds(Poly, st.lists(st.integers(-5, 5), min_size=1,
                                    max_size=4)).filter(
           lambda p: not p.is_zero()))
@settings(max_examples=150)
def test_even_order_gate_biconditional(num, den):
    out = even_order_gate(num, den)
    assert out["pass"]
    assert out["g_integral"] == out["h_even"]


def test_even_order_gate_can_fail(monkeypatch, capsys):
    """With ord h shifted by one the two sides of the biconditional
    disagree: the gate reports fail and the CLI exits 1."""
    h_num = T**3 + T**2  # T g^2 + T^2 at g = T
    real = quadforms._inf_order
    monkeypatch.setattr(
        quadforms, "_inf_order",
        lambda num, den: real(num, den) + (1 if num == h_num else 0))
    assert even_order_gate(T)["pass"] is False
    assert cli.main(["--format", "json", "qform", "gate", "--g", "t"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [
        ("parity-biconditional", "fail")]
