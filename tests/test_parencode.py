import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diobench.parencode import (
    ParTuple,
    chebyshev_Y,
    five_squares_search,
    five_squares_verify,
    make_par_tuple,
    minimal_c,
    par_eval,
    pos_check,
    reconstruct_check,
    theta,
    theta_inverse,
)
from diobench.polynomial import Poly, T

int_polys = st.builds(
    Poly, st.lists(st.integers(-8, 8), min_size=0, max_size=5)
)


def test_theta_examples():
    assert theta(1) == Poly()
    assert theta(theta_inverse(T + 1)) == T + 1
    with pytest.raises(ValueError):
        theta(0)
    with pytest.raises(ValueError):
        theta_inverse(Poly([1, 2]) * Poly.const(1) + Poly.const(0.5)
                      if False else Poly([0.5]))


def test_theta_round_trip_range():
    seen = set()
    for n in range(1, 20001):
        P = theta(n)
        assert theta_inverse(P) == n
        assert P not in seen
        seen.add(P)


@given(p=int_polys)
def test_theta_surjective(p):
    # every integer polynomial has an index; encode/decode is exact
    assert theta(theta_inverse(p)) == p


def test_chebyshev_Y():
    assert chebyshev_Y(0).f == Poly([1]) and chebyshev_Y(0).g == Poly()
    p = chebyshev_Y(2)
    assert p.f == 2 * T * T - 1 and p.g == 2 * T
    p = chebyshev_Y(3)
    assert p.f == 4 * T**3 - 3 * T and p.g == 4 * T * T - 1


def test_pos_check_examples():
    assert pos_check(T * T + 1)
    assert pos_check(Poly())
    assert pos_check((T - 1) ** 2)
    assert not pos_check(Poly([-1]))
    assert not pos_check(T * T - 3 * T + 2)  # negative at 3/2
    assert not pos_check(T**3 + 1)  # odd degree
    assert not pos_check(-T * T - 1 + 2 * T * T - T * T)  # zero... stays 0
    assert not pos_check(2 * T - 1)


def test_pos_check_repeated_call_agrees():
    for F, expected in ((T**4 - 2 * T * T + 1, True),
                        (T**4 - 2 * T * T, False)):
        assert pos_check(F) is expected
        assert pos_check(F) is expected
        assert pos_check(Poly(list(F.coeffs))) is expected  # equal, not same


@given(p=int_polys)
@settings(max_examples=200)
def test_pos_check_sound_on_samples(p):
    if pos_check(p):
        from fractions import Fraction

        for i in range(-40, 41):
            assert p(Fraction(i, 4)) >= 0


def test_five_squares_verify_and_search():
    assert five_squares_verify(1, T * T + 1, [T, Poly([1])] + [Poly()] * 3)
    assert five_squares_verify(
        1, 2 * T * T + 2, [T + 1, T - 1] + [Poly()] * 3
    )
    res = five_squares_search(T * T + 1)
    assert res["status"] == "found" and res["g"] == 1
    assert res["count"] == 1  # unique canonical decomposition
    assert five_squares_search(Poly([-1]))["status"] == "not-pos"
    res = five_squares_search(Poly([7]))
    assert res["status"] == "found"
    assert five_squares_verify(res["g"], Poly([7]), res["parts"])
    with pytest.raises(ValueError):
        five_squares_search(T**6 + 1)
    with pytest.raises(ValueError):
        five_squares_verify(1, T, [T])


def test_five_squares_search_results_are_independent():
    """Mutating one call's result does not change the next call's."""
    F = 2 * T * T + 3
    first = five_squares_search(F)
    expected = dict(first, parts=list(first["parts"]))
    first["parts"][0] = Poly([99])
    first["parts"].append(T)
    first["g"] = 0
    again = five_squares_search(F)
    assert again == expected
    assert five_squares_verify(again["g"], F, again["parts"])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_five_squares_found_implies_pos(data):
    coeffs = [data.draw(st.integers(-3, 3)) for _ in
              range(data.draw(st.integers(1, 5)))]
    F = Poly(coeffs)
    res = five_squares_search(F, g_max=2, witness_limit=5)
    if res["status"] == "found":
        assert pos_check(F)
        assert five_squares_verify(res["g"], F, res["parts"])
    elif res["status"] == "not-pos":
        assert not pos_check(F)


def test_minimal_c_measured():
    assert minimal_c(1) == 1  # zero polynomial
    n_T = theta_inverse(T)
    assert minimal_c(n_T) == 2  # min of 16T^4 - 9T^2 + 1 is -17/64


def test_par_pipeline_zero_poly():
    t = make_par_tuple(1)
    assert (t.d, t.c, t.b, t.v) == (0, 1, 0, 0)
    assert par_eval(t)["verdict"] == "accepted"


def test_par_pipeline_T():
    t = make_par_tuple(theta_inverse(T))
    assert (t.d, t.c, t.g) == (1, 2, 2)
    verdict = par_eval(t)
    assert verdict["verdict"] == "accepted"
    assert all(v is True for v in verdict["conditions"].values())


def test_par_eval_refutes_corruption():
    t = make_par_tuple(theta_inverse(T))  # b = 3 > 0
    for field, delta in (("v", 1), ("d", 1), ("c", 1), ("b", -1)):
        d = t.to_dict()
        d[field] += delta
        bad = ParTuple(**d)
        assert par_eval(bad)["verdict"] == "refuted", field
    assert par_eval(ParTuple(0, 0, 1, 0, 1, 0))["verdict"] == "invalid"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 11, 25, 60, 137])
def test_par_accepting_tuple_exists(n):
    t = make_par_tuple(n)
    assert par_eval(t)["verdict"] == "accepted"


def test_reconstruct_check():
    n = theta_inverse(T)
    t = make_par_tuple(n)
    assert reconstruct_check(T, t)["accepted"]
    k = 2 * t.b + 2 * t.c + t.d
    for S in (Poly([1]), Poly([-2]), Poly([1, 1]), Poly([0, 3])):
        Fp = T + Poly([k, -1]) * S
        assert not reconstruct_check(Fp, t)["accepted"], S
    # wrong value at the probe point
    assert not reconstruct_check(T + 1, t)["accepted"]
    with pytest.raises(ValueError):
        reconstruct_check(T, ParTuple(t.n, t.b, t.c, t.d, t.g, t.v + 1))
