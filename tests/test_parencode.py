import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diobench import parencode
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
from diobench.polynomial import Poly, T, squarefree_decomposition
from test_polynomial import fraction_root_count

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


def _pos_reference(F):
    """Pos the long way: Yun's decomposition, then a Sturm count over Q
    for each factor of odd multiplicity."""
    if F.is_zero():
        return True
    if F.degree % 2 or F.lead() < 0:
        return False
    return all(fraction_root_count(f) == 0
               for f, m in squarefree_decomposition(F) if m % 2)


coeffs = st.one_of(st.integers(-6, 6),
                   st.fractions(-6, 6, max_denominator=4))
small_polys = st.builds(Poly, st.lists(coeffs, min_size=1, max_size=4))


@given(a=small_polys, b=small_polys, shape=st.sampled_from((1, 2, 3)))
@settings(max_examples=200, deadline=None)
def test_pos_check_agrees_with_reference(a, b, shape):
    # a, a^2 b and a^3 b^2: squarefree, and repeated factors of even and
    # odd multiplicity
    F = a if shape == 1 else a ** shape * b ** (shape - 1)
    assert pos_check(F) is _pos_reference(F)


@pytest.mark.parametrize("F, expected, yun", [
    ((10 * T - 1) * (10 * T - 2), False, False),
    ((10 * T - 1) ** 3 * (10 * T - 2), False, True),
    ((10 * T - 1) ** 2 * (T * T + 1), True, True),
])
def test_pos_check_past_the_sample_points(F, expected, yun, monkeypatch):
    """Positive at every sample point, so the Sturm chain decides; only a
    repeated factor with a real root reaches Yun's decomposition."""
    assert all(F(x) > 0 for x in parencode.SAMPLE_POINTS)
    calls = []
    real = parencode.squarefree_decomposition
    monkeypatch.setattr(parencode, "squarefree_decomposition",
                        lambda p: calls.append(p) or real(p))
    assert parencode._pos_cached.__wrapped__(F.coeffs) is expected
    assert bool(calls) is yun
    assert pos_check(F) is expected


@given(p=int_polys)
@settings(max_examples=200)
def test_pos_check_sound_on_samples(p):
    if pos_check(p):
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


def test_five_squares_search_rejects_non_integer_polys():
    for F in (Poly([Fraction(1, 2)]), T * T + Fraction(1, 4),
              Poly([Fraction(-1, 2)])):  # not Pos either
        with pytest.raises(ValueError, match="integer"):
            five_squares_search(F)


# Targets of the five-squares golden file: the distinct Par targets of
# degree <= 4 among n = 1..60, then a few by hand (1000 reaches the witness
# limit, the quadratics have several canonical orders of their parts,
# T^2 - 2 is not Pos).
FIVE_SQUARES_HAND_TARGETS = [
    Poly([7]), T * T + 1, 2 * T * T + 3, Poly([1000]), T**4 + T * T + 20,
    7 * T**4 + 1, 10 * T * T + 10, 2 * T * T + 50, T * T - 2,
]


def five_squares_targets():
    targets = []
    for n in range(1, 61):
        base = parencode._par_core(n)[3]
        target = base + minimal_c(n)
        if target.degree <= 4 and target not in targets:
            targets.append(target)
    return targets + FIVE_SQUARES_HAND_TARGETS


def five_squares_json():
    """The five_squares_search result of each target, parts as text."""
    runs = []
    for F in five_squares_targets():
        res = five_squares_search(F)
        if "parts" in res:
            res["parts"] = [str(p) for p in res["parts"]]
        runs.append(dict(res, target=str(F)))
    return json.dumps(runs, indent=2, sort_keys=True) + "\n"


def test_five_squares_match_golden():
    """Statuses, g, first decompositions and counts stay as recorded."""
    golden = Path(__file__).parent / "golden" / "five-squares-seed0.json"
    assert five_squares_json() == golden.read_text()


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


def test_par_first_decomposition_gives_counted_g():
    """Par reads only the first decomposition; its g is the one the search
    reports when it counts decompositions up to the default limit."""
    for n in range(1, 61):
        target = parencode._par_core(n)[3] + minimal_c(n)
        t = make_par_tuple(n)
        cond = par_eval(t)["conditions"]["5-g-minimal"]
        res = (five_squares_search(target) if (target.degree or 0) <= 4
               else {"status": "degree-above-4"})
        if res["status"] != "found":
            assert (t.g, cond) == (1, "semi-decided"), n
            continue
        assert (t.g, cond) == (res["g"], True), n
        other = ParTuple(**dict(t.to_dict(), g=res["g"] + 1))
        assert par_eval(other)["conditions"]["5-g-minimal"] is False, n


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
