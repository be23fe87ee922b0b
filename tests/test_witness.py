from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diobench import witness
from diobench.pellpairs import epsilon, pell_pair
from diobench.polynomial import Poly, QuadExt, T
from diobench.witness import (
    DESK,
    DeskInstantiation,
    WitnessReport,
    constants_system,
    exp_system,
    nonneg_gadget,
    odd_integer_refute,
    odd_integer_system,
    singlefold_int,
)
from test_polynomial import quad_power

small_polys = st.builds(
    Poly, st.lists(st.integers(-5, 5), min_size=0, max_size=4)
)


def test_constants_system_examples():
    rep = constants_system(5)
    assert rep.accepted and rep.fold_count == 1
    assert rep.witnesses[0] == (Fraction(1, 26), Fraction(1, 27))
    assert rep.to_dict()["input"] == ["5"]
    assert constants_system(Fraction(-1, 2)).witnesses == [
        (Fraction(4, 5), Fraction(4, 9))]
    assert constants_system(T).verdict == "refuted"
    assert constants_system(T - 3).verdict == "refuted"


@pytest.mark.parametrize("c", range(-6, 7))
def test_singlefold_int_accepts_each_integer_once(c):
    rep = singlefold_int(c, bound=50)
    assert rep.accepted and rep.fold_count == 1
    n, sign, f, g = rep.witnesses[0]
    assert n == abs(c)


def _divides(den, z):
    """den | z in Q[T][sqrt(D)] by definition: N(den) divides both
    components of z * conj(den)."""
    nm, prod = den.norm(), z * den.conj()
    return nm.divides(prod.u) and nm.divides(prod.w)


def _singlefold_reference(c, bound, a):
    """singlefold_int by its definition: q_n = (eps^n - 1)/(eps - 1) built
    for each n, then (eps - 1) | (q_n -+ c) tested directly."""
    eps = epsilon(a)
    one = QuadExt(1, 0, eps.D)
    den = eps - one
    found = []
    power = one  # eps^n = u - sqrt(a^2 - 1) * g
    for n in range(bound + 1):
        q = (power - one).exact_div(den)
        for sign in (1, -1):
            if _divides(den, q - sign * c):
                key = (n, power.u, -power.w)
                if key not in [(w[0], w[2], w[3]) for w in found]:
                    found.append((n, sign, power.u, -power.w))
        power = power * eps
    return found


@pytest.mark.parametrize("a", [T, 2 * T, T * T + 1])
@pytest.mark.parametrize("bound", [8, 50])
def test_singlefold_int_matches_reference(a, bound):
    desk = DeskInstantiation(a=a)
    for c in [*range(-6, 7), Fraction(1, 2), Fraction(-7, 4), Fraction(3, 2)]:
        rep = singlefold_int(c, bound=bound, desk=desk)
        ref = _singlefold_reference(c, bound, a)
        assert rep.witnesses == ref, c
        assert rep.verdict == ("accepted" if ref else "refuted-to-bound")
        assert rep.bound == bound


def test_singlefold_int_refutes_non_integers():
    for c in (Fraction(1, 2), T, T * T + 1, Fraction(-7, 3)):
        rep = singlefold_int(c, bound=50)
        assert rep.verdict == "refuted-to-bound"
        assert rep.bound == 50


def test_exp_system_examples():
    rep = exp_system(2, 8, 3)
    assert rep.accepted and rep.fold_count == 1
    assert rep.witnesses[0][0] == 3  # n = |d|
    assert exp_system(2, -8, 3).accepted
    assert exp_system(-2, 8, 3).accepted
    assert exp_system(2, 8, -3).accepted
    assert exp_system(2, 7, 3).verdict == "refuted"
    assert exp_system(3, 1, 0).accepted  # b^0 = 1
    assert exp_system(2, 2, 1).accepted
    with pytest.raises(ValueError):
        exp_system(0, 0, 1)


@given(b=st.integers(-6, 6).filter(bool), d=st.integers(-3, 3),
       c=st.integers(-300, 300))
@settings(max_examples=150)
def test_exp_system_matches_definition(b, d, c):
    assert exp_system(b, c, d).accepted == (abs(c) == abs(b) ** abs(d))


def _exp_reference(b, c, d, a):
    """exp_system by its definition: each divisibility tested on the norm
    and each quotient built by exact division."""
    eps = epsilon(a)
    one = QuadExt(1, 0, eps.D)
    n = abs(d)
    power = quad_power(eps, n)
    den1, den2 = eps - b * one, (eps - one) * (eps - one)
    found = []
    for s1 in (1, -1):
        num1 = power + s1 * c * one
        if not _divides(den1, num1):
            continue
        x = num1.exact_div(den1)
        for s2 in (1, -1):
            num2 = d * (eps - one) + s2 * (power - one)
            if _divides(den2, num2):
                y = num2.exact_div(den2)
                w = (n, s1, s2, power.u, power.w, x.u, x.w, y.u, y.w)
                if w[3:] not in [v[3:] for v in found]:
                    found.append(w)
    return WitnessReport("exp", (b, c, d),
                         "accepted" if found else "refuted", witnesses=found)


@pytest.mark.parametrize("a", [T, 2 * T, T * T + 1])
def test_exp_system_matches_reference(a):
    desk = DeskInstantiation(a=a)
    for b in [*range(-8, 0), *range(1, 9)]:
        for d in range(-4, 5):
            v = abs(b) ** abs(d)
            for c in (v, -v, v + 1, -v - 1, v - 1, 0, 7):
                assert (exp_system(b, c, d, desk=desk).to_dict()
                        == _exp_reference(b, c, d, a).to_dict()), (b, c, d)


def _eps_answers(desk):
    return (
        [singlefold_int(c, bound=8, desk=desk).to_dict() for c in (0, 3, -2)],
        [exp_system(b, c, d, desk=desk).to_dict()
         for b, c, d in ((2, 8, 3), (2, 7, 3), (3, 1, 0), (-2, 4, -2))],
    )


def test_eps_systems_answer_per_desk():
    """The eps-power caches are keyed by the desk's a: each desk gets its
    own answers, whichever desk fills the caches first."""
    other = DeskInstantiation(a=2 * T)
    runs = []
    for order in ((DESK, other), (other, DESK)):
        for cached in (witness._x, witness._y, witness._eps):
            cached.cache_clear()
        runs.append({desk.a: _eps_answers(desk) for desk in order})
    assert runs[0] == runs[1]
    assert runs[0][DESK.a] != runs[0][other.a]
    assert [r["verdict"] for r in runs[0][other.a][1]] == [
        "accepted", "refuted", "accepted", "accepted"]


def test_odd_integer_constructor():
    for r in (-9, -3, -1, 1, 3, 5, 9):
        rep = odd_integer_system(r=r)
        assert rep.accepted, (r, rep.notes)
    with pytest.raises(ValueError):
        odd_integer_system(r=4)


def test_odd_integer_checker_rejects_corrupted():
    rep = odd_integer_system(r=3)
    tup = list(rep.witnesses[0])
    tup[1] = tup[1] + 1  # break the Pell identity
    rep = odd_integer_system(tuple_=tup)
    # the notes list failed relations in a fixed order, whatever order the
    # relations are evaluated in
    assert (rep.verdict, rep.notes) == (
        "refuted", "failed: pell-identity, ax-divides-f")
    for r in (-9, -3, 1, 5):  # the constructor's own tuples pass the checker
        rep = odd_integer_system(tuple_=odd_integer_system(r=r).witnesses[0])
        assert (rep.verdict, rep.notes) == (
            "accepted", f"certified odd integer a = {r}")


def test_odd_integer_refute_even_and_nonconstant():
    for a in (0, 2, -2, 4, T, T * T + 1):
        rep = odd_integer_refute(a, bound=12)
        assert not rep.accepted, a
    # sanity: the search does find odd witnesses
    assert odd_integer_refute(3, bound=12).accepted


def _odd_refute_reference(a_value, bound):
    """(verdict, witnesses, notes) of the plain search: each candidate
    +-(f_m, g_m) from its own pell_pair, accepted when every relation
    holds."""
    a = Poly.coerce(a_value)
    s = a * T
    if s.is_constant():
        return "refuted", [], "a = 0 gives a constant Pell parameter"
    p2, p3 = pell_pair(s, 2), pell_pair(s, 3)
    tv = a * p3.g
    for m in range(bound + 1):
        pm = pell_pair(s, m)
        for sign in (1, -1):
            tup = (a, sign * pm.f, sign * pm.g, p2.f, p2.g, p3.f, p3.g, tv)
            if all(dict(witness._odd_relations(*tup)).values()):
                return "accepted", [tup], ""
    return "refuted-to-bound", [], "no witness tuple up to the index bound"


def test_odd_integer_refute_matches_reference():
    # odd a has its first witness at index 3|a|; the bounds 2, 8 and 14 sit
    # one below those of a = +-1, 3 and -5, where an index shift shows
    for a in (0, 1, -1, 2, -2, 3, 4, -5, 6, Fraction(1, 2), T, T * T + 1):
        for bound in (0, 1, 2, 5, 8, 12, 14, 20):
            rep = odd_integer_refute(a, bound=bound)
            assert (rep.verdict, rep.witnesses, rep.notes) == (
                _odd_refute_reference(a, bound)), (a, bound)


def test_nonneg_gadget_measured_set():
    accepted = [d for d in range(-8, 9) if nonneg_gadget(d).accepted]
    assert accepted == [-1] + list(range(0, 9))
    assert "vacuous" in nonneg_gadget(-1).notes
    assert "convention" in nonneg_gadget(0).notes
