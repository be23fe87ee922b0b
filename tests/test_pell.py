import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diobench import acceptance, cli, pellpairs
from diobench.pellpairs import (
    check_degree_law,
    check_divisibility_law,
    discriminant,
    epsilon,
    pell_pair,
    recognize_solution,
)
from diobench.polynomial import ONE, Poly, T
from test_polynomial import quad_power

S_FAMILY = [T, 2 * T, T * T, 3 * T + 1]
s_strategy = st.sampled_from(S_FAMILY)


def test_pell_pair_examples():
    p = pell_pair(T, 2)
    assert p.f == 2 * T * T - 1 and p.g == 2 * T
    p = pell_pair(T, 3)
    assert p.f == 4 * T**3 - 3 * T and p.g == 4 * T * T - 1
    assert pell_pair(T, 0).f == ONE and pell_pair(T, 0).g == Poly()
    p = pell_pair(T, -2)  # conjugate branch
    assert p.f == 2 * T * T - 1 and p.g == -2 * T


# s = c0 + c1 T with rational coefficients, so the pairs live in Q[T]
rational_s = st.builds(
    lambda c0, c1: Poly([c0, c1]),
    st.fractions(-3, 3, max_denominator=5),
    st.fractions(-3, 3, max_denominator=5).filter(bool),
)


@given(s=st.one_of(s_strategy, rational_s), n=st.integers(-20, 20))
@example(s=Poly([Fraction(1, 2), Fraction(1, 3)]), n=-7)  # the README's s
@settings(max_examples=150, deadline=None)
def test_pell_pair_is_the_eps_power(s, n):
    """The recurrence against eps^n built by repeated multiplication (of
    conj(eps) for n < 0)."""
    power = quad_power(epsilon(s), n)
    pair = pell_pair(s, n)
    assert (pair.n, pair.f, pair.g) == (n, power.u, -power.w)


@given(s=st.one_of(s_strategy, rational_s), n=st.integers(-30, 30))
def test_pell_identity(s, n):
    p = pell_pair(s, n)
    D = discriminant(s)
    assert p.f * p.f - D * p.g * p.g == ONE


@given(s=s_strategy, m=st.integers(-10, 10), n=st.integers(-10, 10))
def test_pell_group_law(s, m, n):
    a, b, c = pell_pair(s, m), pell_pair(s, n), pell_pair(s, m + n)
    D = discriminant(s)
    assert c.f == a.f * b.f + D * a.g * b.g
    assert c.g == a.f * b.g + a.g * b.f


def test_cold_pell_query_checks_the_identity_once(monkeypatch, capsys):
    """`pell` at its ceiling evaluates the degree-800 Pell identity once,
    where the pair is built, and reports it as the `identity` check."""
    right = pellpairs.is_pell_solution
    calls = []
    monkeypatch.setattr(pellpairs, "is_pell_solution",
                        lambda *args: calls.append(args) or right(*args))
    pellpairs._pell_cached.cache_clear()
    assert cli.main(["--format", "json", "pell", "--s", "3*t+1",
                     "--n", "400"]) == 0
    assert len(calls) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [("identity", "pass")]


@given(s=s_strategy, n=st.integers(1, 25))
def test_degree_law(s, n):
    assert check_degree_law(s, n)


@given(s=st.one_of(s_strategy, rational_s), ell=st.integers(1, 20),
       n=st.integers(1, 20))
@settings(max_examples=150)
def test_divisibility_biconditional(s, ell, n):
    assert check_divisibility_law(ell, n, s)


@pytest.mark.parametrize("law", ["check_degree_law",
                                 "check_divisibility_law"])
def test_failing_law_fails_criterion_and_cli(law, monkeypatch, capsys):
    """A law that does not hold must fail criterion 01 and exit 1."""
    for mod in (acceptance, cli):
        monkeypatch.setattr(mod, law, lambda *args: False)
    assert acceptance.run_criterion("01-pell-laws", "quick").status == "fail"
    assert cli.main(["pell", "--s", "t", "--n", "2", "--check-laws",
                     "--bound", "3"]) == 1


@given(s=s_strategy, n=st.integers(-20, 20))
def test_recognize_round_trip(s, n):
    p = pell_pair(s, n)
    assert recognize_solution(p.f, p.g, s) == (n, 1)
    assert recognize_solution(-p.f, -p.g, s) == (n, -1)


def test_recognize_rejects_non_solutions():
    assert recognize_solution(T, T, T) is None
    assert recognize_solution(2 * T * T - 1, 2 * T + 1, T) is None
    with pytest.raises(ValueError):
        recognize_solution(T, T, Poly([3]))  # constant s: no Pell theory


def test_epsilon_unit():
    eps = epsilon(T)
    assert eps.norm() == ONE
    assert eps.u == T and eps.w == -1


def test_bad_parameter_rejected():
    for _ in range(3):  # on every call, not only before the first cache fill
        with pytest.raises(ValueError):
            pell_pair(Poly([3]), 2)  # constant s: no pole, no Pell theory


def test_negative_index_after_positive():
    s = 2 * T + 1
    p = pell_pair(s, 5)
    q = pell_pair(s, -5)  # conjugate branch, not the cached positive pair
    assert q.f == p.f and q.g == -p.g and q.n == -5
    assert pell_pair(s, 5) == p and pell_pair(s, 5).g == p.g
