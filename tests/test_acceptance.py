"""The thirteen acceptance criteria, one test (and one printed pass/fail
line) each.  "measured" is a pass with data attached; only "fail" fails."""

from dataclasses import replace

import pytest

from diobench import acceptance, parencode


def _run(check):
    line = f"[{check.status.upper():9}] {check.name}"
    if check.details:
        line += f" :: {check.details}"
    print(line)
    assert check.status != "fail", check.details


def test_01_pell_laws():
    _run(acceptance.pell_laws())


def test_02_singlefold_integers():
    _run(acceptance.singlefold_z())


def test_03_exponentiation_grid():
    _run(acceptance.exp_grid())


def test_04_odd_integer_system():
    _run(acceptance.odd_integers())


def test_05_nonneg_gadget_measured_set():
    _run(acceptance.nonneg_set())


def test_06_cyclotomic_base():
    _run(acceptance.cyclo_base())


def test_07_forweak_random():
    _run(acceptance.forweak_random())


def test_08_approx_points():
    _run(acceptance.approx_points())


def test_09_appendix_lemmas():
    _run(acceptance.appendix_lemmas())


def test_10_hilbert_symbols():
    _run(acceptance.hilbert_grid())


def test_11_xi_constructors():
    _run(acceptance.xi_constructors())


def test_12_theta_par():
    _run(acceptance.theta_par())


def test_13_four_squares():
    _run(acceptance.four_squares_range())


# Mutation tests: one wrong value injected through a public name (so a warm
# cache behind it cannot hide the fault) must make the criterion fail.


def test_01_fails_on_wrong_pell_pair(monkeypatch):
    right = acceptance.pell_pair
    monkeypatch.setattr(acceptance, "pell_pair",
                        lambda s, n: replace(right(s, n), f=right(s, n).f + 1))
    assert acceptance.pell_laws(bound=10).status == "fail"


def test_12_fails_when_pos_accepts_everything(monkeypatch, request):
    # five-squares results computed under the fault must not outlive it
    request.addfinalizer(parencode._five_squares_cached.cache_clear)
    monkeypatch.setattr(parencode, "pos_check", lambda F: True)
    check = acceptance.theta_par(n_round=10**4, n_par=60, perturbations=4,
                                 seed=0)
    assert check.status == "fail"
