"""The thirteen acceptance criteria, one test (and one printed pass/fail
line) per row of `acceptance.CRITERIA`, at the full profile; the test id is
the check name.  "measured" is a pass with data attached; only "fail"
fails.  Mutation tests run rows at the quick profile with one fault
injected and require "fail"; the table itself is checked against the
suite's report and the functions' signatures."""

import inspect
import json
from dataclasses import replace
from pathlib import Path

import pytest

from diobench import acceptance, cyclotomic, parencode, quadforms, witness


def _run(check):
    line = f"[{check.status.upper():9}] {check.name}"
    if check.details:
        line += f" :: {check.details}"
    print(line)
    assert check.status != "fail", check.details


@pytest.mark.parametrize("name", acceptance.CRITERIA)
def test_criterion(name):
    _run(acceptance.run_criterion(name))


def test_criteria_table_is_consistent():
    names = list(acceptance.CRITERIA)
    quick = [c.name for c in acceptance.run_suite("quick").checks]
    golden = Path(__file__).parent / "golden" / "verify-all-quick-seed0.json"
    recorded = [c["name"] for c in json.loads(golden.read_text())["checks"]]
    assert names == quick == recorded
    for name, (fn, quick_kw, full_kw, seeded) in acceptance.CRITERIA.items():
        func = getattr(acceptance, fn)
        assert func.__name__ == fn, name
        sig = inspect.signature(func)
        assert all(p.default is p.empty for p in sig.parameters.values()), fn
        seed = {"seed": 0} if seeded else {}
        sig.bind(**quick_kw, **seed)
        sig.bind(**full_kw, **seed)


# Mutation tests: one wrong value injected through a public name (so a warm
# cache behind it cannot hide the fault) must make the criterion fail.


def _verdict(verdict):
    """Wrap a witness system so that every report carries `verdict`."""
    return lambda right: (
        lambda *args, **kwargs: replace(right(*args, **kwargs),
                                        verdict=verdict))


# check name: (module, public name it calls, right function -> wrong one)
MUTATIONS = {
    "02-singlefold-z": (witness, "singlefold_int",
                        _verdict("refuted-to-bound")),
    "03-exp-system": (witness, "exp_system", _verdict("accepted")),
    "04-odd-integer": (witness, "odd_integer_refute", _verdict("accepted")),
    "05-nonneg-gadget": (witness, "nonneg_gadget", _verdict("accepted")),
    "06-cyclo-base": (cyclotomic, "cyclotomic",
                      lambda right: lambda n: right(n) + 1),
    "09-appendix-lemmas": (cyclotomic, "appendix_checks",
                           lambda right: lambda **kw: {**right(**kw),
                                                       "pass": False}),
    "10-hilbert-symbols": (quadforms, "hilbert_symbol",
                           lambda right: lambda a, b, v: -right(a, b, v)),
    "13-four-squares": (acceptance, "four_squares",
                        lambda right: lambda n: tuple(sorted(right(n)))),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_criterion_fails_on_fault(name, monkeypatch, request):
    # Phi_n built under the fault must not outlive it
    for cached in (cyclotomic.cyclotomic, cyclotomic._cyclotomic_mod_p):
        request.addfinalizer(cached.cache_clear)
    module, attr, wrong = MUTATIONS[name]
    monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
    assert acceptance.run_criterion(name, "quick").status == "fail"


def test_01_fails_on_wrong_pell_pair(monkeypatch):
    right = acceptance.pell_pair
    monkeypatch.setattr(acceptance, "pell_pair",
                        lambda s, n: replace(right(s, n), f=right(s, n).f + 1))
    assert acceptance.run_criterion("01-pell-laws", "quick").status == "fail"


def test_12_fails_when_pos_accepts_everything(monkeypatch, request):
    # five-squares results computed under the fault must not outlive it
    request.addfinalizer(parencode._five_squares_cached.cache_clear)
    monkeypatch.setattr(parencode, "pos_check", lambda F: True)
    assert acceptance.run_criterion("12-theta-par", "quick").status == "fail"
