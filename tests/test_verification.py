"""The verification checks themselves: pass cleanly, catch injected faults."""

import math

import pytest

from mmcvqkd import verification
from mmcvqkd.operations import OpKind, heralded_entries


def test_all_checks_pass_at_default_tolerances():
    results = verification.run_all_checks()
    assert all(result.passed and result.failure_kind is None for result in results)
    names = {result.name for result in results}
    assert "heralded-cm-1ps" in names
    assert "heralded-prob-0pc" in names
    assert "mutual-information-closed-form" in names


def test_report_lines_readable():
    results = verification.run_all_checks()
    for result in results:
        line = result.report_line()
        assert result.name in line
        assert line.startswith("PASS")


def test_injected_sign_flip_is_caught_structurally(monkeypatch):
    def corrupted(kind, xi_sq, t):
        a, b, c, p = heralded_entries(kind, xi_sq, t)
        if OpKind(kind) is OpKind.PS1:
            c = -c
        return a, b, c, p

    monkeypatch.setattr(verification, "heralded_entries", corrupted)
    results = verification.check_heralded_ops()
    failing = {result.name: result for result in results if not result.passed}
    assert set(failing) == {"heralded-cm-1ps"}
    assert failing["heralded-cm-1ps"].failure_kind == "structural-mismatch"


def test_injected_nan_is_caught_structurally(monkeypatch):
    def corrupted(kind, xi_sq, t):
        a, b, c, p = heralded_entries(kind, xi_sq, t)
        if OpKind(kind) is OpKind.PS1 and (xi_sq, t) == (math.tanh(0.8) ** 2, 0.9):
            c, p = math.nan, math.nan
        return a, b, c, p

    monkeypatch.setattr(verification, "heralded_entries", corrupted)
    results = verification.check_heralded_ops()
    failing = {result.name: result for result in results if not result.passed}
    assert set(failing) == {"heralded-cm-1ps", "heralded-prob-1ps"}
    for result in failing.values():
        assert result.failure_kind == "structural-mismatch"
        assert result.report_line().startswith("FAIL[structural-mismatch]")
        assert "max_dev=nan" in result.report_line()


@pytest.mark.parametrize("name, check", [
    ("mutual_information", verification.check_mutual_information),
    ("symplectic_eigenvalues", verification.check_two_mode_symplectic),
], ids=["mutual-information", "two-mode-symplectic"])
def test_nan_in_one_draw_is_caught(monkeypatch, name, check):
    original = getattr(verification, name)
    calls = []

    def nan_on_third_call(*args):
        calls.append(args)
        value = original(*args)
        return value * math.nan if len(calls) == 3 else value

    monkeypatch.setattr(verification, name, nan_on_third_call)
    result = check()
    assert len(calls) > 3
    assert math.isnan(result.max_deviation)
    assert result.failure_kind == "structural-mismatch"


def test_tolerance_miss_classified_separately():
    results = verification.check_heralded_ops(cm_tol=1e-16, prob_tol=1e-16)
    assert all(not result.passed for result in results)
    assert {result.failure_kind for result in results} == {"tolerance-miss"}
