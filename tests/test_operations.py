"""Heralded non-Gaussian operations: closed forms, identities, concatenation."""

import math

import numpy as np
import pytest

from mmcvqkd import fock
from mmcvqkd.operations import (
    NonGaussianOpSpec,
    OpKind,
    apply_op,
    apply_to_supermodes,
    heralded_entries,
)
from mmcvqkd.optimize import MAX_SUPERMODE_SQUEEZING
from mmcvqkd.source import SourceParams, epr_cm, make_spectrum

ACTIVE = (OpKind.PS1, OpKind.PA1, OpKind.PC1, OpKind.PC0)

R_GRID = np.linspace(0.075, 1.5, 20)
T_GRID = np.linspace(0.05, 0.95, 20)


class TestSpecValidation:
    def test_active_kinds_need_open_interval(self):
        for kind in (OpKind.PS1, OpKind.PA1, OpKind.PC1):
            with pytest.raises(ValueError, match="invalid transmissivity"):
                NonGaussianOpSpec(kind, 1.0)
        with pytest.raises(ValueError, match="invalid transmissivity"):
            NonGaussianOpSpec(OpKind.PS1, 0.0)

    def test_zero_pc_allows_unit_transmissivity(self):
        spec = NonGaussianOpSpec(OpKind.PC0, 1.0)
        outcome = apply_op(spec, 0.8)
        reference = epr_cm(0.8)
        assert outcome.cm.a == pytest.approx(reference.a, abs=1e-12)
        assert outcome.probability == pytest.approx(1.0, abs=1e-12)

    def test_none_ignores_transmissivity(self):
        outcome = apply_op(NonGaussianOpSpec(OpKind.NONE), 0.5)
        assert outcome.probability == 1.0


class TestClosedForms:
    def test_zero_pc_is_noiseless_everywhere(self):
        for r in R_GRID:
            xi_sq = math.tanh(r) ** 2
            a, b, c, _ = heralded_entries(OpKind.PC0, xi_sq, T_GRID)
            np.testing.assert_allclose(a * b - c**2, 1.0, atol=1e-10)

    def test_subtraction_probability_vanishes_at_unit_transmissivity(self):
        _, _, _, p = heralded_entries(OpKind.PS1, math.tanh(0.8) ** 2, 1.0 - 1e-12)
        assert float(p) < 1e-11

    def test_grid_outcomes_physical(self):
        for kind in ACTIVE:
            for r in R_GRID:
                for t in T_GRID:
                    outcome = apply_op(NonGaussianOpSpec(kind, t), r)
                    assert 0.0 < outcome.probability < 1.0
                    nu_minus = outcome.cm.symplectic_eigenvalues()[1]
                    assert nu_minus >= 1.0 - 1e-9

    def test_subtraction_addition_mirror(self):
        for r in (0.3, 0.9, 1.4):
            xi_sq = math.tanh(r) ** 2
            a_ps, b_ps, c_ps, _ = heralded_entries(OpKind.PS1, xi_sq, T_GRID)
            a_pa, b_pa, c_pa, _ = heralded_entries(OpKind.PA1, xi_sq, T_GRID)
            np.testing.assert_allclose(a_ps, b_pa, atol=1e-12)
            np.testing.assert_allclose(b_ps, a_pa, atol=1e-12)
            np.testing.assert_allclose(c_ps, c_pa, atol=1e-12)

    def test_catalysis_is_symmetric(self):
        for r in (0.3, 0.9, 1.4):
            a, b, _, _ = heralded_entries(OpKind.PC1, math.tanh(r) ** 2, T_GRID)
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_subtraction_probability_is_xi_sq_times_addition(self):
        # The heralding probabilities differ exactly by the chance that a
        # photon is there to subtract.
        for r in (0.3, 0.9, 1.4):
            xi_sq = math.tanh(r) ** 2
            _, _, _, p_ps = heralded_entries(OpKind.PS1, xi_sq, T_GRID)
            _, _, _, p_pa = heralded_entries(OpKind.PA1, xi_sq, T_GRID)
            np.testing.assert_allclose(p_ps, xi_sq * p_pa, atol=1e-14)

    def test_catalysis_transparent_limit(self):
        # T -> 1: the ancilla photon always exits at the detector, the signal
        # is untouched; the Fock engine at T = 1 exactly anchors the limit.
        r = 0.8
        xi_sq = math.tanh(r) ** 2
        a, b, c, p = heralded_entries(OpKind.PC1, xi_sq, 1.0 - 1e-9)
        oracle = fock.herald(fock.build_tmsv(r), 1, 1, 1.0)
        assert float(p) == pytest.approx(1.0, abs=1e-8)
        assert oracle.probability == pytest.approx(1.0, abs=1e-10)
        assert float(a) == pytest.approx(oracle.cm.a, abs=1e-7)
        assert float(c) == pytest.approx(oracle.cm.c, abs=1e-7)

    def test_vacuum_corner_cases(self):
        # Established against the Fock engine: on vacuum, subtraction never
        # heralds, addition heralds iff the ancilla photon crosses (1 - T),
        # catalysis iff it does not (T), and 0-PC is the identity.
        t = 0.7
        _, _, _, p_ps = heralded_entries(OpKind.PS1, 0.0, t)
        a_pa, b_pa, _, p_pa = heralded_entries(OpKind.PA1, 0.0, t)
        a_pc, _, c_pc, p_pc = heralded_entries(OpKind.PC1, 0.0, t)
        a_0, _, c_0, p_0 = heralded_entries(OpKind.PC0, 0.0, t)
        assert float(p_ps) == 0.0
        assert float(p_pa) == pytest.approx(1.0 - t, abs=1e-14)
        assert (float(a_pa), float(b_pa)) == (1.0, 3.0)
        assert float(p_pc) == pytest.approx(t, abs=1e-14)
        assert (float(a_pc), float(c_pc)) == (1.0, 0.0)
        assert (float(a_0), float(c_0), float(p_0)) == (1.0, 0.0, 1.0)

    def test_untouched_is_zero_pc_at_unit_transmissivity(self):
        # NONE ignores t: its entries are 0-PC's at t = 1 bit for bit, with p
        # exactly 1 up to the squeezing ceiling. Without memory,
        # total_rate_batch leaves the untouched supermodes out of the
        # probability product, which keeps every bit only if p is 1.0.
        dense = np.linspace(0.0, MAX_SUPERMODE_SQUEEZING, 200_001)
        xi_sq = np.concatenate([[0.0], np.tanh(R_GRID) ** 2, np.tanh(dense) ** 2])
        identity = heralded_entries(OpKind.PC0, xi_sq, 1.0)
        for t in (0.37, 1.0, np.linspace(0.05, 0.95, xi_sq.size)):
            untouched = heralded_entries(OpKind.NONE, xi_sq, t)
            for entry, reference in zip(untouched, identity):
                assert np.array_equal(entry, reference)
            assert np.all(untouched[3] == 1.0)


class TestApplyToSupermodes:
    def test_no_selection_returns_plain_source(self):
        source = SourceParams(1.0, make_spectrum("exp", 5, 2.0))
        outcomes = apply_to_supermodes([], source)
        assert len(outcomes) == 5
        assert math.prod(o.probability for o in outcomes) == 1.0
        for outcome, r in zip(outcomes, source.squeezings()):
            assert outcome.cm.a == pytest.approx(math.cosh(2 * r), abs=1e-12)

    def test_zero_pc_on_vacuum_supermode_is_identity(self):
        source = SourceParams(1.3, make_spectrum("single", 5))
        specs = [NonGaussianOpSpec(OpKind.PC0, 0.8)] * 2
        outcomes = apply_to_supermodes(specs, source)
        vacuum = outcomes[1]
        assert (vacuum.cm.a, vacuum.cm.b, vacuum.cm.c) == (1.0, 1.0, 0.0)
        assert vacuum.probability == pytest.approx(1.0, abs=1e-14)

    def test_combined_probability_is_product(self):
        source = SourceParams(1.0, make_spectrum("exp", 5, 2.0))
        specs = [NonGaussianOpSpec(OpKind.PS1, 0.9), NonGaussianOpSpec(OpKind.PS1, 0.9)]
        outcomes = apply_to_supermodes(specs, source)
        squeezings = source.squeezings()
        expected = 1.0
        for k in range(2):
            state = fock.build_tmsv(squeezings[k])
            expected *= fock.herald(state, 0, 1, 0.9).probability
        assert math.prod(o.probability for o in outcomes) == pytest.approx(expected, abs=1e-8)
        assert outcomes[2].probability == 1.0

    def test_selection_longer_than_mode_count_rejected(self):
        source = SourceParams(1.0, make_spectrum("uniform", 2))
        specs = [NonGaussianOpSpec(OpKind.PS1, 0.9)] * 3
        with pytest.raises(ValueError, match="selection exceeds mode count"):
            apply_to_supermodes(specs, source)
