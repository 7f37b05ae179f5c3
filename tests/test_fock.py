"""Truncated-Fock engine self-tests: states, beam splitter, heralding, moments."""

import math

import numpy as np
import pytest

from mmcvqkd import fock
from mmcvqkd.fock import (
    MAX_FOCK_CUTOFF,
    FockState,
    beam_splitter_element,
    build_tmsv,
    extract_cm,
    herald,
    outcome_probabilities,
    quadrature_moments,
    tmsv_cutoff,
)


class TestBuildTmsv:
    def test_zero_squeezing_is_vacuum(self):
        state = build_tmsv(0.0)
        assert state.amplitudes[0, 0] == pytest.approx(1.0)
        assert np.abs(state.amplitudes).sum() == pytest.approx(1.0)

    def test_mean_photon_number(self):
        r = 0.8
        state = build_tmsv(r)
        prob = np.abs(state.amplitudes) ** 2
        mean_n = float((np.arange(prob.shape[0])[:, None] * prob).sum())
        assert mean_n == pytest.approx(math.sinh(r) ** 2, abs=1e-8)

    def test_insufficient_truncation_rejected(self):
        needed = tmsv_cutoff(1.2)
        with pytest.raises(ValueError, match="insufficient truncation"):
            build_tmsv(1.2, cutoff=needed - 1)

    def test_negative_squeezing_rejected(self):
        with pytest.raises(ValueError, match="negative squeezing"):
            build_tmsv(-0.2)

    @pytest.fixture
    def no_allocation(self, monkeypatch):
        """Fail the test if build_tmsv reaches its amplitude allocation."""
        def refuse(*args, **kwargs):
            raise AssertionError(f"build_tmsv allocated {args}")
        monkeypatch.setattr(fock.np, "zeros", refuse)

    @pytest.mark.parametrize("r, message", [
        (math.nan, "non-finite squeezing r = nan"),
        (math.inf, "non-finite squeezing r = inf"),
        (20.0, "squeezing r = 20.0 saturates"),
    ])
    def test_unbounded_squeezing_rejected(self, no_allocation, r, message):
        with pytest.raises(ValueError, match=message):
            build_tmsv(r)
        with pytest.raises(ValueError, match=message):
            tmsv_cutoff(r)

    def test_cutoff_ceiling(self, no_allocation):
        # r = 4 needs cutoff 17,160: a 17,161^2 complex array, 4.7 GB
        assert tmsv_cutoff(4.0) > MAX_FOCK_CUTOFF
        with pytest.raises(ValueError, match="cutoff 17160 at r = 4.0 exceeds MAX_FOCK_CUTOFF"):
            build_tmsv(4.0)
        with pytest.raises(ValueError, match="exceeds MAX_FOCK_CUTOFF = 2500"):
            build_tmsv(0.5, cutoff=MAX_FOCK_CUTOFF + 1)

    def test_largest_optimizer_squeezing_builds(self):
        # MAX_SUPERMODE_SQUEEZING = 2.5 needs cutoff 855, below the ceiling
        assert build_tmsv(2.5).amplitudes.shape == (856, 856)


class TestBeamSplitterElement:
    def test_photon_number_conservation(self):
        assert beam_splitter_element(1, 1, 2, 1, 0.7) == 0.0

    def test_unitary_on_low_sectors(self):
        # within each total-photon sector the element matrix must be unitary
        for total in (1, 2, 3):
            basis = [(n, total - n) for n in range(total + 1)]
            matrix = np.array(
                [
                    [beam_splitter_element(m1, m2, n1, n2, 0.63) for (n1, n2) in basis]
                    for (m1, m2) in basis
                ]
            )
            np.testing.assert_allclose(matrix @ matrix.T, np.eye(total + 1), atol=1e-12)

    @pytest.mark.parametrize("t", [0.5, 0.999])
    @pytest.mark.parametrize("n2", [0, 1])
    @pytest.mark.parametrize("n1", [315, 855])
    def test_high_photon_column_has_unit_norm(self, n1, n2, t):
        # tmsv_cutoff gives 315 at r = 2.0 and 855 at r = 2.5; herald evaluates
        # columns this high, and the full column also reaches factorial ratios
        # of hundreds of factors.
        column = [beam_splitter_element(m1, n1 + n2 - m1, n1, n2, t) for m1 in range(n1 + n2 + 1)]
        assert math.fsum(element**2 for element in column) == pytest.approx(1.0, abs=1e-12)

    def test_factorial_ratio_matches_big_integer_reference(self):
        # the element divides out the common factorials; the reference forms
        # m1! m2! / (n1! n2!) in full, the same rational, so the bits agree
        def reference(m1, m2, n1, n2, t):
            amp_t, amp_r = math.sqrt(t), math.sqrt(1.0 - t)
            total = 0.0
            for i in range(max(0, m1 - n2), min(n1, m1) + 1):
                j = m1 - i
                total += (math.comb(n1, i) * math.comb(n2, j) * amp_t**i
                          * (-amp_r) ** (n1 - i) * amp_r**j * amp_t ** (n2 - j))
            return total * math.sqrt(
                math.factorial(m1) * math.factorial(m2)
                / (math.factorial(n1) * math.factorial(n2))
            )

        cases = [(m1, total - m1, n1, total - n1)
                 for total in range(13) for m1 in range(total + 1) for n1 in range(total + 1)]
        # herald's columns: detect in {0, 1}, ancilla in {0, 1}, up to cutoff 855
        cases += [(n_b + anc - det, det, n_b, anc)
                  for n_b in (1, 2, 314, 315, 854, 855) for anc in (0, 1) for det in (0, 1)]
        for t in (0.1, 0.63, 0.999):
            for case in cases:
                assert beam_splitter_element(*case, t).hex() == reference(*case, t).hex(), case

    def test_transparent_splitter_is_identity(self):
        assert beam_splitter_element(2, 1, 2, 1, 1.0) == pytest.approx(1.0)
        assert beam_splitter_element(1, 2, 2, 1, 1.0) == 0.0


class TestHerald:
    def test_transparent_passthrough(self):
        state = build_tmsv(0.8)
        result = herald(state, 0, 0, 1.0)
        assert result.probability == pytest.approx(1.0, abs=1e-10)
        reference = extract_cm(state)
        assert result.cm.a == pytest.approx(reference.a, abs=1e-10)
        assert result.cm.c == pytest.approx(reference.c, abs=1e-10)

    def test_catalysis_on_vacuum_fixes_corner_case(self):
        result = herald(build_tmsv(0.0, cutoff=4), 1, 1, 0.7)
        assert result.probability == pytest.approx(0.7, abs=1e-12)
        assert result.cm.a == pytest.approx(1.0, abs=1e-10)
        assert result.cm.c == pytest.approx(0.0, abs=1e-10)

    def test_zero_norm_branch_flagged(self):
        # vacuum input cannot yield a subtraction click
        result = herald(build_tmsv(0.0, cutoff=4), 0, 1, 0.9)
        assert result.probability == 0.0
        assert result.cm is None

    def test_detection_beyond_the_support(self):
        # detect - ancilla = 7 exceeds the cutoff 4: no input column can herald
        result = herald(build_tmsv(0.0, cutoff=4), 0, 7, 0.5)
        assert result.probability == 0.0
        assert result.cm is None

    def test_outcome_probabilities_sum_to_one(self):
        state = build_tmsv(0.8)
        for ancilla in (0, 1):
            total = outcome_probabilities(state, ancilla, 0.9).sum()
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_cutoff_stability(self):
        r, t = 0.8, 0.9
        base = herald(build_tmsv(r), 0, 1, t)
        doubled = herald(build_tmsv(r, cutoff=2 * tmsv_cutoff(r)), 0, 1, t)
        assert doubled.cm.a == pytest.approx(base.cm.a, abs=1e-8)
        assert doubled.cm.b == pytest.approx(base.cm.b, abs=1e-8)
        assert doubled.cm.c == pytest.approx(base.cm.c, abs=1e-8)

    @pytest.mark.parametrize("ancilla,detect", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_band_state_matches_dense_transfer(self, ancilla, detect):
        # a single band on |n, n+1> with real coefficients, not a TMSV; the
        # reference applies the full transfer matrix of the detection outcome
        t = 0.63
        coeffs = np.random.default_rng(7).uniform(0.1, 1.0, 6)
        amps = np.zeros((6, 7))
        amps[np.arange(6), np.arange(1, 7)] = coeffs / np.linalg.norm(coeffs)
        transfer = np.array(
            [[beam_splitter_element(m_b, detect, n_b, ancilla, t) for n_b in range(7)]
             for m_b in range(7 + ancilla)]
        )
        expected = amps @ transfer.T
        expected_probability = float((np.abs(expected) ** 2).sum())
        result = herald(FockState(amps), ancilla, detect, t)
        assert result.probability == pytest.approx(expected_probability, rel=1e-15)
        np.testing.assert_allclose(
            result.state.amplitudes, expected / math.sqrt(expected_probability), rtol=0, atol=1e-15
        )

    def test_invalid_arguments(self):
        state = build_tmsv(0.5)
        with pytest.raises(ValueError, match="invalid transmissivity"):
            herald(state, 0, 1, 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            herald(state, -1, 0, 0.5)


class TestExtractCm:
    def test_vacuum_is_identity(self):
        amps = np.zeros((3, 3), dtype=complex)
        amps[0, 0] = 1.0
        cm = extract_cm(FockState(amps))
        assert (cm.a, cm.b, cm.c) == (1.0, 1.0, 0.0)

    def test_single_photon_variance(self):
        # |1, 0>: quadrature variance 3 on the excited mode, vacuum on the other
        amps = np.zeros((3, 3), dtype=complex)
        amps[1, 0] = 1.0
        means, moments = quadrature_moments(FockState(amps))
        np.testing.assert_allclose(means, np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(np.diag(moments), [3.0, 3.0, 1.0, 1.0], atol=1e-12)

    def test_moments_of_dense_state(self):
        # a random complex state with amplitudes in its last row and column;
        # the reference pads it by two photons per mode, so every product of
        # two truncated ladder operators acts exactly on it
        rng = np.random.default_rng(11)
        psi = rng.normal(size=(7, 6)) + 1j * rng.normal(size=(7, 6))
        psi /= np.linalg.norm(psi)
        padded = np.zeros((9, 8), dtype=complex)
        padded[:7, :6] = psi
        vec = padded.ravel()
        lower_a = np.kron(np.diag(np.sqrt(np.arange(1, 9)), k=1), np.eye(8))
        lower_b = np.kron(np.eye(9), np.diag(np.sqrt(np.arange(1, 8)), k=1))
        quads = [
            op
            for lower in (lower_a, lower_b)
            for op in (lower + lower.conj().T, 1j * (lower.conj().T - lower))
        ]
        ref_means = np.array([np.vdot(vec, q @ vec).real for q in quads])
        ref_second = np.array(
            [[np.vdot(vec, (qi @ qj + qj @ qi) @ vec).real / 2 for qj in quads] for qi in quads]
        )
        means, cm = quadrature_moments(FockState(psi))
        np.testing.assert_allclose(means, ref_means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            cm, ref_second - np.outer(ref_means, ref_means), rtol=0, atol=1e-12
        )

    def test_first_moments_vanish_along_pipeline(self):
        for r in (0.3, 0.9):
            state = build_tmsv(r)
            for ancilla, detect in ((0, 1), (1, 0), (1, 1), (0, 0)):
                heralded = herald(state, ancilla, detect, 0.85).state
                means, _ = quadrature_moments(heralded)
                assert np.abs(means).max() < 1e-10

    def test_phase_rotation_of_complex_amplitudes(self):
        # multiplying |n, n> amplitudes by e^{i theta n} rotates mode A's
        # phase space: the correlation block must become
        # sinh(2r) [[cos, sin], [sin, -cos]]
        r, theta = 0.6, 0.37
        state = build_tmsv(r)
        ns = np.arange(state.amplitudes.shape[0])
        rotated = FockState(state.amplitudes * np.exp(1j * theta * ns)[:, None])
        _, moments = quadrature_moments(rotated)
        s = math.sinh(2 * r)
        expected = s * np.array([[math.cos(theta), math.sin(theta)],
                                 [math.sin(theta), -math.cos(theta)]])
        np.testing.assert_allclose(moments[:2, 2:], expected, atol=1e-9)
        np.testing.assert_allclose(np.diag(moments)[:2], [math.cosh(2 * r)] * 2, atol=1e-9)

    def test_displaced_state_rejected(self):
        # a coherent-ish superposition has nonzero mean: must be refused
        amps = np.zeros((3, 3), dtype=complex)
        amps[0, 0] = amps[1, 0] = 1.0 / math.sqrt(2.0)
        with pytest.raises(ValueError, match="first moments"):
            extract_cm(FockState(amps))
