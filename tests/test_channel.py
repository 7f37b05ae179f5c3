"""Channel evolution and detector assembly against symplectic constructions."""

import math

import numpy as np
import pytest

from mmcvqkd.channel import (
    BOB_MODE_INDEX,
    ChannelParams,
    DetectorParams,
    build_pipeline,
    channel_evolve,
    detector_assemble,
)
from mmcvqkd.gaussian import homodyne_condition, symplectic_eigenvalues
from mmcvqkd.source import epr_cm

from conftest import bs_symplectic, pinv_conditional, two_mode_matrix


class TestChannelEvolve:
    def test_identity_channel(self):
        cm = epr_cm(1.0)
        out = channel_evolve(cm, ChannelParams(eta_e=1.0, epsilon=0.0))
        assert (out.a, out.b, out.c) == (cm.a, cm.b, cm.c)

    def test_full_loss_limit(self):
        cm = epr_cm(1.0)
        out = channel_evolve(cm, ChannelParams(eta_e=1e-12, epsilon=0.0))
        assert out.b == pytest.approx(1.0, abs=1e-11)
        assert abs(out.c) < 1e-5

    def test_hand_evaluated_point(self):
        out = channel_evolve(epr_cm(1.0), ChannelParams(eta_e=0.5, epsilon=0.1))
        assert out.a == pytest.approx(math.cosh(2.0), abs=1e-12)
        assert out.b == pytest.approx(0.5 * (math.cosh(2.0) + 0.1) + 0.5, abs=1e-12)
        assert out.c == pytest.approx(math.sqrt(0.5) * math.sinh(2.0), abs=1e-12)

    def test_correlation_monotone_in_transmissivity(self):
        cm = epr_cm(0.8)
        correlations = [
            channel_evolve(cm, ChannelParams(eta_e=eta, epsilon=0.1)).c
            for eta in np.linspace(0.05, 1.0, 20)
        ]
        assert all(x < y for x, y in zip(correlations, correlations[1:]))

    def test_loss_db_round_trip(self):
        ch = ChannelParams.from_loss_db(30.0)
        assert ch.eta_e == pytest.approx(1e-3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(eta_e=0.0)
        with pytest.raises(ValueError):
            ChannelParams(eta_e=0.5, epsilon=-0.1)
        with pytest.raises(ValueError):
            DetectorParams(eta_d=1.2)
        with pytest.raises(ValueError):
            DetectorParams(nu=0.9)
        # NaN compares false both ways; the checks must still reject it.
        with pytest.raises(ValueError, match="excess noise"):
            ChannelParams(eta_e=0.5, epsilon=float("nan"))
        with pytest.raises(ValueError, match="thermal noise"):
            DetectorParams(nu=float("nan"))
        for loss_db in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="loss"):
                ChannelParams.from_loss_db(loss_db)


class TestDetectorAssemble:
    def test_perfect_detector_decouples_ancilla(self):
        after = channel_evolve(epr_cm(1.0), ChannelParams(eta_e=0.6, epsilon=0.1))
        pipeline = detector_assemble(after, DetectorParams(eta_d=1.0, nu=1.1))
        pre = pipeline.pre_measurement
        # (C, D) block is the untouched noise EPR pair, uncoupled from A and B
        np.testing.assert_allclose(pre.mode_block(0, 1), np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(pre.mode_block(1, 3), np.zeros((2, 2)), atol=1e-12)
        # conditional variance of A matches the plain two-mode Schur complement
        two_mode = homodyne_condition(after.to_general(), 1, "x")
        assert pipeline.conditional.entries[0, 0] == pytest.approx(
            two_mode.entries[0, 0], abs=1e-12
        )

    def test_noiseless_detector_has_vacuum_ancilla(self):
        after = channel_evolve(epr_cm(1.0), ChannelParams(eta_e=0.6, epsilon=0.1))
        pipeline = detector_assemble(after, DetectorParams(eta_d=0.68, nu=1.0))
        pre = pipeline.pre_measurement
        np.testing.assert_allclose(pre.mode_block(2, 2), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(pre.mode_block(1, 2), np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(pre.mode_block(2, 3), np.zeros((2, 2)), atol=1e-12)

    def test_b_variance_formula(self):
        after = channel_evolve(epr_cm(0.9), ChannelParams(eta_e=0.4, epsilon=0.1))
        det = DetectorParams(eta_d=0.68, nu=1.1)
        pipeline = detector_assemble(after, det)
        expected = det.eta_d * after.b + (1.0 - det.eta_d) * det.nu
        np.testing.assert_allclose(
            pipeline.pre_measurement.mode_block(3, 3), expected * np.eye(2), atol=1e-12
        )

    def test_full_matrix_against_beam_splitter_construction(self):
        after = channel_evolve(epr_cm(1.0), ChannelParams(eta_e=0.5, epsilon=0.1))
        det = DetectorParams(eta_d=0.68, nu=1.1)
        pipeline = detector_assemble(after, det)
        # independent route: product state (A, B) x EPR(nu), beam splitter on
        # (B, C), then permute modes to (A, C, D, B)
        product = np.zeros((8, 8))
        product[:4, :4] = two_mode_matrix(after.a, after.b, after.c)
        product[4:, 4:] = two_mode_matrix(det.nu, det.nu, math.sqrt(det.nu**2 - 1.0))
        mixer = bs_symplectic(4, 1, 2, det.eta_d)
        mixed = mixer @ product @ mixer.T
        perm = [0, 2, 3, 1]
        idx = [2 * p + q for p in perm for q in range(2)]
        np.testing.assert_allclose(
            pipeline.pre_measurement.entries, mixed[np.ix_(idx, idx)], atol=1e-12
        )

    def test_pre_measurement_physical(self, rng):
        for _ in range(20):
            after = channel_evolve(
                epr_cm(rng.uniform(0.0, 2.4)),
                ChannelParams(eta_e=rng.uniform(0.001, 1.0), epsilon=rng.uniform(0.0, 0.5)),
            )
            det = DetectorParams(eta_d=rng.uniform(0.2, 1.0), nu=rng.uniform(1.0, 1.5))
            pre = detector_assemble(after, det).pre_measurement
            assert symplectic_eigenvalues(pre).min() >= 1.0 - 1e-6


class TestConditionOnBob:
    def test_uncorrelated_input_unchanged(self):
        # vacuum through a lossy channel with a noiseless detector: no
        # correlations to B, so conditioning changes nothing
        after = channel_evolve(epr_cm(0.0), ChannelParams(eta_e=0.3, epsilon=0.0))
        pipeline = detector_assemble(after, DetectorParams(eta_d=0.68, nu=1.0))
        keep = list(range(6))
        np.testing.assert_allclose(
            pipeline.conditional.entries,
            pipeline.pre_measurement.entries[np.ix_(keep, keep)],
            atol=1e-12,
        )

    def test_against_pseudoinverse_conditioning(self):
        pipeline = build_pipeline(
            epr_cm(1.0), ChannelParams.from_loss_db(10.0), DetectorParams()
        )
        reference = pinv_conditional(pipeline.pre_measurement.entries, 3, "x")
        np.testing.assert_allclose(pipeline.conditional.entries, reference, atol=1e-10)

    def test_quadrature_argument(self):
        pipeline = build_pipeline(
            epr_cm(1.0), ChannelParams.from_loss_db(10.0), DetectorParams()
        )
        conditional_p = homodyne_condition(pipeline.pre_measurement, BOB_MODE_INDEX, "p")
        reference = pinv_conditional(pipeline.pre_measurement.entries, 3, "p")
        np.testing.assert_allclose(conditional_p.entries, reference, atol=1e-10)
