"""Mutual information, Holevo bound, sub-channel and total key rates."""

import math

import numpy as np
import pytest

from mmcvqkd.channel import ChannelParams, DetectorParams, build_pipeline
from mmcvqkd.gaussian import TwoModeCM
from mmcvqkd.keyrate import (
    RateParams,
    holevo_bound,
    mutual_information,
    subchannel_rate,
    subchannel_rates_batch,
    total_rate,
    total_rate_batch,
)
from mmcvqkd.operations import NonGaussianOpSpec, OpKind, apply_op, apply_to_supermodes, heralded_entries
from mmcvqkd.source import SourceParams, epr_cm, make_spectrum

from conftest import entangling_cloner_chi

IDEAL_CH = ChannelParams(eta_e=1.0, epsilon=0.0)
IDEAL_DET = DetectorParams(eta_d=1.0, nu=1.0)
DEFAULT_CH = ChannelParams.from_loss_db(10.0)
DEFAULT_DET = DetectorParams()


def _kernel_information(cm, ch, det):
    """The batch kernel's closed-form mutual information at one point."""
    return subchannel_rates_batch([cm.a], [cm.b], [cm.c], ch, det, RateParams())[1][0]


class TestMutualInformation:
    def test_uncorrelated_modes_share_nothing(self):
        cm = TwoModeCM(2.0, 2.0, 0.0)
        pipeline = build_pipeline(cm, DEFAULT_CH, DEFAULT_DET)
        assert mutual_information(pipeline) == pytest.approx(0.0, abs=1e-14)

    def test_ideal_system_closed_form(self):
        r = 1.0
        pipeline = build_pipeline(epr_cm(r), IDEAL_CH, IDEAL_DET)
        assert mutual_information(pipeline) == pytest.approx(
            math.log2(math.cosh(2 * r)), abs=1e-12
        )

    def test_dual_path_equality_default_point(self):
        cm = epr_cm(1.0)
        pipeline = build_pipeline(cm, DEFAULT_CH, DEFAULT_DET)
        assert mutual_information(pipeline) == pytest.approx(
            _kernel_information(cm, DEFAULT_CH, DEFAULT_DET), abs=1e-12
        )

    def test_dual_path_equality_random(self, rng):
        for _ in range(100):
            kind = OpKind(rng.choice([k.value for k in OpKind]))
            t = rng.uniform(0.05, 0.95)
            a, b, c, _ = heralded_entries(kind, math.tanh(rng.uniform(0.05, 2.2)) ** 2, t)
            cm = TwoModeCM(float(a), float(b), float(c))
            ch = ChannelParams(eta_e=rng.uniform(0.001, 1.0), epsilon=rng.uniform(0.0, 0.5))
            det = DetectorParams(eta_d=rng.uniform(0.3, 1.0), nu=rng.uniform(1.0, 1.5))
            pipeline = build_pipeline(cm, ch, det)
            assert mutual_information(pipeline) == pytest.approx(
                _kernel_information(cm, ch, det), abs=1e-12
            )


class TestHolevoBound:
    def test_lossless_noiseless_leaks_nothing(self):
        pipeline = build_pipeline(epr_cm(1.0), IDEAL_CH, IDEAL_DET)
        assert abs(holevo_bound(pipeline)) <= 1e-9

    def test_monotone_in_excess_noise(self):
        values = []
        for eps in np.linspace(0.0, 0.5, 11):
            ch = ChannelParams(eta_e=0.25, epsilon=eps)
            values.append(holevo_bound(build_pipeline(epr_cm(1.0), ch, DEFAULT_DET)))
        assert all(x < y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("kind,t", [(OpKind.NONE, 1.0), (OpKind.PC0, 0.7)])
    def test_against_entangling_cloner(self, kind, t):
        # The cloner purification reproduces the Holevo bound exactly when the
        # channel input is pure, which holds for the plain EPR state and 0-PC.
        cm = apply_op(NonGaussianOpSpec(kind, t), 1.0).cm
        pipeline = build_pipeline(cm, DEFAULT_CH, DEFAULT_DET)
        reference = entangling_cloner_chi(cm.a, cm.b, cm.c, DEFAULT_CH, DEFAULT_DET)
        assert holevo_bound(pipeline) == pytest.approx(reference, abs=1e-8)

    def test_nonnegative_over_random_draws(self, rng):
        for _ in range(60):
            kind = OpKind(rng.choice([k.value for k in OpKind]))
            a, b, c, _ = heralded_entries(
                kind, math.tanh(rng.uniform(0.0, 2.2)) ** 2, rng.uniform(0.05, 0.95)
            )
            ch = ChannelParams(eta_e=rng.uniform(0.001, 1.0), epsilon=rng.uniform(0.0, 0.5))
            det = DetectorParams(eta_d=rng.uniform(0.3, 1.0), nu=rng.uniform(1.0, 1.5))
            pipeline = build_pipeline(TwoModeCM(float(a), float(b), float(c)), ch, det)
            assert holevo_bound(pipeline) >= -1e-9


class TestSubchannelRate:
    def test_vacuum_supermode_ideal_system_contributes_nothing(self):
        outcome = apply_op(NonGaussianOpSpec(OpKind.NONE), 0.0)
        rate = subchannel_rate(outcome, IDEAL_CH, IDEAL_DET, RateParams())
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_ideal_system_rate_is_mutual_information(self):
        outcome = apply_op(NonGaussianOpSpec(OpKind.NONE), 1.0)
        rate = subchannel_rate(outcome, IDEAL_CH, IDEAL_DET, RateParams(eta_r=1.0))
        assert rate == pytest.approx(math.log2(math.cosh(2.0)), abs=1e-9)
        assert rate > 0.0

    def test_positive_at_30db_with_tuned_gain(self):
        outcome = apply_op(NonGaussianOpSpec(OpKind.NONE), 1.28)
        rate = subchannel_rate(outcome, ChannelParams.from_loss_db(30.0), DEFAULT_DET, RateParams())
        assert rate > 0.0

    def test_non_increasing_in_excess_noise(self):
        rates = []
        for eps in np.linspace(0.0, 0.4, 9):
            ch = ChannelParams(eta_e=0.25, epsilon=eps)
            rates.append(
                subchannel_rate(apply_op(NonGaussianOpSpec(OpKind.NONE), 1.0), ch, DEFAULT_DET, RateParams())
            )
        assert all(x >= y for x, y in zip(rates, rates[1:]))


class TestTotalRate:
    def test_all_vacuum_source_ideal_system(self):
        source = SourceParams(0.0, make_spectrum("uniform", 5))
        outcomes = apply_to_supermodes([], source)
        result = total_rate(outcomes, IDEAL_CH, IDEAL_DET, RateParams())
        assert result.total == pytest.approx(0.0, abs=1e-12)

    def test_single_mode_source_total_is_single_rate(self):
        source = SourceParams(1.0, make_spectrum("single", 5))
        outcomes = apply_to_supermodes([], source)
        result = total_rate(outcomes, IDEAL_CH, IDEAL_DET, RateParams())
        single = subchannel_rate(outcomes[0], IDEAL_CH, IDEAL_DET, RateParams())
        assert result.total == pytest.approx(single, abs=1e-12)
        assert result.per_mode_rates[1:] == pytest.approx((0.0,) * 4, abs=1e-12)

    def test_clamped_total_nonnegative_and_no_memory_ordering(self, rng):
        for _ in range(10):
            source = SourceParams(rng.uniform(0.2, 2.0), make_spectrum("exp", 5, 2.0))
            specs = [NonGaussianOpSpec(OpKind.PS1, rng.uniform(0.3, 0.95)) for _ in range(2)]
            outcomes = apply_to_supermodes(specs, source)
            ch = ChannelParams(eta_e=rng.uniform(0.001, 0.9), epsilon=0.1)
            with_memory = total_rate(outcomes, ch, DEFAULT_DET, RateParams(memory=True))
            without = total_rate(outcomes, ch, DEFAULT_DET, RateParams(memory=False))
            assert with_memory.total >= 0.0
            assert without.total <= with_memory.total + 1e-15

    def test_result_fields_consistent(self):
        source = SourceParams(1.0, make_spectrum("exp", 5, 2.0))
        specs = [NonGaussianOpSpec(OpKind.PC0, 0.8)]
        outcomes = apply_to_supermodes(specs, source)
        result = total_rate(outcomes, DEFAULT_CH, DEFAULT_DET, RateParams(), clamp=True)
        assert result.total == pytest.approx(
            sum(max(r, 0.0) for r in result.per_mode_rates), abs=1e-15
        )
        for r_k, outcome in zip(result.per_mode_rates, outcomes):
            pipeline = build_pipeline(outcome.cm, DEFAULT_CH, DEFAULT_DET)
            info, chi = mutual_information(pipeline), holevo_bound(pipeline)
            assert r_k == pytest.approx(0.95 * info - chi, abs=1e-12)


class TestBatchPath:
    def test_batch_matches_scalar_over_random_draws(self, rng):
        ch = ChannelParams(eta_e=0.21, epsilon=0.13)
        det = DetectorParams(eta_d=0.71, nu=1.08)
        rate = RateParams(eta_r=0.9)
        for _ in range(40):
            kind = OpKind(rng.choice([k.value for k in OpKind]))
            r = rng.uniform(0.02, 2.4)
            t = rng.uniform(0.05, 0.95)
            outcome = apply_op(NonGaussianOpSpec(kind, t), r)
            scalar = subchannel_rate(outcome, ch, det, rate)
            a, b, c, _ = heralded_entries(kind, math.tanh(r) ** 2, t)
            batch, _, _ = subchannel_rates_batch(
                np.array([float(a)]), np.array([float(b)]), np.array([float(c)]), ch, det, rate
            )
            assert float(batch[0]) == pytest.approx(scalar, abs=1e-10)

    def test_multimode_total_factorizes(self, rng):
        # Batched totals equal the per-mode scalar path combined by hand.
        spectrum = make_spectrum("exp", 5, 2.0)
        for memory in (True, False):
            rate = RateParams(memory=memory)
            for _ in range(5):
                gain = rng.uniform(0.3, 2.5)
                ts = rng.uniform(0.2, 0.95, size=2)
                source = SourceParams(gain, spectrum)
                specs = [NonGaussianOpSpec(OpKind.PS1, float(t)) for t in ts]
                outcomes = apply_to_supermodes(specs, source)
                scalar = total_rate(outcomes, DEFAULT_CH, DEFAULT_DET, rate, clamp=True)
                batch = total_rate_batch(
                    spectrum.lambdas,
                    OpKind.PS1,
                    np.array([gain]),
                    ts[None, :],
                    DEFAULT_CH,
                    DEFAULT_DET,
                    rate,
                    clamp=True,
                )
                assert float(batch[0]) == pytest.approx(scalar.total, abs=1e-10)
