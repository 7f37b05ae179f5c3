"""Mutual information, Holevo bound, sub-channel and total key rates."""

import itertools
import math

import numpy as np
import pytest

from mmcvqkd import keyrate
from mmcvqkd.channel import (
    MAX_DETECTOR_NOISE,
    MAX_EXCESS_NOISE,
    ChannelParams,
    DetectorParams,
    build_pipeline,
)
from mmcvqkd.gaussian import TwoModeCM, UnphysicalStateError
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
from mmcvqkd.optimize import MAX_SUPERMODE_SQUEEZING
from mmcvqkd.source import SourceParams, epr_cm, make_spectrum

from conftest import entangling_cloner_chi

IDEAL_CH = ChannelParams(eta_e=1.0, epsilon=0.0)
IDEAL_DET = DetectorParams(eta_d=1.0, nu=1.0)
DEFAULT_CH = ChannelParams.from_loss_db(10.0)
DEFAULT_DET = DetectorParams()
# Kernel against dense path, in bits per pulse.
RATE_ATOL = 1e-10


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
    @pytest.mark.parametrize("kind", list(OpKind))
    @pytest.mark.parametrize(
        "eps, nu",
        [
            (MAX_EXCESS_NOISE, 1.1),
            (0.1, MAX_DETECTOR_NOISE),
            # The corners of the noise box.
            (0.0, MAX_DETECTOR_NOISE),
            (MAX_EXCESS_NOISE, MAX_DETECTOR_NOISE),
            (MAX_EXCESS_NOISE, 1.0),
        ],
        ids=["eps", "nu", "no-eps-max-nu", "max-eps-max-nu", "max-eps-min-nu"],
    )
    def test_batch_matches_scalar_at_the_noise_limits(self, kind, eps, nu):
        det = DetectorParams(nu=nu)
        rate = RateParams()
        for r, t, loss_db in itertools.product(
            (0.05, 1.0, MAX_SUPERMODE_SQUEEZING), (0.01, 0.5, 0.999), (0, 20, 35)
        ):
            ch = ChannelParams.from_loss_db(loss_db, epsilon=eps)
            scalar = subchannel_rate(apply_op(NonGaussianOpSpec(kind, t), r), ch, det, rate)
            a, b, c, _ = heralded_entries(kind, math.tanh(r) ** 2, t)
            batch, _, _ = subchannel_rates_batch(
                np.array([float(a)]), np.array([float(b)]), np.array([float(c)]), ch, det, rate
            )
            assert float(batch[0]) == pytest.approx(scalar, abs=RATE_ATOL)

    def test_unphysical_spectrum_is_rejected(self):
        # a = b = 1 with c = 0.5 breaks the uncertainty bound: through a lossless,
        # noiseless channel nu_minus = sqrt(0.75), and the conditional spectrum
        # holds the same value. The kernel must raise, as the dense path does,
        # not clamp them to 1.
        unphysical = (1.0, 1.0, 0.5)
        physical = heralded_entries(OpKind.PS1, math.tanh(1.0) ** 2, 0.5)[:3]
        # Alone, and in one batch beside a physical point.
        for batch in ([unphysical], [physical, unphysical]):
            a, b, c = np.array(batch, dtype=float).T
            with pytest.raises(UnphysicalStateError) as excinfo:
                subchannel_rates_batch(a, b, c, IDEAL_CH, DEFAULT_DET, RateParams())
            assert excinfo.value.min_eigenvalue == pytest.approx(math.sqrt(0.75), rel=1e-12)

    @pytest.mark.parametrize("kind, k_sel", [(OpKind.NONE, 0), (OpKind.PC1, 1), (OpKind.PC1, 5)],
                             ids=["none", "ksel-1", "ksel-kmax"])
    @pytest.mark.parametrize("layout", ["points-1", "points-50", "open-mesh"])
    def test_dispatch_count_is_fixed(self, monkeypatch, rng, layout, kind, k_sel):
        # One heralded_entries call per non-empty group (operated, untouched)
        # and one kernel call, whatever the layout, batch size or k_sel.
        calls = {"heralded_entries": 0, "subchannel_rates_batch": 0}
        for name, original in [(name, getattr(keyrate, name)) for name in calls]:
            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(keyrate, name, counted)
        spectrum = make_spectrum("exp", 5, 2.0)
        if layout == "open-mesh":
            t_axes = [np.linspace(0.3, 0.9, 3)] * k_sel
            gains, *ts = np.meshgrid(np.linspace(0.2, 1.0, 4), *t_axes, indexing="ij", sparse=True)
            ts = tuple(ts)
        else:
            n = int(layout.split("-")[1])
            gains, ts = rng.uniform(0.2, 1.0, n), rng.uniform(0.3, 0.9, (n, k_sel))
        total_rate_batch(
            spectrum.lambdas, kind, gains, ts, DEFAULT_CH, DEFAULT_DET, RateParams(memory=False)
        )
        groups = int(k_sel > 0) + int(k_sel < spectrum.k_max)
        assert calls == {"heralded_entries": groups, "subchannel_rates_batch": 1}

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
