"""Optimizer behavior: grid, refinement, determinism, flags."""

import numpy as np
import pytest

from mmcvqkd.channel import ChannelParams, DetectorParams
from mmcvqkd.keyrate import RateParams, subchannel_rates_batch, total_rate_batch
from mmcvqkd.operations import OpKind, heralded_entries
from mmcvqkd.optimize import T_MAX, T_MIN, OptimizationProblem, optimize, _grid_axes
from mmcvqkd.source import make_spectrum


def _problem(**overrides):
    base = dict(
        spectrum=make_spectrum("single", 5),
        op_kind=OpKind.NONE,
        k_sel=0,
        channel=ChannelParams.from_loss_db(15.0),
        detector=DetectorParams(),
        rate=RateParams(),
    )
    base.update(overrides)
    return OptimizationProblem(**base)


class TestOptimize:
    def test_refinement_not_below_grid(self):
        problem = _problem()
        result = optimize(problem)
        axes = _grid_axes(problem)
        mesh = np.meshgrid(*axes, indexing="ij")
        gains = mesh[0].ravel()
        rates = total_rate_batch(
            problem.spectrum.lambdas,
            problem.op_kind,
            gains,
            np.zeros((gains.size, 0)),
            problem.channel,
            problem.detector,
            problem.rate,
        )
        assert result.best_rate >= float(rates.max()) - 1e-15

    def test_unbounded_ideal_system_hits_gain_bound(self):
        problem = _problem(
            channel=ChannelParams(eta_e=1.0, epsilon=0.0),
            detector=DetectorParams(eta_d=1.0, nu=1.0),
            rate=RateParams(eta_r=1.0),
        )
        result = optimize(problem)
        assert result.g_at_bound
        assert result.best_g == pytest.approx(problem.effective_g_max, rel=1e-3)
        assert not result.no_positive_key

    def test_no_positive_key_flag(self):
        # crushing excess noise at high loss: every configuration loses
        problem = _problem(
            channel=ChannelParams(eta_e=1e-3, epsilon=2.0),
            clamp=False,
        )
        result = optimize(problem)
        assert result.no_positive_key
        assert result.best_rate <= 0.0

    def test_grid_convergence(self):
        for overrides in (
            {},
            dict(spectrum=make_spectrum("exp", 5, 2.0), op_kind=OpKind.PC0, k_sel=1),
        ):
            coarse = optimize(_problem(**overrides))
            fine = optimize(_problem(grid_points=50, **overrides))
            assert fine.best_rate == pytest.approx(coarse.best_rate, rel=5e-3)

    def test_deterministic(self):
        problem = _problem(
            spectrum=make_spectrum("exp", 5, 2.0), op_kind=OpKind.PS1, k_sel=2
        )
        first = optimize(problem)
        second = optimize(problem)
        assert first.best_rate == second.best_rate
        assert first.best_g == second.best_g
        assert first.best_t == second.best_t
        assert first.evaluations == second.evaluations

    def test_trace_recorded_on_request(self):
        result = optimize(_problem(keep_trace=True))
        assert result.trace
        params, rate = result.trace[0]
        assert len(params) == 1 and isinstance(rate, float)
        assert result.evaluations >= len(result.trace)

    def test_transmissivity_grid_dense_toward_one(self):
        problem = _problem(
            spectrum=make_spectrum("exp", 5, 2.0), op_kind=OpKind.PC0, k_sel=1
        )
        t_axis = _grid_axes(problem)[1]
        assert t_axis[0] == pytest.approx(T_MIN)
        assert t_axis[-1] == pytest.approx(T_MAX)
        assert np.all(np.diff(t_axis) > 0)
        # spacing shrinks toward T = 1
        assert np.diff(t_axis)[-1] < np.diff(t_axis)[0]

    def test_invalid_problems_rejected(self):
        with pytest.raises(ValueError, match="k_sel"):
            _problem(op_kind=OpKind.PC0, k_sel=0)
        with pytest.raises(ValueError, match="k_sel"):
            _problem(op_kind=OpKind.PC0, k_sel=6)
        with pytest.raises(ValueError, match="coarse grid"):
            _problem(op_kind=OpKind.PC0, k_sel=5)
        with pytest.raises(ValueError, match="g_max 40.0 .* MAX_BOUND_SQUEEZING"):
            _problem(spectrum=make_spectrum("exp", 5, 2.0), g_max=40.0)


def _per_mode_reference(problem, gains, transmissivities):
    """Point-list totals mode by mode: one heralded_entries and one
    subchannel_rates_batch call per supermode, summed in ascending order."""
    k_sel = problem.n_transmissivities
    args = (problem.channel, problem.detector, problem.rate)
    total, probability = 0.0, 1.0
    for k, lam in enumerate(problem.spectrum.lambdas):
        xi_sq = np.tanh(gains * lam) ** 2
        if k < k_sel:
            a, b, c, p = heralded_entries(problem.op_kind, xi_sq, transmissivities[:, k])
        else:
            a, b, c, p = heralded_entries(OpKind.NONE, xi_sq, np.ones_like(gains))
        rates_k, _, _ = subchannel_rates_batch(a, b, c, *args)
        total = total + (np.maximum(rates_k, 0.0) if problem.clamp else rates_k)
        probability = probability * p
    if not problem.rate.memory:
        total = total * probability
    return total


@pytest.mark.parametrize("kind", list(OpKind))
@pytest.mark.parametrize("memory", [True, False])
@pytest.mark.parametrize("clamp", [True, False])
def test_open_mesh_grid_bit_identical_to_full_mesh(kind, memory, clamp):
    # Both layouts (the open mesh, and point lists of n = 1 and n > 1) against
    # the per-mode reference. k_sel = 5 = k_max leaves no untouched supermode;
    # OpKind.NONE no operated one. A 4-point grid keeps the k_sel = 5 full mesh
    # at 4^6 points.
    for k_sel, grid_points in ((1, 6), (2, 6), (5, 4)):
        problem = _problem(
            spectrum=make_spectrum("exp", 5, 2.0),
            op_kind=kind,
            k_sel=k_sel,
            rate=RateParams(memory=memory),
            clamp=clamp,
            grid_points=grid_points,
        )
        axes = _grid_axes(problem)
        args = (problem.channel, problem.detector, problem.rate)
        gains, *transmissivities = np.meshgrid(*axes, indexing="ij", sparse=True)
        open_mesh = total_rate_batch(
            problem.spectrum.lambdas, kind, gains, tuple(transmissivities), *args, clamp=clamp
        )
        full = [m.ravel() for m in np.meshgrid(*axes, indexing="ij")]
        full_t = np.stack(full[1:], axis=-1) if len(full) > 1 else np.zeros((full[0].size, 0))
        points = total_rate_batch(
            problem.spectrum.lambdas, kind, full[0], full_t, *args, clamp=clamp
        )
        reference = _per_mode_reference(problem, full[0], full_t)
        assert open_mesh.shape == tuple(len(axis) for axis in axes), k_sel
        assert np.array_equal(open_mesh.ravel(), reference), k_sel
        assert np.array_equal(points, reference), k_sel
        # Refinement evaluates one point per call and the grid many per call:
        # a sample of n points must give the same bits either way.
        sample = np.linspace(0, full[0].size - 1, 25).astype(int)
        batch = total_rate_batch(
            problem.spectrum.lambdas, kind, full[0][sample], full_t[sample], *args, clamp=clamp
        )
        singles = [
            total_rate_batch(
                problem.spectrum.lambdas, kind, full[0][i : i + 1], full_t[i : i + 1], *args,
                clamp=clamp,
            )
            for i in sample
        ]
        assert all(single.shape == (1,) for single in singles), k_sel
        assert np.array_equal(batch, reference[sample]), k_sel
        assert np.array_equal(np.concatenate(singles), reference[sample]), k_sel


# Default-grid k_sel = 3 optima recorded before the grid moved to an open
# mesh; the grid optimum, and with it the whole solve, must reproduce exactly.
@pytest.mark.parametrize(
    "kind, loss_db, memory, pinned",
    [
        (OpKind.PC1, 22.0, False, (
            "0x1.23c77acda3eb6p-9", "0x1.e1db5945e224ap+0",
            ("0x1.ff7ced916872bp-1",) * 3, 390873,
        )),
        (OpKind.PC0, 30.0, True, (
            "0x1.7755b8c35aa34p-12", "0x1.912085ebba058p+1",
            ("0x1.81e90c269066cp-1", "0x1.c793e988d234cp-1", "0x1.ff7ced916872bp-1"), 391034,
        )),
    ],
)
def test_k3_optimum_pinned(kind, loss_db, memory, pinned):
    result = optimize(_problem(
        spectrum=make_spectrum("exp", 5, 2.0),
        op_kind=kind,
        k_sel=3,
        channel=ChannelParams.from_loss_db(loss_db),
        rate=RateParams(memory=memory),
    ))
    observed = (
        result.best_rate.hex(),
        result.best_g.hex(),
        tuple(t.hex() for t in result.best_t),
        result.evaluations,
    )
    assert observed == pinned
