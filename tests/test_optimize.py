"""Optimizer behavior: grid, refinement, determinism, flags."""

import importlib
import itertools
import json
import math

import numpy as np
import pytest

from mmcvqkd import keyrate
from mmcvqkd.channel import ChannelParams, DetectorParams
from mmcvqkd.keyrate import RateParams, subchannel_rates_batch, total_rate_batch
from mmcvqkd.operations import OpKind, heralded_entries
from mmcvqkd.optimize import (
    G_MIN,
    MAX_SUPERMODE_SQUEEZING,
    MULTISTART,
    RATE_REL_TOL,
    T_MAX,
    T_MIN,
    OptimizationProblem,
    _grid_axes,
    _line_max,
    _starts,
    _top_indices,
    optimize,
)
from mmcvqkd.source import make_spectrum

import golden

# The package re-exports the function ``optimize`` under the module's name.
optimize_module = importlib.import_module("mmcvqkd.optimize")


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
        assert result.best_g == pytest.approx(problem.g_max, rel=1e-3)
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

    def test_clamped_optimum_of_zero_has_no_positive_key(self):
        # every sub-channel clamps to 0, so the optimum is exactly 0: no key
        result = optimize(_problem(channel=ChannelParams(eta_e=1e-3, epsilon=2.0), clamp=True))
        assert result.best_rate == 0.0
        assert result.no_positive_key

    def test_grid_convergence(self):
        for overrides in (
            {},
            dict(spectrum=make_spectrum("exp", 5, 2.0), op_kind=OpKind.PC0, k_sel=1),
        ):
            coarse = optimize(_problem(**overrides))
            fine = optimize(_problem(grid_points=50, **overrides))
            assert fine.best_rate == pytest.approx(coarse.best_rate, rel=5e-3)

    def test_none_stores_k_sel_zero(self):
        # NONE operates no supermode, whatever k_sel says.
        problem = _problem(spectrum=make_spectrum("exp", 5, 2.0), k_sel=3)
        assert problem.k_sel == 0
        assert optimize(problem) == optimize(_problem(spectrum=make_spectrum("exp", 5, 2.0)))

    @pytest.mark.parametrize("scenario", ["exp", "uniform", "single"])
    def test_problem_without_g_max_stores_the_gain_cap(self, scenario):
        # An explicit g_max is kept.
        spectrum = make_spectrum(scenario, 5)
        assert _problem(spectrum=spectrum).g_max == MAX_SUPERMODE_SQUEEZING / max(spectrum.lambdas)
        assert _problem(spectrum=spectrum, g_max=1.5).g_max == 1.5

    def test_transmissivity_grid_dense_toward_one(self):
        problem = _problem(
            spectrum=make_spectrum("exp", 5, 2.0), op_kind=OpKind.PC0, k_sel=1
        )
        t_axis = _grid_axes(problem)[1]
        assert np.all(np.diff(t_axis) > 0)
        # spacing shrinks toward T = 1
        assert np.diff(t_axis)[-1] < np.diff(t_axis)[0]

    def test_axis_ends_are_the_box_ends(self):
        problem = _problem(
            spectrum=make_spectrum("exp", 5, 2.0), op_kind=OpKind.PS1, k_sel=2,
            channel=ChannelParams.from_loss_db(30.0),
        )
        g_axis, *t_axes = _grid_axes(problem)
        assert (g_axis[0], g_axis[-1]) == (G_MIN, problem.g_max)
        assert all((t_axis[0], t_axis[-1]) == (T_MIN, T_MAX) for t_axis in t_axes)
        # Both operated supermodes clamp to 0 here and the optimum sits at T_MIN.
        assert optimize(problem).best_t == (T_MIN, T_MIN)

    def test_invalid_problems_rejected(self):
        with pytest.raises(ValueError, match="k_sel"):
            _problem(op_kind=OpKind.PC0, k_sel=0)
        with pytest.raises(ValueError, match="k_sel"):
            _problem(op_kind=OpKind.PC0, k_sel=6)
        with pytest.raises(ValueError, match="coarse grid"):
            _problem(op_kind=OpKind.PC0, k_sel=5)
        # NONE evaluates k_max * grid_points kernel points: 1e7 in both.
        with pytest.raises(ValueError, match="grid_points = 2000000: .* k_max = 5 supermodes"):
            _problem(grid_points=2_000_000)
        with pytest.raises(ValueError, match="grid_points = 1000: .* k_max = 10000 supermodes"):
            _problem(spectrum=make_spectrum("single", 10_000), grid_points=1000)
        with pytest.raises(ValueError, match="g_max 40.0 .* MAX_SUPERMODE_SQUEEZING = 2.5"):
            _problem(spectrum=make_spectrum("exp", 5, 2.0), g_max=40.0)

    def test_squeezing_message_in_full(self):
        # uniform over 4 supermodes: lambda_1 = 0.5, so r = 6 * 0.5 and the cap is 2.5 / 0.5
        with pytest.raises(ValueError) as excinfo:
            _problem(spectrum=make_spectrum("uniform", 4), g_max=6.0)
        assert str(excinfo.value) == (
            "g_max 6.0 squeezes the leading supermode to r = 3, above the limit "
            "MAX_SUPERMODE_SQUEEZING = 2.5, past which the key rate loses its precision; "
            "use g_max <= 5.0"
        )

    def test_kernel_points_at_the_grid_guard(self):
        # k_sel = 1 and n = 1000: k_sel n^2 + (k_max - k_sel) n kernel points are
        # 1,999,000 at k_max = 1000, under MAX_GRID_SIZE, and 2,001,000 at 1002
        operated = dict(op_kind=OpKind.PC0, k_sel=1, grid_points=1000)
        assert _problem(spectrum=make_spectrum("single", 1000), **operated).k_sel == 1
        with pytest.raises(ValueError) as excinfo:
            _problem(spectrum=make_spectrum("single", 1002), **operated)
        assert str(excinfo.value) == (
            "coarse grid of grid_points = 1000: 1000^2 points and 2001000 kernel points over "
            "k_max = 1002 supermodes; the larger exceeds MAX_GRID_SIZE = 2000000; lower "
            "grid_points, k_sel or k_max"
        )

    def test_non_finite_grid_names_its_first_g(self, monkeypatch):
        def nan_from_fourth_g(*args, **kwargs):
            rates = total_rate_batch(*args, **kwargs)
            rates[3:] = np.nan
            return rates

        monkeypatch.setattr(optimize_module, "total_rate_batch", nan_from_fourth_g)
        problem = _problem(grid_points=6)
        g_axis = _grid_axes(problem)[0]
        with pytest.raises(ValueError, match=rf"at G = {g_axis[3]:.6g}; lower g_max"):
            optimize(problem)


def _per_mode_reference(problem, gains, transmissivities):
    """Point-list totals mode by mode: one heralded_entries and one
    subchannel_rates_batch call per supermode, summed in ascending order."""
    k_sel = problem.k_sel
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
def test_open_mesh_grid_bit_identical_to_full_mesh(kind, memory, clamp, monkeypatch):
    # Both layouts (the open mesh, and point lists of n = 1 and n > 1) against
    # the per-mode reference. k_sel = 5 = k_max leaves no untouched supermode;
    # OpKind.NONE no operated one. A 4-point grid keeps the k_sel = 5 full mesh
    # at 4^6 points, less than one fold block, so each case runs again with
    # blocks of one G row and of n // 2 + 1 rows, whose last block is shorter.
    cases = ((1, 6), (2, 6), (5, 4))
    default_block = keyrate.FOLD_BLOCK_ELEMENTS
    for (k_sel, grid_points), rows in itertools.product(cases, (None, 1, "uneven")):
        problem = _problem(
            spectrum=make_spectrum("exp", 5, 2.0),
            op_kind=kind,
            k_sel=k_sel,
            rate=RateParams(memory=memory),
            clamp=clamp,
            grid_points=grid_points,
        )
        if rows == "uneven":
            rows = grid_points // 2 + 1
        block = default_block if rows is None else rows * grid_points**problem.k_sel
        monkeypatch.setattr(keyrate, "FOLD_BLOCK_ELEMENTS", block)
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


def _search(f, seed, lo=0.0, hi=1.0, abs_tol=1e-4):
    """(value, rate, evaluations) of one line search; every evaluated point
    must lie in [lo, hi]."""
    visited = []

    def line(x):
        visited.append(x)
        return float(f(x))

    value, rate = _line_max(line, seed, float(f(seed)), lo, hi, abs_tol)
    assert all(lo <= x <= hi for x in visited)
    return value, rate, len(visited)


class TestLineMax:
    def test_interior_maximum_within_abs_tol(self):
        for peak in (0.137, 0.5, 0.81):
            for seed in (0.02, 0.5, 0.97):
                value, rate, _ = _search(lambda x: math.exp(-30.0 * (x - peak) ** 2), seed)
                assert abs(value - peak) <= 1e-4, (peak, seed)
                assert rate == math.exp(-30.0 * (value - peak) ** 2)

    @pytest.mark.parametrize("slope", [1.0, -1.0])
    def test_maximum_at_each_bound(self, slope):
        bound = 1.0 if slope > 0 else 0.0
        for seed in (0.3, 0.5, 0.7):
            value, rate, _ = _search(lambda x: slope * x, seed)
            assert abs(value - bound) <= 1e-4, (slope, seed)
            assert rate == slope * value

    def test_flat_line_returns_the_seed(self):
        for seed in (0.0, 0.25, 1.0):
            value, rate, calls = _search(lambda x: 0.0, seed)
            assert (value, rate) == (seed, 0.0)
            assert calls > 0

    def test_never_below_the_seeded_rate(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            freq, phase = rng.uniform(5.0, 40.0), rng.uniform(0.0, 2.0 * math.pi)
            f = lambda x: math.sin(freq * x + phase)  # noqa: E731
            seed = float(rng.uniform())
            value, rate, _ = _search(f, seed)
            assert 0.0 <= value <= 1.0
            assert rate >= f(seed)
            assert rate == f(value)

    def test_fewer_evaluations_than_golden_section(self):
        # Golden section evaluates two points, then one per shrink by 1/phi
        # until the bracket is within abs_tol.
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        for abs_tol in (1e-3, 1e-4, 1e-6):
            golden = 2 + math.ceil(math.log(abs_tol) / math.log(inv_phi))
            value, _, calls = _search(lambda x: -((x - 0.3141) ** 2), 0.5, abs_tol=abs_tol)
            assert abs(value - 0.3141) <= abs_tol
            assert calls < golden / 2, (abs_tol, calls, golden)


@pytest.mark.parametrize(
    "shape",
    [1, 2, 3, 17, 1000, (13, 5), (25, 25, 25)]
    + [(rows, 6, 6) for rows in range(1, MULTISTART + 2)],
    ids=lambda shape: "x".join(str(n) for n in np.atleast_1d(shape)),
)
def test_top_indices_match_reversed_stable_argsort(shape):
    # A grid with more than one axis is searched by G row (axis 0), so the
    # multi-axis shapes give ties across G rows and at the MULTISTART-th row
    # maximum (the 0/1 grids), and fewer G rows than MULTISTART + 1.
    size = math.prod(np.atleast_1d(shape))
    rng = np.random.default_rng(size)
    grids = [
        np.zeros(shape),
        np.maximum(rng.integers(-6, 3, shape), 0).astype(float),  # mostly exact zeros
        rng.integers(0, 2, shape).astype(float),
        rng.uniform(size=shape),
        (rng.uniform(size=shape) < 3.0 / size).astype(float),  # a few above a zero plateau
    ]
    if shape in (17, 1000):
        problem = _problem(
            spectrum=make_spectrum("exp", 5, 2.0), op_kind=OpKind.PS1, k_sel=2,
            channel=ChannelParams.from_loss_db(18.0), grid_points=10,
        )
        gains, *transmissivities = np.meshgrid(*_grid_axes(problem), indexing="ij", sparse=True)
        clamped = total_rate_batch(
            problem.spectrum.lambdas, problem.op_kind, gains, tuple(transmissivities),
            problem.channel, problem.detector, problem.rate,
        )
        assert np.count_nonzero(clamped == 0.0) > clamped.size // 4
        grids += [clamped, clamped.ravel()]
    for rates in grids:
        before = rates.copy()
        expected = np.argsort(rates.ravel(), kind="stable")[::-1][:MULTISTART].tolist()
        assert _top_indices(rates, MULTISTART) == expected, rates.shape
        assert np.array_equal(rates, before)


class TestStarts:
    def test_t_neighbour_at_the_same_g_is_skipped(self):
        rates = np.zeros((5, 5))
        rates[2, 2], rates[2, 3], rates[3, 2] = 3.0, 2.0, 1.0
        assert _starts(rates, (2, 2)) == [(2, 2), (3, 2)]
        # Diagonal T steps are one step away too; two steps are not.
        rates = np.zeros((4, 4, 4))
        rates[1, 1, 1], rates[1, 2, 0], rates[1, 3, 1] = 3.0, 2.0, 1.0
        assert _starts(rates, (1, 1, 1)) == [(1, 1, 1), (1, 3, 1)]

    def test_g_neighbour_is_kept(self):
        rates = np.zeros((5, 5))
        rates[2, 2], rates[1, 2], rates[3, 3] = 3.0, 2.0, 1.0
        assert _starts(rates, (2, 2)) == [(2, 2), (1, 2), (3, 3)]

    def test_plateau_starts_two_t_steps_apart_are_kept(self):
        # A plateau over the whole T axis at the top G: the tie rule picks
        # (24, 0), the multistart (24, 24), (24, 23), (24, 22).
        rates = np.zeros((25, 25))
        rates[24, :] = 1.0
        assert _starts(rates, (24, 0)) == [(24, 0), (24, 24), (24, 22)]

    def test_one_axis_grid_drops_only_exact_duplicates(self):
        rates = np.array([0.0, 1.0, 3.0, 2.0, 3.0])
        assert _starts(rates, (2,)) == [(2,), (4,), (3,)]
        assert _starts(np.zeros(3), (0,)) == [(0,), (2,), (1,)]


def test_second_g_maximum_in_one_bracket_is_kept():
    # exp/0-PC/k_sel = 1/memory: the rate along G has two maxima inside one
    # grid bracket. The start in the neighbouring G cell finds the better one,
    # near G = 2.6449; dropping G-neighbours too loses 2.1e-2 relative here.
    # The optimum's bits are the optimum panel's second-g-maximum row.
    result = optimize(_problem(
        spectrum=make_spectrum("exp", 5, 2.0), op_kind=OpKind.PC0, k_sel=1,
        channel=ChannelParams.from_loss_db(33.75), rate=RateParams(memory=True),
    ))
    assert result.best_g == pytest.approx(2.6449, abs=1e-4)


def test_box_end_is_reached():
    # The line search stops 2 * tol1 short of a bracket end; the box-end probe
    # takes T_2 the rest of the way to T_MAX (the cli_optimize_no_memory run).
    problem = _problem(
        spectrum=make_spectrum("exp", 5, 2.0), op_kind=OpKind.PC1, k_sel=2,
        channel=ChannelParams.from_loss_db(22.0), rate=RateParams(memory=False),
        grid_points=5,
    )
    result = optimize(problem)
    assert result.best_t[1] == T_MAX
    [record] = json.loads(golden.committed("cli_optimize_no_memory.json")[0])
    assert (result.best_g, list(result.best_t)) == (record["best_G"], record["best_T"])


def test_none_reaches_the_gain_cap():
    # NONE at 0 dB: the best start sits on the gain cap, and the starts next
    # to it stop 2 * tol1 short of it; their box-end probes evaluate the cap.
    # The optimum's bits are the optimum panel's first row.
    problem = _problem(
        spectrum=make_spectrum("exp", 5, 2.0), channel=ChannelParams.from_loss_db(0.0)
    )
    result = optimize(problem)
    assert result.best_g == problem.g_max


def test_memory_optimum_not_below_dense_scan():
    # k_sel = 1 with memory: a 401 x 401 (G, T) scan over the whole box is an
    # independent lower bound on the true maximum.
    problem = _problem(
        spectrum=make_spectrum("exp", 5, 2.0), op_kind=OpKind.PC1, k_sel=1,
        channel=ChannelParams.from_loss_db(22.0), rate=RateParams(memory=True),
    )
    result = optimize(problem)
    gains = np.linspace(G_MIN, problem.g_max, 401)[:, None]
    transmissivities = 1.0 - np.geomspace(1.0 - T_MIN, 1.0 - T_MAX, 401)[None, :]
    scan = total_rate_batch(
        problem.spectrum.lambdas, problem.op_kind, gains, (transmissivities,),
        problem.channel, problem.detector, problem.rate,
    )
    assert result.best_rate >= scan.max() * (1.0 - RATE_REL_TOL)
    assert not result.g_at_bound and T_MIN < result.best_t[0] < T_MAX


def test_refinement_stays_in_the_box():
    problem = _problem(
        spectrum=make_spectrum("exp", 5, 2.0), op_kind=OpKind.PC0, k_sel=2,
        channel=ChannelParams.from_loss_db(30.0), rate=RateParams(memory=True),
    )
    result = optimize(problem)
    assert result.trace
    assert len(result.trace) == result.evaluations - problem.grid_points**3
    for params, rate in result.trace:
        assert len(params) == 1 + problem.k_sel and isinstance(rate, float)
        assert G_MIN <= params[0] <= problem.g_max
        assert all(T_MIN <= t <= T_MAX for t in params[1:])
