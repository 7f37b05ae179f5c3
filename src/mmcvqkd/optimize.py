"""Deterministic, derivative-free maximization of the total key rate.

The search space is the source gain G plus one beam-splitter transmissivity
per operated supermode. A coarse tensor grid (log-spaced G, T spaced
logarithmically toward 1 where subtraction-type optima concentrate) seeds a
coordinate-wise golden-section refinement from the best few grid points.
Grid + refinement is preferred over gradient methods: the rate surface has
ridges near physicality boundaries and reproducibility matters more than
speed at this dimensionality (at most four axes).

Sub-channel k depends only on (G * lambda_k, T_k), so the grid is evaluated
on an open mesh: the kernel sees each operated supermode on its (G, T_k)
plane and each untouched one on the G axis alone, and the full grid exists
only as the broadcast sum (times the product of heralding probabilities
without memory) of these per-mode tables. The optimum is bit-identical to
evaluating every grid point in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, DetectorParams
from .keyrate import RateParams, total_rate_batch
from .operations import OpKind
from .source import SupermodeSpectrum

# Keep max_k r_k at or below ~2.5 (about 21.7 dB of squeezing) by default.
MAX_SUPERMODE_SQUEEZING = 2.5
DEFAULT_GRID_POINTS = 25
# Ceiling on max_k r_k for an explicit g_max. 1 - tanh(r)^2 ~ 4 exp(-2r) is
# formed by cancellation: it keeps about 8 significant digits at r = 10, and
# from r ~ 17.5 on the covariance entries turn into garbage, inf or NaN.
MAX_BOUND_SQUEEZING = 10.0
RATE_TIE_ATOL = 1e-12
# Memory guard on the combined grid: the kernel only sees per-mode tables of
# at most grid_points^2 points, but the summed rate array and its argsort
# hold every grid point (25^4 is fine, 25^5 is not).
MAX_GRID_SIZE = 2_000_000
# Search box (G from G_MIN to effective_g_max, each T_k in [T_MIN, T_MAX]) and
# refinement: MULTISTART grid starts, golden sections down to PARAM_TOL of the
# axis span, coordinate sweeps until the relative gain is <= RATE_REL_TOL.
G_MIN = 0.01
T_MIN = 0.01
T_MAX = 0.999
RATE_REL_TOL = 1e-5
PARAM_TOL = 1e-4
MULTISTART = 3

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def check_bound_squeezing(name: str, gain: float, spectrum: SupermodeSpectrum) -> None:
    """Reject a gain that squeezes the leading supermode past MAX_BOUND_SQUEEZING."""
    peak = gain * max(spectrum.lambdas)
    if peak > MAX_BOUND_SQUEEZING:
        raise ValueError(
            f"{name} {gain} squeezes the leading supermode to r = {peak:.4g}, "
            f"above the limit MAX_BOUND_SQUEEZING = {MAX_BOUND_SQUEEZING}, past which "
            f"1 - tanh(r)^2 loses its precision; use {name} <= "
            f"{MAX_BOUND_SQUEEZING / max(spectrum.lambdas):.6g}"
        )


@dataclass(frozen=True)
class OptimizationProblem:
    """Scenario, operation and bounds for one key-rate maximization."""

    spectrum: SupermodeSpectrum
    op_kind: OpKind
    k_sel: int
    channel: ChannelParams
    detector: DetectorParams = field(default_factory=DetectorParams)
    rate: RateParams = field(default_factory=RateParams)
    clamp: bool = True
    g_max: float | None = None
    grid_points: int = DEFAULT_GRID_POINTS
    keep_trace: bool = False

    def __post_init__(self):
        if self.op_kind is not OpKind.NONE and not 1 <= self.k_sel <= self.spectrum.k_max:
            raise ValueError(f"k_sel {self.k_sel} out of range for {self.spectrum.k_max} modes")
        if self.grid_points < 2:
            raise ValueError("grid must have at least 2 points per axis")
        if self.g_max is not None and not G_MIN < self.g_max < math.inf:
            raise ValueError(f"invalid G bounds ({G_MIN}, {self.g_max})")
        check_bound_squeezing("g_max", self.effective_g_max, self.spectrum)
        if self.grid_points ** (1 + self.n_transmissivities) > MAX_GRID_SIZE:
            raise ValueError(
                f"coarse grid of {self.grid_points}^{1 + self.n_transmissivities} points "
                f"exceeds {MAX_GRID_SIZE}; lower grid_points or k_sel"
            )

    @property
    def effective_g_max(self) -> float:
        if self.g_max is not None:
            return self.g_max
        return MAX_SUPERMODE_SQUEEZING / max(self.spectrum.lambdas)

    @property
    def n_transmissivities(self) -> int:
        return 0 if self.op_kind is OpKind.NONE else self.k_sel


@dataclass(frozen=True)
class OptimizationResult:
    best_rate: float
    best_g: float
    best_t: tuple[float, ...]
    evaluations: int
    no_positive_key: bool
    g_at_bound: bool
    trace: tuple[tuple[tuple[float, ...], float], ...] | None = None


class _Objective:
    """Counts evaluations and optionally records (params, rate) pairs."""

    def __init__(self, problem: OptimizationProblem):
        self.problem = problem
        self.evaluations = 0
        self.trace: list[tuple[tuple[float, ...], float]] = []

    def batch(
        self, gains: np.ndarray, transmissivities: np.ndarray | tuple[np.ndarray, ...]
    ) -> np.ndarray:
        p = self.problem
        rates = total_rate_batch(
            p.spectrum.lambdas,
            p.op_kind,
            gains,
            transmissivities,
            p.channel,
            p.detector,
            p.rate,
            clamp=p.clamp,
        )
        self.evaluations += rates.size
        return rates

    def point(self, params: np.ndarray) -> float:
        rate = float(
            self.batch(np.array([params[0]]), np.array([params[1:]]))[0]
        )
        if self.problem.keep_trace:
            self.trace.append((tuple(params), rate))
        return rate


def _grid_axes(problem: OptimizationProblem) -> list[np.ndarray]:
    n = problem.grid_points
    g_axis = np.geomspace(G_MIN, problem.effective_g_max, n)
    axes = [g_axis]
    if problem.n_transmissivities:
        # Dense toward T_MAX: equal log spacing in (1 - T).
        t_axis = 1.0 - np.geomspace(1.0 - T_MAX, 1.0 - T_MIN, n)
        axes.extend([t_axis[::-1].copy()] * problem.n_transmissivities)
    return axes


def _golden_section(objective: _Objective, params: np.ndarray, axis: int,
                    lo: float, hi: float, abs_tol: float) -> tuple[float, float]:
    """Maximize along one coordinate inside [lo, hi]; returns (value, rate)."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    pc = params.copy()
    pd = params.copy()
    pc[axis] = c
    pd[axis] = d
    fc = objective.point(pc)
    fd = objective.point(pd)
    while b - a > abs_tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            pc[axis] = c
            fc = objective.point(pc)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            pd[axis] = d
            fd = objective.point(pd)
    return (c, fc) if fc >= fd else (d, fd)


def optimize(problem: OptimizationProblem) -> OptimizationResult:
    """Coarse-grid search followed by coordinate-wise golden-section refinement.

    Deterministic: ties within RATE_TIE_ATOL resolve to the lexicographically
    smallest (G, T_1, T_2, ...) grid point; refinement never returns less than
    the best grid rate.
    """
    objective = _Objective(problem)
    axes = _grid_axes(problem)
    gains, *transmissivities = np.meshgrid(*axes, indexing="ij", sparse=True)
    rates = objective.batch(gains, tuple(transmissivities)).ravel()
    grid_shape = tuple(len(axis) for axis in axes)

    def grid_params(index: int) -> np.ndarray:
        return np.array([axis[i] for axis, i in zip(axes, np.unravel_index(index, grid_shape))])

    best_rate = float(rates.max())
    # Lexicographically first point within the tie band (row-major ravel order).
    best_index = int(np.nonzero(rates >= best_rate - RATE_TIE_ATOL)[0][0])
    starts = [best_index]
    order = np.argsort(rates, kind="stable")[::-1]
    for idx in order[:MULTISTART]:
        if int(idx) not in starts:
            starts.append(int(idx))

    lower = np.array([G_MIN] + [T_MIN] * problem.n_transmissivities)
    upper = np.array([problem.effective_g_max] + [T_MAX] * problem.n_transmissivities)
    best_params = grid_params(best_index)
    best_refined = float(rates[best_index])

    for start in starts:
        params = grid_params(start)
        current = float(rates[start])
        # Bracket each coordinate by its neighboring grid values.
        brackets = []
        for axis, grid in enumerate(axes):
            pos = int(np.searchsorted(grid, params[axis]))
            lo = grid[max(pos - 1, 0)]
            hi = grid[min(pos + 1, len(grid) - 1)]
            brackets.append((max(float(lo), lower[axis]), min(float(hi), upper[axis])))
        for _ in range(12):
            previous = current
            for axis, (lo, hi) in enumerate(brackets):
                width = hi - lo
                if width <= 0.0:
                    continue
                center = params[axis]
                lo_i = max(lower[axis], min(center - width / 2.0, upper[axis] - width))
                hi_i = min(upper[axis], lo_i + width)
                abs_tol = PARAM_TOL * (upper[axis] - lower[axis])
                value, rate = _golden_section(objective, params, axis, lo_i, hi_i, abs_tol)
                if rate > current:
                    current = rate
                    params[axis] = value
            if current - previous <= RATE_REL_TOL * max(abs(current), 1e-12):
                break
        if current > best_refined + RATE_TIE_ATOL:
            best_refined = current
            best_params = params

    g_span = problem.effective_g_max - G_MIN
    return OptimizationResult(
        best_rate=best_refined,
        best_g=float(best_params[0]),
        best_t=tuple(float(v) for v in best_params[1:]),
        evaluations=objective.evaluations,
        no_positive_key=bool(best_refined <= 0.0),
        g_at_bound=bool(
            (problem.effective_g_max - best_params[0]) <= 2.0 * PARAM_TOL * g_span
        ),
        trace=tuple(objective.trace) if problem.keep_trace else None,
    )
