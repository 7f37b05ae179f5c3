"""Deterministic, derivative-free maximization of the total key rate.

The search space is the source gain G plus one beam-splitter transmissivity
per operated supermode. A coarse tensor grid (log-spaced G, T spaced
logarithmically toward 1 where subtraction-type optima concentrate) seeds a
coordinate-wise refinement from the best few grid points: one seeded Brent
line search per coordinate (parabolic steps with a golden-section fallback)
in a window as wide as the start's grid cell. Grid + refinement is preferred
over gradient methods: the rate surface has ridges near physicality
boundaries and reproducibility matters more than speed at this
dimensionality (at most four axes).

Sub-channel k depends only on (G * lambda_k, T_k), so the grid is evaluated
on an open mesh: the kernel sees each operated supermode on its (G, T_k)
plane and each untouched one on the G axis alone, and the full grid exists
only as the broadcast sum (times the product of heralding probabilities
without memory) of these per-mode tables, folded into one array a block of G
rows at a time. The optimum is bit-identical to evaluating every grid point
in full. The multistart searches only the G rows whose best rate reaches the
MULTISTART-th best row maximum; every one of the MULTISTART best rates lies
in such a row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, DetectorParams
from .keyrate import RateParams, total_rate_batch
from .operations import OpKind
from .source import SupermodeSpectrum

# Bound on max_k r_k (about 21.7 dB of squeezing): the default gain cap and
# the ceiling on an explicit one. The n=1 kernel and the dense path drift
# apart at the corners of the noise box: 1.24e-10 at r = 2.435, where the
# kernel's eigvals returns the conditional symplectic eigenvalue that is
# identically 1 about 1e-11 off in its square and g has unbounded slope at 1,
# and 1.75e-10 at r = 3. From r ~ 4.2 the dense record's two-mode covariance
# matrix fails its uncertainty gate.
MAX_SUPERMODE_SQUEEZING = 2.5
DEFAULT_GRID_POINTS = 25
RATE_TIE_ATOL = 1e-12
# Memory guard on the grid call. Its combined grid is one float64 array of
# grid_points^(1 + k_sel) points (25^4 is fine, 25^5 is not), folded from the
# per-mode tables in cache-sized blocks with no grid-sized temporary; with the
# start pick's copy of its rows (the whole grid on a flat plateau) that is at
# most 16 B per point. Its kernel evaluates a (G, T) table of grid_points^2
# points per operated supermode and a G axis per untouched one,
# k_sel * n^2 + (k_max - k_sel) * n points at about 800 B of peak memory each.
# The larger of the two counts is bounded: NONE at n = 2e6 over five
# supermodes, or n = 1000 over 10,000, would be 1e7 kernel points, about 8 GB.
MAX_GRID_SIZE = 2_000_000
# Search box: G from G_MIN to the problem's g_max, each T_k in [T_MIN, T_MAX].
# Refinement runs from at most 1 + MULTISTART starts (``_starts``), each for at
# most MAX_SWEEPS coordinate sweeps, which stop once a sweep gains <=
# RATE_REL_TOL relative; a line search stops at PARAM_TOL of the axis span.
G_MIN = 0.01
T_MIN = 0.01
T_MAX = 0.999
RATE_REL_TOL = 1e-5
PARAM_TOL = 1e-4
MULTISTART = 3
MAX_SWEEPS = 12

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(2.2e-16)  # scipy's fminbound uses the same constant


def gain_cap(spectrum: SupermodeSpectrum) -> float:
    """The largest gain that squeezes no supermode past MAX_SUPERMODE_SQUEEZING."""
    return MAX_SUPERMODE_SQUEEZING / max(spectrum.lambdas)


def check_bound_squeezing(name: str, gain: float, spectrum: SupermodeSpectrum) -> None:
    """Reject a gain above the gain cap."""
    limit = gain_cap(spectrum)
    if gain > limit:
        raise ValueError(
            f"{name} {gain} squeezes the leading supermode to r = {gain * max(spectrum.lambdas):.4g}, "
            f"above the limit MAX_SUPERMODE_SQUEEZING = {MAX_SUPERMODE_SQUEEZING}, past which "
            f"the key rate loses its precision; use {name} <= {limit!r}"
        )


@dataclass(frozen=True)
class OptimizationProblem:
    """Scenario, operation and bounds for one key-rate maximization.

    Built without ``g_max``, a problem stores ``gain_cap(spectrum)`` there, so
    ``dataclasses.replace`` with another spectrum must pass ``g_max=None``.
    """

    spectrum: SupermodeSpectrum
    op_kind: OpKind
    k_sel: int
    channel: ChannelParams
    detector: DetectorParams = field(default_factory=DetectorParams)
    rate: RateParams = field(default_factory=RateParams)
    clamp: bool = True
    g_max: float | None = None  # None is stored as gain_cap(spectrum)
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if self.op_kind is OpKind.NONE:  # operates no supermode
            object.__setattr__(self, "k_sel", 0)
        elif not 1 <= self.k_sel <= self.spectrum.k_max:
            raise ValueError(f"k_sel {self.k_sel} out of range for {self.spectrum.k_max} modes")
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be at least 2, got {self.grid_points}")
        if self.g_max is None:
            object.__setattr__(self, "g_max", gain_cap(self.spectrum))
        elif not G_MIN < self.g_max < math.inf:
            raise ValueError(f"g_max must be finite and above G_MIN = {G_MIN}, got {self.g_max}")
        check_bound_squeezing("g_max", self.g_max, self.spectrum)
        n, k_max = self.grid_points, self.spectrum.k_max
        kernel_points = self.k_sel * n**2 + (k_max - self.k_sel) * n
        if max(n ** (1 + self.k_sel), kernel_points) > MAX_GRID_SIZE:
            raise ValueError(
                f"coarse grid of grid_points = {n}: {n}^{1 + self.k_sel} points and "
                f"{kernel_points} kernel points over k_max = {k_max} supermodes; the larger "
                f"exceeds MAX_GRID_SIZE = {MAX_GRID_SIZE}; lower grid_points, k_sel or k_max"
            )


@dataclass(frozen=True)
class OptimizationResult:
    best_rate: float
    best_g: float
    best_t: tuple[float, ...]
    evaluations: int
    no_positive_key: bool
    g_at_bound: bool
    # Every (params, rate) evaluated after the grid, in order.
    trace: tuple[tuple[tuple[float, ...], float], ...]


class _Objective:
    """The only way a solve evaluates the rate: ``grid`` once, then ``point``
    (one kernel call, appended to the trace)."""

    def __init__(self, problem: OptimizationProblem):
        # Called with (gains, transmissivities) in either layout.
        self._rates = functools.partial(
            total_rate_batch, problem.spectrum.lambdas, problem.op_kind, ch=problem.channel,
            det=problem.detector, rate=problem.rate, clamp=problem.clamp,
        )
        self.trace: list[tuple[tuple[float, ...], float]] = []

    def grid(self, axes: list[np.ndarray]) -> np.ndarray:
        """Rates on the open mesh of ``axes``, shaped like the grid."""
        gains, *transmissivities = np.meshgrid(*axes, indexing="ij", sparse=True)
        return self._rates(gains, tuple(transmissivities))

    def point(self, params: np.ndarray) -> float:
        rate = float(self._rates(np.array([params[0]]), np.array([params[1:]]))[0])
        self.trace.append((tuple(params), rate))
        return rate


def _grid_axes(problem: OptimizationProblem) -> list[np.ndarray]:
    n = problem.grid_points
    axes = [np.geomspace(G_MIN, problem.g_max, n)]
    if problem.k_sel:
        # Dense toward T_MAX: equal log spacing in (1 - T). 1 - (1 - T_MIN)
        # rounds above T_MIN, so the ends are set to the box ends.
        t_axis = 1.0 - np.geomspace(1.0 - T_MAX, 1.0 - T_MIN, n)[::-1]
        t_axis[[0, -1]] = T_MIN, T_MAX
        axes.extend([t_axis] * problem.k_sel)
    return axes


def _top_indices(rates: np.ndarray, count: int, row_max: np.ndarray | None = None) -> list[int]:
    """Flat indices of the ``count`` largest rates, largest first.

    Equal rates put the larger index first, the order of
    ``np.argsort(rates.ravel(), kind="stable")[::-1]``, without sorting the
    grid. Only the rows (along axis 0) whose maximum reaches the
    ``count``-th largest row maximum are searched: at least ``count`` entries
    reach it, so every pick lies in such a row. Those rows are gathered in
    ascending order and reversed, so the first maximum of an argmax is the
    last one in index order; each pick then masks its entry. ``row_max`` is
    the rows' maxima if the caller has them.
    """
    rows = rates.reshape(len(rates), -1)
    if row_max is None:
        row_max = rows.max(axis=1)
    kept = np.flatnonzero(row_max >= np.sort(row_max)[-min(count, len(row_max))])
    backwards = rows[kept[::-1], ::-1].ravel()
    picked = []
    for _ in range(min(count, backwards.size)):
        index = int(np.argmax(backwards))
        row, column = divmod(backwards.size - 1 - index, rows.shape[1])
        picked.append(int(kept[row]) * rows.shape[1] + column)
        backwards[index] = -np.inf
    return picked


def _starts(
    grid: np.ndarray, best: tuple[int, ...], row_max: np.ndarray | None = None
) -> list[tuple[int, ...]]:
    """Grid cells refinement starts from, ``best`` first.

    The candidates are ``best``, then the MULTISTART largest rates. A
    candidate is skipped when a start already kept has the same G index and
    lies within one grid step of it on every T axis (clustering multistart):
    its search would refine the same grid cell again. Candidates in another G
    cell are kept, since the rate along G can have two maxima in one bracket.
    With no T axes this drops exact duplicates only. ``row_max`` is passed
    on to ``_top_indices``.
    """
    kept = [tuple(int(i) for i in best)]
    for index in _top_indices(grid, MULTISTART, row_max):
        cell = tuple(int(i) for i in np.unravel_index(index, grid.shape))
        if not any(
            cell[0] == other[0] and all(abs(a - b) <= 1 for a, b in zip(cell[1:], other[1:]))
            for other in kept
        ):
            kept.append(cell)
    return kept


def _brent_tol(x: float, abs_tol: float) -> float:
    """Brent's local tolerance tol1 at x, as in scipy's fminbound."""
    return _SQRT_EPS * abs(x) + abs_tol / 3.0


def _along(evaluate, params: np.ndarray, axis: int, value: float) -> float:
    """``evaluate`` at params with params[axis] replaced by value."""
    point = params.copy()
    point[axis] = value
    return evaluate(point)


def _line_max(f, x: float, current: float, lo: float, hi: float, abs_tol: float) -> tuple[float, float]:
    """Maximize f(x) inside [lo, hi]; returns (x, f(x)).

    Brent's bounded search (parabolic steps with a golden-section fallback),
    seeded with x and its known value ``current``. A step replaces the
    incumbent only if it is strictly better, so the result is never below
    ``current`` and a flat line returns the seed. Termination is fminbound's:
    it stops once both ends of the bracket lie within 2 * tol1 of the
    incumbent x (``_brent_tol``).
    """
    a, b = lo, hi
    # Minimizes -rate. x is the best point so far, w the second best and v the
    # previous w; ``prior`` is the step before last, or for a golden step the
    # part of the bracket it cuts into.
    w = v = x
    fx = fw = fv = -current
    step = prior = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol1 = _brent_tol(x, abs_tol)
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return x, -fx
        parabolic = False
        if abs(prior) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # The parabola's vertex must lie inside (a, b) and move less than
            # half the step before last, which forces the bracket to shrink.
            limit, prior = prior, step
            if abs(p) < abs(0.5 * q * limit) and q * (a - x) < p < q * (b - x):
                parabolic = True
                step = p / q
                if (x + step) - a < tol2 or b - (x + step) < tol2:
                    step = tol1 if mid >= x else -tol1
        if not parabolic:
            prior = (a if x >= mid else b) - x
            step = _GOLDEN * prior
        u = x + (step if abs(step) >= tol1 else (tol1 if step >= 0.0 else -tol1))
        fu = -f(u)
        if fu < fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def optimize(problem: OptimizationProblem) -> OptimizationResult:
    """Coarse-grid search followed by coordinate-wise line-search refinement.

    Deterministic: ties within RATE_TIE_ATOL resolve to the lexicographically
    smallest (G, T_1, T_2, ...) grid point; refinement never returns less than
    the best grid rate.
    """
    objective = _Objective(problem)
    axes = _grid_axes(problem)
    grid = objective.grid(axes)

    # One pass over the grid: the maxima of its G rows give the best rate
    # (a NaN propagates), the first row in the tie band and the start rows.
    rows = grid.reshape(len(grid), -1)
    row_max = rows.max(axis=1)
    best_rate = float(row_max.max())
    if not math.isfinite(best_rate):
        first = np.unravel_index(np.argmax(~np.isfinite(grid)), grid.shape)
        raise ValueError(
            f"key rate is not finite on the coarse grid at G = {axes[0][first[0]]:.6g}; "
            f"lower g_max (now {problem.g_max:.6g})"
        )
    # Lexicographically first point within the tie band (row-major order):
    # it lies in the first row whose maximum reaches the band.
    tie = best_rate - RATE_TIE_ATOL
    row = int(np.argmax(row_max >= tie))
    best = np.unravel_index(row * rows.shape[1] + int(np.argmax(rows[row] >= tie)), grid.shape)
    starts = _starts(grid, best, row_max)

    lower = [G_MIN] + [T_MIN] * problem.k_sel
    upper = [problem.g_max] + [T_MAX] * problem.k_sel
    abs_tols = [PARAM_TOL * (hi - lo) for lo, hi in zip(lower, upper)]
    best_refined = float(grid[starts[0]])

    for cell in starts:
        params = np.array([axis[i] for axis, i in zip(axes, cell)])
        if cell == starts[0]:  # the grid optimum stands unless a refined start beats it
            best_params = params.copy()
        current = float(grid[cell])
        # Each window spans the start's two grid neighbours, or one step at an
        # axis end; the axes lie inside the box.
        widths = [float(g[min(i + 1, len(g) - 1)] - g[max(i - 1, 0)]) for g, i in zip(axes, cell)]
        for _ in range(MAX_SWEEPS):
            previous = current
            for axis, width in enumerate(widths):
                center = float(params[axis])
                lo = max(lower[axis], min(center - width / 2.0, upper[axis] - width))
                hi = min(upper[axis], lo + width)
                line = functools.partial(_along, objective.point, params, axis)
                value, rate = _line_max(line, center, current, lo, hi, abs_tols[axis])
                # The search stops 2 * tol1 short of a window end: when the
                # incumbent lies that close to a box end, probe the end once.
                end = min(lower[axis], upper[axis], key=lambda bound: abs(value - bound))
                if 0.0 < abs(value - end) <= 2.0 * _brent_tol(value, abs_tols[axis]):
                    end_rate = line(end)
                    if end_rate > rate:
                        value, rate = end, end_rate
                if rate > current:
                    current = rate
                    params[axis] = value
            if current - previous <= RATE_REL_TOL * max(abs(current), 1e-12):
                break
        if current > best_refined + RATE_TIE_ATOL:
            best_refined = current
            best_params = params

    return OptimizationResult(
        best_rate=best_refined,
        best_g=float(best_params[0]),
        best_t=tuple(float(v) for v in best_params[1:]),
        evaluations=grid.size + len(objective.trace),
        no_positive_key=bool(best_refined <= 0.0),
        g_at_bound=bool((problem.g_max - best_params[0]) <= 2.0 * abs_tols[0]),
        trace=tuple(objective.trace),
    )
