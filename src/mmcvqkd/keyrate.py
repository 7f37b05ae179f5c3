"""Secret key rate against collective attacks, per sub-channel and in total.

Each supermode forms an independent sub-channel with rate
R_k = eta_r * I_k - chi_k, where I_k is the Alice-Bob mutual information for
reverse reconciliation and chi_k the Holevo bound on the eavesdropper's
information about Bob's homodyne outcomes. Totals either sum the R_k directly
(heralding done ahead of time into a quantum memory) or carry the combined
heralding probability as a prefactor (no memory).

``subchannel_rates_batch`` / ``total_rate_batch`` are the vectorized path the
optimizer evaluates; the scalar ``subchannel_rate`` / ``total_rate`` path on
the dense pipeline gives the CLI's final record, and tests assert both paths
agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelParams, DetectorParams, PipelineCMs, build_pipeline
from .gaussian import entropy_g, symplectic_eigenvalues, two_mode_symplectic
from .operations import OpKind, OpOutcome, heralded_entries

DEFAULT_RECONCILIATION_EFFICIENCY = 0.95
# Floor on eta_r, for the reason at channel.MIN_DETECTION_EFFICIENCY.
MIN_RECONCILIATION_EFFICIENCY = 0.5
# chi is nonnegative up to rounding. Both paths set a chi within this of zero
# to exactly zero; a more negative chi passes through unchanged.
CHI_CLAMP_TOL = 1e-9
# The open-mesh grid is folded from its per-mode tables this many elements at
# a time, in blocks of whole rows along its first (G) axis. 2**15 float64 are
# 256 KiB, so a block's running sum and probability product stay in cache
# instead of streaming grid-sized temporaries through memory.
FOLD_BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class RateParams:
    """Reverse-reconciliation efficiency and quantum-memory availability."""

    eta_r: float = DEFAULT_RECONCILIATION_EFFICIENCY
    memory: bool = True

    def __post_init__(self):
        if not MIN_RECONCILIATION_EFFICIENCY <= self.eta_r <= 1.0:
            raise ValueError(
                f"eta_r (reconciliation efficiency) must be in [MIN_RECONCILIATION_EFFICIENCY = "
                f"{MIN_RECONCILIATION_EFFICIENCY:g}, 1], got {self.eta_r}"
            )


@dataclass(frozen=True)
class KeyRateResult:
    """Per-supermode diagnostics plus the protocol total (bits per pulse)."""

    per_mode_rates: tuple[float, ...]
    per_mode_probs: tuple[float, ...]
    total: float


def mutual_information(pipeline: PipelineCMs) -> float:
    """I = (1/2) log2(V_A / V_{A|B}) from the assembled pipeline CMs."""
    v_a = pipeline.after_channel.a
    v_a_cond = float(pipeline.conditional.entries[0, 0])
    if v_a_cond <= 0.0:
        raise ValueError(f"unphysical pipeline: conditional variance {v_a_cond}")
    return 0.5 * math.log2(v_a / v_a_cond)


def holevo_bound(pipeline: PipelineCMs) -> float:
    """chi = sum g(alpha) over the channel-output CM minus the conditional CM.

    The first two symplectic eigenvalues come from the (A, B) state at the
    channel output, the remaining three from (A, C, D) conditioned on Bob's
    homodyne. Rounding noise can push chi a hair below zero for pure states;
    values within CHI_CLAMP_TOL of zero are clamped to exactly zero.
    """
    alphas_channel = symplectic_eigenvalues(pipeline.after_channel)
    alphas_conditional = symplectic_eigenvalues(pipeline.conditional)
    chi = float(np.sum(entropy_g(alphas_channel)) - np.sum(entropy_g(alphas_conditional)))
    if -CHI_CLAMP_TOL < chi < 0.0:
        return 0.0
    return chi


def subchannel_rate(
    outcome: OpOutcome, ch: ChannelParams, det: DetectorParams, rate: RateParams
) -> float:
    """R = eta_r * I - chi for one supermode (may be negative)."""
    pipeline = build_pipeline(outcome.cm, ch, det)
    return rate.eta_r * mutual_information(pipeline) - holevo_bound(pipeline)


def total_rate(
    outcomes: Sequence[OpOutcome],
    ch: ChannelParams,
    det: DetectorParams,
    rate: RateParams,
    clamp: bool = True,
) -> KeyRateResult:
    """Combine per-supermode rates into the protocol total.

    With ``clamp`` the sender discards loss-making supermodes
    (f(R) = max(R, 0)); without it the literal sum is used. Without a quantum
    memory the total carries the product of the heralding probabilities.
    Supermodes are accumulated in ascending order for bit-reproducibility.
    """
    rates = [subchannel_rate(outcome, ch, det, rate) for outcome in outcomes]
    probs = [outcome.probability for outcome in outcomes]
    total = 0.0
    for r_k in rates:
        total += max(r_k, 0.0) if clamp else r_k
    if not rate.memory:
        total *= math.prod(probs)
    return KeyRateResult(per_mode_rates=tuple(rates), per_mode_probs=tuple(probs), total=total)


def subchannel_rates_batch(
    a, b, c, ch: ChannelParams, det: DetectorParams, rate: RateParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, I, chi) arrays for batches of post-operation CM entries (a, b, c).

    Same physics as the scalar path: ``two_mode_symplectic`` (shared with
    ``TwoModeCM``) for the channel output, and the conditional (A, C, D) CM
    split into decoupled x/p 3x3 blocks whose product yields the squared
    symplectic eigenvalues. The blocks are filled entry by entry (the
    detector's constant entries are Python floats), and all five symplectic
    eigenvalues go through one ``entropy_g`` pass, the dense path's entropy: an
    eigenvalue below 1 - PHYSICALITY_TOL anywhere in the batch raises
    ``UnphysicalStateError``, and a NaN passes through. A call makes the same
    number of array operations whatever the batch shape, and refinement's
    one-point evaluations pay little beyond the batched ``eigvals``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    eta_e, eps = ch.eta_e, ch.epsilon
    eta_d, nu = det.eta_d, det.nu
    shape = np.broadcast(a, b, c).shape

    c_prime = math.sqrt(eta_e) * c
    b_prime = eta_e * (b + eps) + (1.0 - eta_e)
    b_dprime = eta_d * b_prime + (1.0 - eta_d) * nu

    noise = eta_d * ((1.0 - eta_e) + eta_e * eps) + (1.0 - eta_d) * nu
    info = -0.5 * np.log2(1.0 - eta_d * eta_e * c**2 / (eta_d * eta_e * a * b + noise * a))

    # Symplectic eigenvalues: the channel-output pair in slots 0-1, the three
    # conditional ones in slots 2-4.
    nus = np.empty(shape + (5,))
    nus[..., 0], nus[..., 1] = two_mode_symplectic(a, b_prime, c_prime)

    # conditional (A, C, D) CM: blocks are m*I + n*Z minus the homodyne update,
    # which only touches the x sector, so x and p decouple into 3x3 blocks.
    gamma = np.empty(shape + (3,))
    gamma[..., 0] = math.sqrt(eta_d) * c_prime
    gamma[..., 1] = math.sqrt((1.0 - eta_d) * eta_d) * (nu - b_prime)
    gamma[..., 2] = math.sqrt((1.0 - eta_d) * (nu**2 - 1.0))
    m_block = np.zeros(shape + (3, 3))
    n_block = np.zeros(shape + (3, 3))
    m_block[..., 0, 0] = a
    m_block[..., 1, 1] = eta_d * nu + (1.0 - eta_d) * b_prime
    m_block[..., 2, 2] = nu
    n_block[..., 0, 1] = n_block[..., 1, 0] = -math.sqrt(1.0 - eta_d) * c_prime
    n_block[..., 1, 2] = n_block[..., 2, 1] = math.sqrt(eta_d * (nu**2 - 1.0))
    update = gamma[..., :, None] * gamma[..., None, :] / b_dprime[..., None, None]
    sigma_x = m_block + n_block - update
    sigma_p = m_block - n_block
    alphas_sq = np.linalg.eigvals(sigma_x @ sigma_p)
    nus[..., 2:] = np.sqrt(alphas_sq.real)

    entropies = entropy_g(nus)
    chi = (entropies[..., 0] + entropies[..., 1]) - entropies[..., 2:].sum(axis=-1)
    chi = np.where((chi > -CHI_CLAMP_TOL) & (chi < 0.0), 0.0, chi)
    return rate.eta_r * info - chi, info, chi


def total_rate_batch(
    lambdas: Sequence[float],
    kind: OpKind,
    gains: np.ndarray,
    transmissivities: np.ndarray,
    ch: ChannelParams,
    det: DetectorParams,
    rate: RateParams,
    clamp: bool = True,
) -> np.ndarray:
    """Protocol totals for batches of (G, T_1..T_ksel) parameter points.

    The operation ``kind`` acts on the first k_sel supermodes, one per
    transmissivity given (none for NONE), and the rest stay untouched. The
    inputs come in one of two layouts:

    * Point list: ``gains`` has shape (n,) and ``transmissivities`` shape
      (n, k_sel); the result has shape (n,).
    * Open mesh: ``gains`` and the tuple ``transmissivities`` are
      ``np.meshgrid(G, T_1, ..., T_ksel, indexing="ij", sparse=True)`` with
      T axes of equal length; the result has the grid's shape. Operated
      supermode k is evaluated on its own (G, T_k) plane only, and an
      untouched one on the G axis.

    Both layouts are staged alike. ``tanh(G*lambda)^2`` of every supermode
    comes from one outer product, supermode on the leading axis, and its
    first k_sel rows meet one stack of the operated transmissivities: the
    (k_max, n) stack meets the transposed point list, a view, and the
    (k_max, n_G, 1) stack of the raveled G axis meets the T axes as
    (k_sel, 1, n_T). The operated and the untouched supermodes take one
    ``heralded_entries`` call each and share one ``subchannel_rates_batch``
    call over the raveled entries, so a one-point evaluation makes a fixed
    number of array calls whatever k_max is.

    Only the fold depends on the layout. The per-mode rate tables are summed
    with an explicit loop in ascending supermode order, not with ``np.sum``
    over the mode axis, whose association numpy chooses by memory layout.
    Without memory the sum is multiplied by the product of the operated
    supermodes' probabilities, formed in the same order; the untouched ones
    herald with p exactly 1.0, so leaving them out changes no bit. A point
    list's output reshapes to the (k_max, n) stack, folded (``_fold``) in one
    piece. On an open mesh its two halves reshape to the planes and the G
    rows, each table takes the broadcast shape of the gains and its own
    transmissivities, so plane k's T axis becomes grid axis k + 1, and
    ``_fold`` fills a preallocated grid in blocks of whole G rows, about
    FOLD_BLOCK_ELEMENTS at a time, so no grid-sized temporary is made. Every
    element gets the same adds and multiplies in the same order, so a total
    is bit-identical whichever layout, batch size, block size or split into
    calls produced it, which the grid and the refinement rely on.
    """
    gains = np.asarray(gains, dtype=float)
    if isinstance(transmissivities, tuple):
        xi_sq = np.tanh(np.multiply.outer(lambdas, gains.ravel()))[:, :, None] ** 2
        t = np.array([np.ravel(t_k) for t_k in transmissivities], dtype=float)[:, None]
    else:
        xi_sq = np.tanh(np.multiply.outer(lambdas, gains)) ** 2
        t = np.asarray(transmissivities, dtype=float).T
    n_sel = len(t)
    groups = [(kind, xi_sq[:n_sel], t), (OpKind.NONE, xi_sq[n_sel:], 1.0)]
    a, b, c, p = (
        np.concatenate([x.ravel() for x in entries])
        for entries in zip(*(heralded_entries(*group) for group in groups if len(group[1])))
    )
    rates, _, _ = subchannel_rates_batch(a, b, c, ch, det, rate)
    if clamp:
        rates = np.maximum(rates, 0.0)
    # NONE heralds with p exactly 1.0, so the product leaves the untouched modes out.
    if not isinstance(transmissivities, tuple):
        # Both halves are rows of n points, so together they have xi_sq's shape.
        return _fold(rates.reshape(xi_sq.shape), [] if rate.memory else p.reshape(xi_sq.shape)[:n_sel])
    # The operated half holds the (n_G, n_T) planes, the untouched half the G rows.
    planes = (n_sel,) + xi_sq.shape[1:-1] + t.shape[-1:]
    split = math.prod(planes)
    rate_tables = [*rates[:split].reshape(planes), *rates[split:].reshape(xi_sq[n_sel:].shape)]
    prob_tables = [] if rate.memory else list(p[:split].reshape(planes))
    shapes = [np.broadcast_shapes(gains.shape, np.shape(t_k)) for t_k in transmissivities]
    shapes += [gains.shape] * (len(rate_tables) - n_sel)
    rate_tables = [table.reshape(shape) for table, shape in zip(rate_tables, shapes)]
    prob_tables = [table.reshape(shape) for table, shape in zip(prob_tables, shapes)]
    grid = np.empty(np.broadcast_shapes(*shapes))
    rows = max(1, FOLD_BLOCK_ELEMENTS // math.prod(grid.shape[1:]))
    for start in range(0, len(grid), rows):
        block = slice(start, start + rows)
        grid[block] = _fold(
            [table[block] for table in rate_tables], [table[block] for table in prob_tables]
        )
    return grid


def _fold(rate_tables, prob_tables):
    """Sum of the per-mode rate tables times the product of the probability
    tables, broadcast together, each accumulated in ascending mode order."""
    total = 0.0
    for rates_k in rate_tables:
        total = total + rates_k
    if len(prob_tables):
        probability = 1.0
        for p_k in prob_tables:
            probability = probability * p_k
        total = total * probability
    return total
