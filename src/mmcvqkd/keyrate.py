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
from .gaussian import entropy_g, entropy_g_clamped, symplectic_eigenvalues, two_mode_symplectic
from .operations import OpKind, OpOutcome, heralded_entries

DEFAULT_RECONCILIATION_EFFICIENCY = 0.95
# chi is nonnegative up to rounding; anything this far below zero is a bug.
CHI_CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class RateParams:
    """Reverse-reconciliation efficiency and quantum-memory availability."""

    eta_r: float = DEFAULT_RECONCILIATION_EFFICIENCY
    memory: bool = True

    def __post_init__(self):
        if not 0.0 < self.eta_r <= 1.0:
            raise ValueError(f"reconciliation efficiency must be in (0, 1], got {self.eta_r}")


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
    eigenvalues go through one entropy pass. A call therefore makes the same
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
    nus[..., 2:] = np.sqrt(np.maximum(alphas_sq.real, 1.0))

    entropies = entropy_g_clamped(nus)
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

    ``transmissivities`` comes in one of two layouts; the operation ``kind``
    acts on the first k_sel supermodes, the rest stay untouched.

    * Point list: ``gains`` has shape (n,) and ``transmissivities`` shape
      (n, k_sel), or (n,) for k_sel = 1; the result has shape (n,).
    * Open mesh: a tuple of k_sel arrays, one per operated supermode, each
      broadcastable against ``gains``, as from
      ``np.meshgrid(..., indexing="ij", sparse=True)``. Supermode k is then
      evaluated on the broadcast of ``gains`` with its own array only, and
      the per-mode terms broadcast to the full grid in the sum.

    Only the staging of the inputs depends on the layout. ``tanh(G*lambda)^2``
    of every supermode comes from one outer product, with the supermode on
    the leading axis. The point list keeps that (k_max, n) stack as it is and
    passes the operated rows with the transposed transmissivities, a view.
    The open mesh broadcasts each supermode to its own shape and flattens it,
    once per solve. Then the operated and the untouched supermodes take one
    ``heralded_entries`` call each, and all of them share one
    ``subchannel_rates_batch`` call, so a one-point evaluation makes the same
    few array calls whatever k_max is.

    The per-mode rate tables are then accumulated with an explicit loop in
    ascending supermode order, not with ``np.sum`` over the mode axis, whose
    association numpy chooses by memory layout (pairwise along a contiguous
    axis). A total is therefore bit-identical whichever layout, batch size or
    split into calls produced it, which is what the grid and the refinement
    rely on.
    """
    gains = np.asarray(gains, dtype=float)
    xi_sq = np.tanh(np.multiply.outer(lambdas, gains)) ** 2
    if isinstance(transmissivities, tuple):
        k_sel = len(transmissivities) if kind is not OpKind.NONE else 0
        shapes, flat_xi_sq, flat_t = [], [], []
        for k, xi_sq_k in enumerate(xi_sq):
            if k < k_sel:
                xi_sq_k, t_k = np.broadcast_arrays(
                    xi_sq_k, np.asarray(transmissivities[k], dtype=float)
                )
                flat_t.append(t_k.ravel())
            shapes.append(xi_sq_k.shape)
            flat_xi_sq.append(xi_sq_k.ravel())
        split = sum(t_k.size for t_k in flat_t)
        t_operated = np.concatenate(flat_t) if flat_t else None
        xi_sq = np.concatenate(flat_xi_sq)
        bounds = np.cumsum([0] + [math.prod(shape) for shape in shapes])

        def per_mode(values):
            return [values[i:j].reshape(s) for i, j, s in zip(bounds, bounds[1:], shapes)]
    else:
        t = np.asarray(transmissivities, dtype=float)
        if t.ndim == 1:
            t = t[:, None]
        split = t.shape[1] if kind is not OpKind.NONE else 0
        t_operated = t.T

        def per_mode(values):
            return values
    groups = [(kind, xi_sq[:split], t_operated), (OpKind.NONE, xi_sq[split:], 1.0)]
    a, b, c, p = (
        np.concatenate(entries)
        for entries in zip(*(heralded_entries(*group) for group in groups if len(group[1])))
    )
    rates, _, _ = subchannel_rates_batch(a, b, c, ch, det, rate)
    if clamp:
        rates = np.maximum(rates, 0.0)
    total = 0.0
    for rates_k in per_mode(rates):
        # Not `+=`: an in-place update cannot grow to the broadcast shape of an
        # open mesh, where the per-mode terms meet the full grid only here.
        total = total + rates_k
    if not rate.memory:
        probability = 1.0
        for p_k in per_mode(p):
            probability = probability * p_k
        total = total * probability
    return total
