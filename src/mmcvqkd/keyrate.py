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
from .gaussian import TwoModeCM, entropy_g, symplectic_eigenvalues
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
    mutual_info: tuple[float, ...]
    holevo: tuple[float, ...]
    total: float


def mutual_information(pipeline: PipelineCMs) -> float:
    """I = (1/2) log2(V_A / V_{A|B}) from the assembled pipeline CMs."""
    v_a = pipeline.after_channel.a
    v_a_cond = float(pipeline.conditional.entries[0, 0])
    if v_a_cond <= 0.0:
        raise ValueError(f"unphysical pipeline: conditional variance {v_a_cond}")
    return 0.5 * math.log2(v_a / v_a_cond)


def mutual_information_closed_form(
    cm: TwoModeCM, ch: ChannelParams, det: DetectorParams
) -> float:
    """Closed form of the mutual information straight from (a, b, c) and the
    channel/detector parameters; must agree with ``mutual_information`` on the
    assembled pipeline."""
    noise = det.eta_d * ((1.0 - ch.eta_e) + ch.eta_e * ch.epsilon) + (1.0 - det.eta_d) * det.nu
    denom = det.eta_d * ch.eta_e * cm.a * cm.b + noise * cm.a
    return -0.5 * math.log2(1.0 - det.eta_d * ch.eta_e * cm.c**2 / denom)


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
    infos, holevos, rates = [], [], []
    for outcome in outcomes:
        pipeline = build_pipeline(outcome.cm, ch, det)
        info = mutual_information(pipeline)
        chi = holevo_bound(pipeline)
        infos.append(info)
        holevos.append(chi)
        rates.append(rate.eta_r * info - chi)
    probs = [outcome.probability for outcome in outcomes]
    total = 0.0
    for r_k in rates:
        total += max(r_k, 0.0) if clamp else r_k
    if not rate.memory:
        total *= math.prod(probs)
    return KeyRateResult(
        per_mode_rates=tuple(rates),
        per_mode_probs=tuple(probs),
        mutual_info=tuple(infos),
        holevo=tuple(holevos),
        total=total,
    )


def _entropy_g_clamped(x: np.ndarray) -> np.ndarray:
    """entropy_g for arrays known physical up to rounding (no error path)."""
    x = np.maximum(x, 1.0)
    hi = (x + 1.0) / 2.0
    lo = (x - 1.0) / 2.0
    out = hi * np.log2(hi)
    positive = lo > 0.0
    return out - np.where(positive, lo * np.log2(np.where(positive, lo, 1.0)), 0.0)


def subchannel_rates_batch(
    a, b, c, ch: ChannelParams, det: DetectorParams, rate: RateParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, I, chi) arrays for batches of post-operation CM entries (a, b, c).

    Same physics as the scalar path: closed-form two-mode symplectic
    eigenvalues for the channel output, and the conditional (A, C, D) CM
    split into decoupled x/p 3x3 blocks whose product yields the squared
    symplectic eigenvalues.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    eta_e, eps = ch.eta_e, ch.epsilon
    eta_d, nu = det.eta_d, det.nu

    c_prime = np.sqrt(eta_e) * c
    b_prime = eta_e * (b + eps) + (1.0 - eta_e)
    b_dprime = eta_d * b_prime + (1.0 - eta_d) * nu

    noise = eta_d * ((1.0 - eta_e) + eta_e * eps) + (1.0 - eta_d) * nu
    info = -0.5 * np.log2(1.0 - eta_d * eta_e * c**2 / (eta_d * eta_e * a * b + noise * a))

    # channel-output symplectic pair (factored radicand: exact when a = b')
    sub_det = a * b_prime - c_prime**2
    delta = a**2 + b_prime**2 - 2.0 * c_prime**2
    total = a + b_prime
    radicand = np.maximum(
        (a - b_prime) ** 2 * (total - 2.0 * c_prime) * (total + 2.0 * c_prime), 0.0
    )
    nu_plus = np.sqrt((delta + np.sqrt(radicand)) / 2.0)
    nu_minus = np.abs(sub_det) / nu_plus
    s_channel = _entropy_g_clamped(nu_plus) + _entropy_g_clamped(nu_minus)

    # conditional (A, C, D) CM: blocks are m*I + n*Z minus the homodyne update,
    # which only touches the x sector, so x and p decouple into 3x3 blocks.
    c_var = eta_d * nu + (1.0 - eta_d) * b_prime
    ac = -np.sqrt(1.0 - eta_d) * c_prime
    cd = np.sqrt(eta_d * (nu**2 - 1.0)) * np.ones_like(b_prime)
    gamma = np.stack(
        np.broadcast_arrays(
            np.sqrt(eta_d) * c_prime,
            np.sqrt((1.0 - eta_d) * eta_d) * (nu - b_prime),
            np.sqrt((1.0 - eta_d) * (nu**2 - 1.0)) * np.ones_like(b_prime),
        ),
        axis=-1,
    )
    shape = np.broadcast(a, b_prime).shape
    m_block = np.zeros(shape + (3, 3))
    n_block = np.zeros(shape + (3, 3))
    m_block[..., 0, 0] = a
    m_block[..., 1, 1] = c_var
    m_block[..., 2, 2] = nu
    n_block[..., 0, 1] = n_block[..., 1, 0] = ac
    n_block[..., 1, 2] = n_block[..., 2, 1] = cd
    update = gamma[..., :, None] * gamma[..., None, :] / b_dprime[..., None, None]
    sigma_x = m_block + n_block - update
    sigma_p = m_block - n_block
    alphas_sq = np.linalg.eigvals(sigma_x @ sigma_p)
    alphas = np.sqrt(np.maximum(alphas_sq.real, 1.0))
    s_conditional = _entropy_g_clamped(alphas).sum(axis=-1)

    chi = s_channel - s_conditional
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

    Every supermode goes through the kernel in one stacked pass: each mode's
    (xi^2, T_k) inputs are broadcast to that mode's own shape and flattened,
    the operated and the untouched modes each take one ``heralded_entries``
    call, and all of them share a single ``subchannel_rates_batch`` call. The
    rates and probabilities are then split back into per-mode tables, which
    still meet the full grid only in the sum. Supermodes are accumulated in
    ascending order in both layouts, so a total is bit-identical whichever
    layout evaluated it.
    """
    gains = np.asarray(gains, dtype=float)
    if isinstance(transmissivities, tuple):
        per_mode = [np.asarray(t, dtype=float) for t in transmissivities]
    else:
        transmissivities = np.asarray(transmissivities, dtype=float)
        if transmissivities.ndim == 1:
            transmissivities = transmissivities[:, None]
        per_mode = list(transmissivities.T)
    k_sel = len(per_mode) if kind is not OpKind.NONE else 0
    shapes, xi_sq, t = [], [], []
    for k, lam in enumerate(lambdas):
        xi_sq_k, t_k = np.broadcast_arrays(
            np.tanh(gains * lam) ** 2, per_mode[k] if k < k_sel else 1.0
        )
        shapes.append(xi_sq_k.shape)
        xi_sq.append(xi_sq_k.ravel())
        t.append(t_k.ravel())
    groups = [
        heralded_entries(group_kind, np.concatenate(xi_sq[modes]), np.concatenate(t[modes]))
        for group_kind, modes in ((kind, slice(k_sel)), (OpKind.NONE, slice(k_sel, None)))
        if xi_sq[modes]
    ]
    a, b, c, p = (np.concatenate(entries) for entries in zip(*groups))
    rates, _, _ = subchannel_rates_batch(a, b, c, ch, det, rate)
    total, probability, start = 0.0, 1.0, 0
    for shape in shapes:
        stop = start + math.prod(shape)
        rates_k = rates[start:stop].reshape(shape)
        # Not `+=`: an in-place update cannot grow to the broadcast shape of an
        # open mesh, where the per-mode terms meet the full grid only here.
        total = total + (np.maximum(rates_k, 0.0) if clamp else rates_k)
        probability = probability * p[start:stop].reshape(shape)
        start = stop
    if not rate.memory:
        total = total * probability
    return total
