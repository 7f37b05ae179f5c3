"""Truncated-Fock-space engine for heralded beam-splitter operations.

Re-derives the heralded covariance matrices and success probabilities from
first principles: build the two-mode squeezed vacuum in the number basis,
mix the transmitted arm with an ancillary Fock state on a beam splitter and
project the ancilla output onto a photon-number outcome. Serves as the
independent oracle for the closed forms in ``operations``.

States are stored densely: (N+1)^2 amplitudes at cutoff N. Heralding and
the moments make a few elementwise passes over that array and otherwise
work in proportion to the nonzero amplitudes, N+1 for a squeezed vacuum.
``tmsv_cutoff`` gives N = 19 at r = 0.6, 116 at r = 1.5, 315 at r = 2.0
and 855 at r = 2.5, the largest supermode squeezing the optimizer allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import TwoModeCM

TAIL_MASS_BOUND = 1e-10
FIRST_MOMENT_ATOL = 1e-10
STRUCTURE_ATOL = 1e-7


@dataclass(frozen=True)
class FockState:
    """Pure two-mode state as a matrix of number-basis amplitudes.

    ``amplitudes[n_a, n_b]`` is the coefficient of |n_a, n_b>; the truncation
    cutoff per mode is the array size minus one.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 2:
            raise ValueError("amplitudes must be a 2-d array over (n_A, n_B)")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class HeraldResult:
    """Heralded CM (None when the branch has zero norm) and its probability."""

    cm: TwoModeCM | None
    probability: float
    state: FockState | None = None


def tmsv_cutoff(r: float) -> int:
    """Smallest per-mode cutoff keeping the squeezed-vacuum tail below 1e-10.

    The photon-number tail beyond N is tanh(r)^(2(N+1)), so
    N >= ln(bound) / (2 ln tanh r) suffices.
    """
    if r <= 0.0:
        return 1
    xi = math.tanh(r)
    return max(1, math.ceil(math.log(TAIL_MASS_BOUND) / (2.0 * math.log(xi))))


def build_tmsv(r: float, cutoff: int | None = None) -> FockState:
    """Two-mode squeezed vacuum sqrt(1 - xi^2) sum_n xi^n |n, n>, xi = tanh r."""
    if r < 0.0:
        raise ValueError(f"negative squeezing {r}")
    required = tmsv_cutoff(r)
    if cutoff is None:
        cutoff = required
    if cutoff < required:
        raise ValueError(
            f"insufficient truncation: cutoff {cutoff} < {required} needed for tail "
            f"mass < {TAIL_MASS_BOUND:g} at r = {r}"
        )
    xi = math.tanh(r)
    ns = np.arange(cutoff + 1)
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    amps[ns, ns] = math.sqrt(1.0 - xi**2) * xi**ns
    return FockState(amps)


def beam_splitter_element(m1: int, m2: int, n1: int, n2: int, t: float) -> float:
    """<m1, m2| U |n1, n2> for the real beam splitter
    a -> sqrt(t) a + sqrt(1-t) b, b -> -sqrt(1-t) a + sqrt(t) b.

    Obtained by binomially expanding U (a+)^n1 (b+)^n2 |00>; photon number is
    conserved, so the element vanishes unless m1 + m2 = n1 + n2.
    """
    if m1 + m2 != n1 + n2:
        return 0.0
    amp_t = math.sqrt(t)
    amp_r = math.sqrt(1.0 - t)
    total = 0.0
    for i in range(max(0, m1 - n2), min(n1, m1) + 1):
        j = m1 - i
        total += (
            math.comb(n1, i)
            * math.comb(n2, j)
            * amp_t**i
            * (-amp_r) ** (n1 - i)
            * amp_r**j
            * amp_t ** (n2 - j)
        )
    return total * math.sqrt(
        math.factorial(m1) * math.factorial(m2) / (math.factorial(n1) * math.factorial(n2))
    )


def herald(state: FockState, ancilla_photons: int, detect_photons: int, t: float) -> HeraldResult:
    """Mix mode B with |ancilla_photons> on a transmissivity-t beam splitter and
    post-select on detecting ``detect_photons`` at the ancilla output."""
    if ancilla_photons < 0 or detect_photons < 0:
        raise ValueError("photon numbers must be nonnegative")
    if not 0.0 < t <= 1.0:
        raise ValueError(f"invalid transmissivity {t}")
    amps = state.amplitudes
    # A fixed detection maps |n_b> to the single |m_b>, m_b = n_b + ancilla - detect,
    # so each input column is scaled once and moved to its output column.
    n_bs = np.arange(max(0, detect_photons - ancilla_photons), amps.shape[1])
    m_bs = n_bs + ancilla_photons - detect_photons
    weights = np.array(
        [beam_splitter_element(m_b, detect_photons, n_b, ancilla_photons, t)
         for m_b, n_b in zip(m_bs.tolist(), n_bs.tolist())]
    )
    heralded = np.zeros((amps.shape[0], amps.shape[1] + ancilla_photons), dtype=complex)
    heralded[:, m_bs] = amps[:, n_bs] * weights
    probability = float((np.abs(heralded) ** 2).sum())
    if probability <= 0.0:
        return HeraldResult(cm=None, probability=0.0, state=None)
    normalized = FockState(heralded / math.sqrt(probability))
    return HeraldResult(cm=extract_cm(normalized), probability=probability, state=normalized)


def outcome_probabilities(state: FockState, ancilla_photons: int, t: float) -> np.ndarray:
    """Probability of every ancilla photon-number outcome (they sum to 1 up to
    the truncation tail)."""
    max_outcome = state.amplitudes.shape[1] - 1 + ancilla_photons
    return np.array(
        [herald(state, ancilla_photons, m, t).probability for m in range(max_outcome + 1)]
    )


def quadrature_moments(state: FockState) -> tuple[np.ndarray, np.ndarray]:
    """First moments (length 4) and symmetrized second-moment matrix (4x4)
    of (x_A, p_A, x_B, p_B) with x = a + a+, p = i(a+ - a)."""
    psi = state.amplitudes
    rows, cols = np.nonzero(psi)
    amps = psi[rows, cols]

    def overlap(d_a: int, d_b: int, weight: np.ndarray) -> complex:
        """Sum of conj(psi[i - d_a, j - d_b]) psi[i, j] weight over the support;
        partners off the array are zero in the truncated space."""
        i, j = rows - d_a, cols - d_b
        on = (i >= 0) & (i < psi.shape[0]) & (j >= 0) & (j < psi.shape[1])
        return complex((np.conj(psi[i[on], j[on]]) * amps[on] * weight[on]).sum())

    prob = np.abs(amps) ** 2
    mean_na = float((rows * prob).sum())
    mean_nb = float((cols * prob).sum())
    # <a>, <b>: one-photon lowering overlaps
    a_mean = overlap(1, 0, np.sqrt(rows))
    b_mean = overlap(0, 1, np.sqrt(cols))
    # <a^2>, <b^2>, <ab>, <a b+>
    aa = overlap(2, 0, np.sqrt(rows * (rows - 1)))
    bb = overlap(0, 2, np.sqrt(cols * (cols - 1)))
    ab = overlap(1, 1, np.sqrt(rows * cols))
    ab_dag = overlap(1, -1, np.sqrt(rows * (cols + 1)))

    means = np.array(
        [2 * a_mean.real, 2 * a_mean.imag, 2 * b_mean.real, 2 * b_mean.imag]
    )
    xx_a = 2 * aa.real + 2 * mean_na + 1
    pp_a = -2 * aa.real + 2 * mean_na + 1
    xp_a = 2 * aa.imag
    xx_b = 2 * bb.real + 2 * mean_nb + 1
    pp_b = -2 * bb.real + 2 * mean_nb + 1
    xp_b = 2 * bb.imag
    x_ax_b = 2 * (ab + ab_dag).real
    p_ap_b = 2 * (ab_dag - ab).real
    x_ap_b = 2 * (ab - ab_dag).imag
    p_ax_b = 2 * (ab + ab_dag).imag
    second = np.array(
        [
            [xx_a, xp_a, x_ax_b, x_ap_b],
            [xp_a, pp_a, p_ax_b, p_ap_b],
            [x_ax_b, p_ax_b, xx_b, xp_b],
            [x_ap_b, p_ap_b, xp_b, pp_b],
        ]
    )
    return means, second - np.outer(means, means)


def extract_cm(state: FockState) -> TwoModeCM:
    """Covariance matrix of a heralded state, asserting the (a*I, b*I, c*Z)
    block structure and vanishing first moments all states here must satisfy."""
    means, cm = quadrature_moments(state)
    if np.abs(means).max() > FIRST_MOMENT_ATOL:
        raise ValueError(f"nonzero first moments {means} in heralded state")
    a = (cm[0, 0] + cm[1, 1]) / 2.0
    b = (cm[2, 2] + cm[3, 3]) / 2.0
    c = (cm[0, 2] - cm[1, 3]) / 2.0
    structured = np.array(
        [[a, 0, c, 0], [0, a, 0, -c], [c, 0, b, 0], [0, -c, 0, b]]
    )
    deviation = np.abs(cm - structured).max()
    if deviation > STRUCTURE_ATOL * max(1.0, a, b):
        raise ValueError(f"state lacks the expected block structure (dev {deviation:.3e})")
    return TwoModeCM(a=float(a), b=float(b), c=float(c))
