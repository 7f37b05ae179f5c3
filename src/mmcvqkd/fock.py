"""Truncated-Fock-space engine for heralded beam-splitter operations.

Re-derives the heralded covariance matrices and success probabilities from
first principles: build the two-mode squeezed vacuum in the number basis,
mix the transmitted arm with an ancillary Fock state on a beam splitter and
project the ancilla output onto a photon-number outcome. Serves as the
independent oracle for the closed forms in ``operations``.

States are stored densely, (N+1)^2 amplitudes at cutoff N, together with
their support: the exactly nonzero amplitudes, N+1 for a squeezed vacuum.
``build_tmsv`` records the diagonal it fills. ``herald`` scales each
amplitude of the support by its column's weight, one beam-splitter element
whose factorial ratio has at most one factor above and below, and records
the shifted band it writes; a state built from a bare array finds its
support with ``np.nonzero``. Moduli and normalization work on the support
alone, but the probability is still summed over a dense real array of the
moduli, since a sum over the support alone would group the terms
differently and change the last bits. The moments sum over the support.
``tmsv_cutoff`` gives N = 19 at r = 0.6, 116 at r = 1.5, 315 at r = 2.0
and 855 at r = 2.5, the largest supermode squeezing the optimizer allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import TwoModeCM

TAIL_MASS_BOUND = 1e-10
# Largest per-mode cutoff build_tmsv allocates: 2,501^2 complex amplitudes
# are about 100 MB. tmsv_cutoff passes it above r = 3.037.
MAX_FOCK_CUTOFF = 2_500
FIRST_MOMENT_ATOL = 1e-10
STRUCTURE_ATOL = 1e-7


@dataclass(frozen=True)
class FockState:
    """Pure two-mode state as a matrix of number-basis amplitudes.

    ``amplitudes[n_a, n_b]`` is the coefficient of |n_a, n_b>; the truncation
    cutoff per mode is the array size minus one. ``support`` is
    ``np.nonzero(amplitudes)``, found here unless the builder passes it.
    """

    amplitudes: np.ndarray
    support: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 2:
            raise ValueError("amplitudes must be a 2-d array over (n_A, n_B)")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if self.support is None:
            object.__setattr__(self, "support", np.nonzero(amps))


@dataclass(frozen=True)
class HeraldResult:
    """Heralded CM (None when the branch has zero norm) and its probability."""

    cm: TwoModeCM | None
    probability: float
    state: FockState | None = None


def tmsv_cutoff(r: float) -> int:
    """Smallest per-mode cutoff keeping the squeezed-vacuum tail below 1e-10.

    The photon-number tail beyond N is tanh(r)^(2(N+1)), so
    N >= ln(bound) / (2 ln tanh r) suffices. A non-finite r, or one whose
    tanh rounds to 1, has no such N and is rejected.
    """
    if not math.isfinite(r):
        raise ValueError(f"non-finite squeezing r = {r}")
    if r <= 0.0:
        return 1
    xi = math.tanh(r)
    if xi == 1.0:
        raise ValueError(
            f"squeezing r = {r} saturates: tanh(r) rounds to 1, so no cutoff bounds the tail"
        )
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
    if cutoff > MAX_FOCK_CUTOFF:
        raise ValueError(
            f"cutoff {cutoff} at r = {r} exceeds MAX_FOCK_CUTOFF = {MAX_FOCK_CUTOFF}"
        )
    xi = math.tanh(r)
    ns = np.arange(cutoff + 1)
    diagonal = math.sqrt(1.0 - xi**2) * xi**ns
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    amps[ns, ns] = diagonal
    # xi**n is exactly 0 for n > 0 at r = 0, and underflows past a large cutoff.
    ns = ns[diagonal != 0.0]
    return FockState(amps, support=(ns, ns))


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
    # sqrt(m1! m2! / (n1! n2!)) with the common factorials cancelled: each
    # perm is a product of at most |m1 - n1| factors, and the int/int
    # division rounds the unchanged rational once.
    k1, k2 = min(m1, n1), min(m2, n2)
    return total * math.sqrt(
        math.perm(m1, m1 - k1) * math.perm(m2, m2 - k2)
        / (math.perm(n1, n1 - k1) * math.perm(n2, n2 - k2))
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
    # so each input amplitude in a column n_b >= n0 is scaled by its column's
    # weight and written to output column m_b. The probability stays a sum
    # over the dense moduli: over the support alone it would regroup.
    n0 = max(0, detect_photons - ancilla_photons)
    m0 = n0 + ancilla_photons - detect_photons
    weights = np.array(
        [beam_splitter_element(m0 + k, detect_photons, n0 + k, ancilla_photons, t)
         for k in range(amps.shape[1] - n0)]
    )
    rows, cols = state.support
    shifted = cols >= n0
    rows, cols = rows[shifted], cols[shifted]
    band = amps[rows, cols] * weights[cols - n0]
    cols = cols + (m0 - n0)
    shape = (amps.shape[0], amps.shape[1] + ancilla_photons)
    mass = np.zeros(shape)
    mass[rows, cols] = np.square(np.abs(band))
    probability = float(mass.sum())
    if probability <= 0.0:
        return HeraldResult(cm=None, probability=0.0, state=None)
    band /= math.sqrt(probability)
    heralded = np.zeros(shape, dtype=complex)
    heralded[rows, cols] = band
    nonzero = band != 0.0  # a zero weight or an underflow leaves a 0.0 in the band
    normalized = FockState(heralded, support=(rows[nonzero], cols[nonzero]))
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
    rows, cols = state.support
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
