"""Lossy noisy channel and imperfect homodyne detector, per supermode.

The transmitted arm passes a channel of transmissivity eta_e with
input-referred excess noise epsilon, then hits Bob's detector: a beam
splitter of transmissivity eta_d mixing it with one arm of an EPR pair of
variance nu (the trusted thermal noise of the detector), followed by an
ideal homodyne measurement of the surviving output.

Pipeline mode order is fixed as (A, C, D, B):
A is Alice's retained mode, B the mode Bob finally measures, C the discarded
beam-splitter output and D the far arm of the detector-noise EPR pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GeneralCM, TwoModeCM, homodyne_condition

DEFAULT_EXCESS_NOISE = 0.1
DEFAULT_DETECTOR_NOISE = 1.1
DEFAULT_DETECTOR_EFFICIENCY = 0.68
DEFAULT_ATTENUATION_DB_PER_KM = 0.2
# Noise ceilings. At every corner of the box they span, the batch kernel
# agrees with the dense path to 3.1e-11 in the rate; past them the two drift
# apart (2.2e-10 at epsilon = 0, nu = 100, and 9.3e-9 at nu = 1e3), and far
# past them the kernel returns unphysical positive rates or overflows.
MAX_EXCESS_NOISE = 1e3
MAX_DETECTOR_NOISE = 50.0
# Efficiency floors: this one and keyrate.MIN_RECONCILIATION_EFFICIENCY.
# Far below either, chi's rounding error (a difference of entropies of
# several bits) decides the sign of rates near 1e-13 and the clamped total
# can rise with loss; test_clamped_total_never_rises_with_loss gives cases.
MIN_DETECTION_EFFICIENCY = 1e-3

BOB_MODE_INDEX = 3  # position of B in the (A, C, D, B) pre-measurement CM


@dataclass(frozen=True)
class ChannelParams:
    """Transmissivity eta_e in (0, 1] and input-referred excess noise epsilon >= 0."""

    eta_e: float
    epsilon: float = DEFAULT_EXCESS_NOISE

    def __post_init__(self):
        if not 0.0 < self.eta_e <= 1.0:
            raise ValueError(f"channel transmissivity must be in (0, 1], got {self.eta_e}")
        if not 0.0 <= self.epsilon <= MAX_EXCESS_NOISE:
            raise ValueError(
                f"excess noise must be in [0, MAX_EXCESS_NOISE = {MAX_EXCESS_NOISE:g}], "
                f"got {self.epsilon}"
            )

    @classmethod
    def from_loss_db(cls, loss_db: float, epsilon: float = DEFAULT_EXCESS_NOISE) -> "ChannelParams":
        if not 0.0 <= loss_db < math.inf:
            raise ValueError(f"loss must be finite and >= 0 dB, got {loss_db}")
        eta_e = 10.0 ** (-loss_db / 10.0)
        if eta_e == 0.0:  # underflows above about 3233 dB
            raise ValueError(f"loss {loss_db} dB rounds the channel transmissivity to 0")
        return cls(eta_e=eta_e, epsilon=epsilon)


@dataclass(frozen=True)
class DetectorParams:
    """Detection efficiency eta_d in [MIN_DETECTION_EFFICIENCY, 1] and noise variance nu >= 1."""

    eta_d: float = DEFAULT_DETECTOR_EFFICIENCY
    nu: float = DEFAULT_DETECTOR_NOISE

    def __post_init__(self):
        if not MIN_DETECTION_EFFICIENCY <= self.eta_d <= 1.0:
            raise ValueError(
                f"eta_d (detection efficiency) must be in [MIN_DETECTION_EFFICIENCY = "
                f"{MIN_DETECTION_EFFICIENCY:g}, 1], got {self.eta_d}"
            )
        if not 1.0 <= self.nu <= MAX_DETECTOR_NOISE:
            raise ValueError(
                f"thermal noise variance must be in [1, MAX_DETECTOR_NOISE = "
                f"{MAX_DETECTOR_NOISE:g}], got {self.nu}"
            )


@dataclass(frozen=True)
class PipelineCMs:
    """Covariance matrices of one supermode along the receive chain.

    after_channel:   (A, B) two-mode CM at the channel output
    pre_measurement: 4-mode CM over (A, C, D, B) just before Bob's homodyne
    conditional:     3-mode CM over (A, C, D) given an x-homodyne of B
    """

    after_channel: TwoModeCM
    pre_measurement: GeneralCM
    conditional: GeneralCM


def channel_evolve(cm: TwoModeCM, ch: ChannelParams) -> TwoModeCM:
    """Propagate the transmitted mode: a -> a, c -> sqrt(eta_e) c,
    b -> eta_e (b + epsilon) + (1 - eta_e)."""
    return TwoModeCM(
        a=cm.a,
        b=ch.eta_e * (cm.b + ch.epsilon) + (1.0 - ch.eta_e),
        c=math.sqrt(ch.eta_e) * cm.c,
    )


def detector_assemble(cm_after_channel: TwoModeCM, det: DetectorParams) -> PipelineCMs:
    """Mix the received mode with the detector-noise EPR pair and condition on B.

    The 4-mode CM over (A, C, D, B) follows from the beam splitter
    B_out = sqrt(eta_d) B_in + sqrt(1 - eta_d) C_in,
    C_out = -sqrt(1 - eta_d) B_in + sqrt(eta_d) C_in
    acting on the product of the channel output with an EPR pair (C, D) of
    variance nu. The splitter acts alike on x and p; the correlations enter
    the x block with a plus sign and the p block with a minus sign.
    """
    nu, t, r = det.nu, math.sqrt(det.eta_d), math.sqrt(1.0 - det.eta_d)
    variances = np.diag([cm_after_channel.a, nu, nu, cm_after_channel.b])
    correlations = np.zeros((4, 4))
    correlations[0, 3] = correlations[3, 0] = cm_after_channel.c
    correlations[1, 2] = correlations[2, 1] = math.sqrt(nu**2 - 1.0)
    mixer = np.eye(4)
    mixer[np.ix_([1, 3], [1, 3])] = [[t, -r], [r, t]]  # rows C_out, B_out
    full = np.zeros((8, 8))
    full[0::2, 0::2] = mixer @ (variances + correlations) @ mixer.T
    full[1::2, 1::2] = mixer @ (variances - correlations) @ mixer.T
    pre_measurement = GeneralCM(full)
    conditional = homodyne_condition(pre_measurement, BOB_MODE_INDEX, "x")
    return PipelineCMs(
        after_channel=cm_after_channel,
        pre_measurement=pre_measurement,
        conditional=conditional,
    )


def build_pipeline(cm: TwoModeCM, ch: ChannelParams, det: DetectorParams) -> PipelineCMs:
    """Channel evolution followed by detector assembly."""
    return detector_assemble(channel_evolve(cm, ch), det)
