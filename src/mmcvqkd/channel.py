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

from .gaussian import I2, Z2, GeneralCM, TwoModeCM, homodyne_condition

DEFAULT_EXCESS_NOISE = 0.1
DEFAULT_DETECTOR_NOISE = 1.1
DEFAULT_DETECTOR_EFFICIENCY = 0.68
DEFAULT_ATTENUATION_DB_PER_KM = 0.2

BOB_MODE_INDEX = 3  # position of B in the (A, C, D, B) pre-measurement CM


@dataclass(frozen=True)
class ChannelParams:
    """Transmissivity eta_e in (0, 1] and input-referred excess noise epsilon >= 0."""

    eta_e: float
    epsilon: float = DEFAULT_EXCESS_NOISE

    def __post_init__(self):
        if not 0.0 < self.eta_e <= 1.0:
            raise ValueError(f"channel transmissivity must be in (0, 1], got {self.eta_e}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"excess noise must be finite and >= 0, got {self.epsilon}")

    @classmethod
    def from_loss_db(cls, loss_db: float, epsilon: float = DEFAULT_EXCESS_NOISE) -> "ChannelParams":
        if not 0.0 <= loss_db < math.inf:
            raise ValueError(f"loss must be finite and >= 0 dB, got {loss_db}")
        return cls(eta_e=10.0 ** (-loss_db / 10.0), epsilon=epsilon)


@dataclass(frozen=True)
class DetectorParams:
    """Detection efficiency eta_d in (0, 1] and thermal noise variance nu >= 1."""

    eta_d: float = DEFAULT_DETECTOR_EFFICIENCY
    nu: float = DEFAULT_DETECTOR_NOISE

    def __post_init__(self):
        if not 0.0 < self.eta_d <= 1.0:
            raise ValueError(f"detection efficiency must be in (0, 1], got {self.eta_d}")
        if not 1.0 <= self.nu < math.inf:
            raise ValueError(f"thermal noise variance must be finite and >= 1, got {self.nu}")


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
    variance nu.
    """
    a, b_prime, c_prime = cm_after_channel.a, cm_after_channel.b, cm_after_channel.c
    eta_d, nu = det.eta_d, det.nu
    b_dprime = eta_d * b_prime + (1.0 - eta_d) * nu
    c_var = eta_d * nu + (1.0 - eta_d) * b_prime
    ancilla_corr = math.sqrt(nu**2 - 1.0)

    ac = -math.sqrt(1.0 - eta_d) * c_prime
    cd = math.sqrt(eta_d) * ancilla_corr
    gamma_a = math.sqrt(eta_d) * c_prime
    gamma_c = math.sqrt((1.0 - eta_d) * eta_d) * (nu - b_prime)
    gamma_d = math.sqrt(1.0 - eta_d) * ancilla_corr

    # The C-B coupling is variance-difference driven and acts identically on
    # both quadratures (I-type); the A-B and D-B couplings inherit the EPR
    # correlation structure (Z-type).
    zero = np.zeros((2, 2))
    full = np.block(
        [
            [a * I2, ac * Z2, zero, gamma_a * Z2],
            [ac * Z2, c_var * I2, cd * Z2, gamma_c * I2],
            [zero, cd * Z2, nu * I2, gamma_d * Z2],
            [gamma_a * Z2, gamma_c * I2, gamma_d * Z2, b_dprime * I2],
        ]
    )
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
