"""Broadband parametric down-conversion source: supermode spectra and EPR pairs.

A PDC source emits an ensemble of independent two-mode squeezed vacuum
(EPR) states, one per supermode, with squeezing r_k = G * lambda_k set by the
overall gain G and the normalized Schmidt coefficients lambda_k.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import TwoModeCM

NORMALIZATION_ATOL = 1e-12
DEFAULT_K_MAX = 5
DEFAULT_DECAY = 2.0


class Scenario(str, enum.Enum):
    """Shape of the supermode Schmidt spectrum."""

    SINGLE_MODE = "single"
    EXP_DECAY = "exp"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class SupermodeSpectrum:
    """Normalized Schmidt coefficients lambda_1 >= lambda_2 >= ... >= 0.

    Normalization: sum of lambda_k^2 equals 1, so G^2 = sum of r_k^2 is the
    total squeezing budget and scenarios are comparable at equal gain.
    """

    lambdas: tuple[float, ...]

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.size == 0:
            raise ValueError("empty spectrum")
        if np.any(lam < 0.0):
            raise ValueError("Schmidt coefficients must be nonnegative")
        if np.any(np.diff(lam) > 0.0):
            raise ValueError("Schmidt coefficients must be non-increasing")
        if not abs(float((lam**2).sum()) - 1.0) <= NORMALIZATION_ATOL:  # NaN fails too
            raise ValueError("Schmidt coefficients must satisfy sum(lambda^2) = 1")
        object.__setattr__(self, "lambdas", tuple(float(v) for v in lam))

    @property
    def k_max(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True)
class SourceParams:
    """PDC gain plus spectrum; the per-supermode squeezing is r_k = gain * lambda_k."""

    gain: float
    spectrum: SupermodeSpectrum

    def __post_init__(self):
        if not (self.gain >= 0.0 and math.isfinite(self.gain)):
            raise ValueError(f"gain must be finite and >= 0, got {self.gain}")

    def squeezings(self) -> tuple[float, ...]:
        return tuple(self.gain * lam for lam in self.spectrum.lambdas)


def make_spectrum(
    scenario: Scenario | str, k_max: int = DEFAULT_K_MAX, decay: float = DEFAULT_DECAY
) -> SupermodeSpectrum:
    """Build one of the canonical spectra.

    single  -> (1, 0, ..., 0)
    uniform -> lambda_k = 1/sqrt(k_max)
    exp     -> lambda_k proportional to exp(-(k-1)/decay), normalized
    """
    scenario = Scenario(scenario)
    if k_max < 1:
        raise ValueError("empty spectrum")
    if scenario is Scenario.SINGLE_MODE:
        lam = np.zeros(k_max)
        lam[0] = 1.0
    elif scenario is Scenario.UNIFORM:
        lam = np.full(k_max, 1.0 / math.sqrt(k_max))
    else:  # Scenario.EXP_DECAY
        if not decay > 0.0:
            raise ValueError(f"decay constant must be positive, got {decay}")
        lam = np.exp(-np.arange(k_max) / decay)
        lam = lam / math.sqrt(float((lam**2).sum()))
    return SupermodeSpectrum(tuple(lam))


def epr_cm(r: float) -> TwoModeCM:
    """Covariance matrix of a two-mode squeezed vacuum with squeezing r >= 0.

    a = b = cosh(2r), c = sinh(2r); the state is pure (both symplectic
    eigenvalues equal 1).
    """
    if r < 0.0:
        raise ValueError(f"negative squeezing {r}")
    return TwoModeCM(a=math.cosh(2 * r), b=math.cosh(2 * r), c=math.sinh(2 * r))


def squeezing_db(r: float) -> float:
    """Squeezing strength in decibels, 10*log10(exp(2r))."""
    if r < 0.0:
        raise ValueError(f"negative squeezing {r}")
    return 20.0 * r / math.log(10.0)
