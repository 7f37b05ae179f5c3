"""Heralded non-Gaussian operations on one arm of a two-mode squeezed vacuum.

Each operation interacts the transmitted arm with an ancillary Fock state
|N> on a beam splitter of transmissivity T and post-selects on detecting M
photons at the ancilla output:

* 1-PS: ancilla |0>, detect 1 (single-photon subtraction)
* 1-PA: ancilla |1>, detect 0 (single-photon addition)
* 1-PC: ancilla |1>, detect 1 (single-photon catalysis)
* 0-PC: ancilla |0>, detect 0 (zero-photon catalysis, a noiseless operation)

The closed-form output covariance matrices and success probabilities below
are functions of xi^2 = tanh^2(r) and T alone; all of them are validated
against the truncated-Fock-space engine in ``fock``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import TwoModeCM
from .source import SourceParams, epr_cm


class OpKind(str, enum.Enum):
    NONE = "none"
    PS1 = "1ps"
    PA1 = "1pa"
    PC1 = "1pc"
    PC0 = "0pc"

    @property
    def ancilla_photons(self) -> int:
        return {OpKind.PS1: 0, OpKind.PA1: 1, OpKind.PC1: 1, OpKind.PC0: 0}[self]

    @property
    def detected_photons(self) -> int:
        return {OpKind.PS1: 1, OpKind.PA1: 0, OpKind.PC1: 1, OpKind.PC0: 0}[self]


@dataclass(frozen=True)
class NonGaussianOpSpec:
    """Operation kind plus beam-splitter transmissivity.

    T must lie in (0, 1) for the active kinds; T = 1 is allowed only for 0-PC,
    where it degenerates to the identity. T is ignored for NONE.
    """

    kind: OpKind
    transmissivity: float = 1.0

    def __post_init__(self):
        kind = OpKind(self.kind)
        object.__setattr__(self, "kind", kind)
        t = self.transmissivity
        if kind is OpKind.NONE:
            return
        upper_ok = t < 1.0 or (kind is OpKind.PC0 and t == 1.0)
        if not (0.0 < t and upper_ok):
            raise ValueError(f"invalid transmissivity {t} for {kind.value}")


@dataclass(frozen=True)
class OpOutcome:
    """Heralded state (second moments only) and heralding success probability."""

    cm: TwoModeCM
    probability: float

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0 + 1e-12:
            raise ValueError(f"probability {self.probability} outside [0, 1]")


def heralded_entries(kind: OpKind, xi_sq, t):
    """(a, b, c, p) of the heralded state, vectorized over xi_sq and t.

    ``a`` is the variance of the retained (Alice) mode, ``b`` of the operated
    (transmitted) mode, ``c`` their correlation and ``p`` the heralding
    probability. Inputs must satisfy 0 <= xi_sq < 1 and 0 < t <= 1, which
    guarantees u = xi_sq * t < 1. Repeated factors (1 - u, t^2, xi^4) are
    formed once per call.

    NONE is 0-PC at t = 1, the identity: u is exactly xi_sq and p exactly 1,
    so ``t`` is ignored and every entry has the shape of ``xi_sq``.
    """
    kind = OpKind(kind)
    if kind is OpKind.NONE:
        kind, t = OpKind.PC0, 1.0
    xi_sq = np.asarray(xi_sq, dtype=float)
    t = np.asarray(t, dtype=float)
    u = xi_sq * t
    one_minus_u = 1.0 - u
    if kind is OpKind.PC0:
        # Noiseless: the output is again a pure EPR state with xi' = xi*sqrt(t).
        a = (1.0 + u) / one_minus_u
        c = 2.0 * np.sqrt(u) / one_minus_u
        p = (1.0 - xi_sq) / one_minus_u
        return a, a, c, p
    if kind is OpKind.PS1:
        a = (3.0 + u) / one_minus_u
        b = (1.0 + 3.0 * u) / one_minus_u
        c = 4.0 * np.sqrt(u) / one_minus_u
        p = xi_sq * (1.0 - xi_sq) * (1.0 - t) / one_minus_u**2
        return a, b, c, p
    if kind is OpKind.PA1:
        # Mirror image of 1-PS with the mode roles swapped; the heralding
        # probability is larger by 1/xi^2 (adding needs no photon present).
        a = (1.0 + 3.0 * u) / one_minus_u
        b = (3.0 + u) / one_minus_u
        c = 4.0 * np.sqrt(u) / one_minus_u
        p = (1.0 - xi_sq) * (1.0 - t) / one_minus_u**2
        return a, b, c, p
    # 1-PC. Shared denominator (1 - u) * (t + xi^2 (1 - 4t + t^2) + xi^4 t).
    t_sq = t**2
    xi_4 = xi_sq**2
    xi_6 = xi_sq**3
    den = one_minus_u * (t + xi_sq * (1.0 - 4.0 * t + t_sq) + xi_4 * t)
    a = (
        t
        - xi_sq * (-3.0 + 12.0 * t - 8.0 * t_sq)
        - xi_4 * t * (-8.0 + 12.0 * t - 3.0 * t_sq)
        + xi_6 * t_sq
    ) / den
    c = (
        2.0
        * np.sqrt(t * xi_sq)
        * (1.0 - 2.0 * t - 2.0 * xi_sq * (2.0 - 5.0 * t + 2.0 * t_sq) + xi_4 * t * (-2.0 + t))
    ) / -den
    p = (
        -t
        + xi_sq * (-1.0 + 5.0 * t - t_sq)
        + xi_4 * (1.0 - 5.0 * t + t_sq)
        + xi_6 * t
    ) / -(one_minus_u**3)
    return a, a, c, p


def apply_op(spec: NonGaussianOpSpec, r: float) -> OpOutcome:
    """Heralded covariance matrix and success probability for one supermode."""
    if r < 0.0:
        raise ValueError(f"negative squeezing {r}")
    if spec.kind is OpKind.NONE:
        return OpOutcome(cm=epr_cm(r), probability=1.0)
    xi_sq = math.tanh(r) ** 2
    a, b, c, p = heralded_entries(spec.kind, xi_sq, spec.transmissivity)
    return OpOutcome(cm=TwoModeCM(float(a), float(b), float(c)), probability=float(p))


def apply_to_supermodes(
    specs: Sequence[NonGaussianOpSpec], source: SourceParams
) -> list[OpOutcome]:
    """Apply one operation per selected supermode; the rest stay untouched.

    ``specs[k]`` acts on supermode k+1 (the K_sel leading supermodes); the
    outcomes are independent, so the combined success probability is the
    product of the individual ones.
    """
    k_max = source.spectrum.k_max
    if len(specs) > k_max:
        raise ValueError(f"selection exceeds mode count: {len(specs)} > {k_max}")
    padded = list(specs) + [NonGaussianOpSpec(OpKind.NONE)] * (k_max - len(specs))
    return [apply_op(spec, r) for spec, r in zip(padded, source.squeezings())]
