"""Covariance-matrix toolbox for Gaussian states of bosonic modes.

Conventions used throughout the package:

* hbar = 2, so the vacuum state has quadrature variance 1 and every physical
  covariance matrix has symplectic eigenvalues >= 1.
* Quadratures are ordered (x1, p1, x2, p2, ...).
* Two-party EPR-like states are stored in the block form
  [[a*I, c*Z], [c*Z, b*I]] with I = diag(1, 1) and Z = diag(1, -1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

I2 = np.eye(2)
Z2 = np.diag([1.0, -1.0])

# Absolute symmetry tolerance for general covariance matrices.
SYMMETRY_ATOL = 1e-12
# Symplectic eigenvalues may dip this far below 1 before a state is unphysical.
PHYSICALITY_TOL = 1e-6
# Two-mode constructor gate (pure states sit exactly at 1 up to rounding).
TWO_MODE_TOL = 1e-9
# Relative tolerance when pairing the +-i*nu eigenvalues of Omega @ S.
PAIRING_RTOL = 1e-9


class UnphysicalStateError(ValueError):
    """A covariance matrix (or symplectic eigenvalue) violates the uncertainty bound."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        if min_eigenvalue is not None:
            message = f"{message} (minimum eigenvalue {min_eigenvalue:.3e})"
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form Omega for (x1, p1, ...) ordering: direct sum of [[0, 1], [-1, 0]]."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def two_mode_symplectic(a, b, c):
    """(nu_plus, nu_minus) of [[a*I, c*Z], [c*Z, b*I]], elementwise over arrays.

    nu_+- = sqrt((Delta +- sqrt(Delta^2 - 4 det)) / 2) with
    Delta = a^2 + b^2 - 2 c^2 > 0. The radicand is evaluated in the factored
    form (a-b)^2 ((a+b)^2 - 4c^2), which is exact for the degenerate
    a = b case, and nu_minus as |a*b - c^2| / nu_plus, which avoids
    cancellation for strongly squeezed states.
    """
    delta = a**2 + b**2 - 2.0 * c**2
    total = a + b
    radicand = np.maximum((a - b) ** 2 * (total - 2.0 * c) * (total + 2.0 * c), 0.0)
    nu_plus = np.sqrt((delta + np.sqrt(radicand)) / 2.0)
    return nu_plus, np.abs(a * b - c**2) / nu_plus


@dataclass(frozen=True)
class TwoModeCM:
    """Symmetric two-mode covariance matrix [[a*I, c*Z], [c*Z, b*I]].

    ``a`` and ``b`` are the quadrature variances of the two modes, ``c`` the
    x-x correlation (the p-p correlation is ``-c``). All entries are in
    vacuum-noise units.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.a < 1.0 - TWO_MODE_TOL or self.b < 1.0 - TWO_MODE_TOL:
            raise UnphysicalStateError(
                f"diagonal variances below vacuum: a={self.a}, b={self.b}"
            )
        nu_minus = self.symplectic_eigenvalues()[1]
        # NaN (from an indefinite matrix) must fail this gate too.
        if not nu_minus >= 1.0 - TWO_MODE_TOL:
            raise UnphysicalStateError(
                "two-mode CM violates the uncertainty bound", min_eigenvalue=nu_minus
            )

    def matrix(self) -> np.ndarray:
        """Dense 4x4 matrix, mode order (x_A, p_A, x_B, p_B)."""
        return np.block([[self.a * I2, self.c * Z2], [self.c * Z2, self.b * I2]])

    def symplectic_eigenvalues(self) -> tuple[float, float]:
        """(nu_plus, nu_minus) from ``two_mode_symplectic``; NaN when indefinite."""
        if self.a**2 + self.b**2 - 2.0 * self.c**2 <= 0.0:  # no real symplectic spectrum
            return float("nan"), float("nan")
        nu_plus, nu_minus = two_mode_symplectic(self.a, self.b, self.c)
        return float(nu_plus), float(nu_minus)

    def to_general(self) -> "GeneralCM":
        return GeneralCM(self.matrix())


@dataclass(frozen=True)
class GeneralCM:
    """Real symmetric 2n x 2n covariance matrix, mode order (x1, p1, ..., xn, pn)."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] % 2:
            raise ValueError(f"covariance matrix must be square and even-sized, got {entries.shape}")
        if np.abs(entries - entries.T).max() > SYMMETRY_ATOL:
            raise ValueError("covariance matrix is not symmetric")
        entries = (entries + entries.T) / 2.0
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2

    def mode_block(self, i: int, j: int) -> np.ndarray:
        """2x2 block coupling modes i and j."""
        return self.entries[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]


def symplectic_eigenvalues(cm: GeneralCM | TwoModeCM | np.ndarray) -> np.ndarray:
    """All n symplectic eigenvalues of a covariance matrix, sorted descending.

    Computed from the eigenvalues of the real matrix Omega @ S, which come in
    +-i*nu pairs; one member of each pair is kept. The input must be symmetric
    and positive definite (up to rounding noise).
    """
    if isinstance(cm, TwoModeCM):
        cm = cm.to_general()
    if not isinstance(cm, GeneralCM):
        cm = GeneralCM(np.asarray(cm, dtype=float))
    s = cm.entries
    min_eig = float(np.linalg.eigvalsh(s).min())
    if min_eig <= -TWO_MODE_TOL:
        raise UnphysicalStateError("unphysical CM: not positive definite", min_eigenvalue=min_eig)
    omega_s = symplectic_form(cm.n_modes) @ s
    moduli = np.sort(np.abs(np.linalg.eigvals(omega_s)))
    low, high = moduli[::2], moduli[1::2]
    scale = np.maximum(high, 1.0)
    if np.max(np.abs(high - low) / scale) > PAIRING_RTOL:
        raise ArithmeticError("failed to pair the +-i*nu symplectic eigenvalues")
    return np.sort((low + high) / 2.0)[::-1]


def entropy_g(x) -> np.ndarray | float:
    """Von Neumann entropy (bits) of a thermal mode with symplectic eigenvalue x.

    g(x) = ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2), continuous at
    x = 1 where it vanishes. Values within PHYSICALITY_TOL below 1 are rounding
    noise from near-pure states and are clamped to exactly 1; anything lower is
    rejected.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 1.0 - PHYSICALITY_TOL):
        raise UnphysicalStateError(
            "unphysical symplectic eigenvalue", min_eigenvalue=float(arr.min())
        )
    out = entropy_g_clamped(arr)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def entropy_g_clamped(x: np.ndarray) -> np.ndarray:
    """``entropy_g`` for arrays known physical up to rounding: values below 1
    are clamped to 1 and there is no error path (the batch kernel's entropy)."""
    x = np.maximum(x, 1.0)
    hi = (x + 1.0) / 2.0
    lo = (x - 1.0) / 2.0
    out = hi * np.log2(hi)
    positive = lo > 0.0
    return out - np.where(positive, lo * np.log2(np.where(positive, lo, 1.0)), 0.0)


def homodyne_condition(cm: GeneralCM, measured_mode: int, quadrature: str = "x") -> GeneralCM:
    """Conditional CM of the remaining modes after an ideal homodyne measurement.

    Measuring quadrature ``"x"`` (or ``"p"``) of ``measured_mode`` maps the
    remaining block A to A - (1/v) * C X C^T where C couples the kept modes to
    the measured one, X selects the measured quadrature and v is that
    quadrature's variance.
    """
    if quadrature not in ("x", "p"):
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    n = cm.n_modes
    if not 0 <= measured_mode < n:
        raise ValueError(f"measured mode {measured_mode} out of range for {n} modes")
    q = 0 if quadrature == "x" else 1
    sel = 2 * measured_mode + q
    variance = float(cm.entries[sel, sel])
    if variance <= 0.0:
        raise ValueError(f"degenerate measurement variance {variance}")
    keep = [i for i in range(2 * n) if i not in (2 * measured_mode, 2 * measured_mode + 1)]
    rest = cm.entries[np.ix_(keep, keep)]
    coupling = cm.entries[np.ix_(keep, [sel])]
    conditional = rest - (coupling @ coupling.T) / variance
    return GeneralCM((conditional + conditional.T) / 2.0)
