"""Entropy functionals, all in bits (log base 2).

The collision entropy -log2 tr(rho**2) is the workhorse: it needs only a
purity, not a spectrum.  The general Renyi family and the von Neumann
entropy operate on eigenvalue spectra.  Base 2 makes the entropy of a
maximally mixed qubit exactly one bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphaOne, DomainError, NotHermitian, NumericViolation
from .states import DensityMatrix

__all__ = [
    "Spectrum",
    "spectrum_of",
    "collision_entropy",
    "renyi_entropy",
    "von_neumann_entropy",
]

# most negative eigenvalue tolerated before erroring out
EIGENVALUE_FLOOR = -1e-10
# eigenvalues above this count toward the support (Renyi order 0)
SUPPORT_CUTOFF = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a density matrix: descending, clamped to >= 0, and
    renormalized after the sum is checked against 1."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("spectrum must be a nonempty vector")
        low = float(arr.min())
        if not low >= EIGENVALUE_FLOOR:
            raise NumericViolation(
                f"eigenvalue {low} below the positivity tolerance {EIGENVALUE_FLOOR}"
            )
        total = float(arr.sum())
        if not abs(total - 1.0) <= 1e-9:
            raise NumericViolation(f"eigenvalues sum to {total}, not 1 within 1e-9")
        arr = np.clip(arr, 0.0, None)
        arr = np.sort(arr)[::-1] / arr.sum()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.size


def _values(spec) -> np.ndarray:
    if isinstance(spec, Spectrum):
        return spec.values
    return Spectrum(np.asarray(spec, dtype=np.float64)).values


def spectrum_of(rho) -> Spectrum:
    """Eigenvalues of a density matrix, validated and sorted descending.

    Accepts a DensityMatrix or a raw square array; raises NotHermitian if
    the asymmetry exceeds 1e-8.
    """
    m = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)
    asym = float(np.abs(m - m.conj().T).max())
    if not asym <= 1e-8:
        raise NotHermitian(f"asymmetry {asym} exceeds 1e-8")
    return Spectrum(np.linalg.eigvalsh(m))


def collision_entropy(purity: float | np.ndarray) -> float | np.ndarray:
    """-log2 of the purity, 0 for a pure state and log2 d at maximal mixing:
    a float for one purity in (0, 1 + 1e-9], a float64 array of the same
    shape for an array of them."""
    p = np.asarray(purity, dtype=np.float64)
    if not (p > 0.0).all():
        raise DomainError(f"purity must be positive, got {p[~(p > 0.0)][0]}")
    if (p > 1.0 + 1e-9).any():
        raise DomainError(f"purity {p[p > 1.0 + 1e-9][0]} exceeds 1 beyond tolerance")
    # 0.0 - x rather than -x: a pure subsystem gets +0, not -0
    s2 = 0.0 - np.log2(np.minimum(p, 1.0))
    return float(s2) if s2.ndim == 0 else s2


def renyi_entropy(spec, alpha: float) -> float:
    """Order-alpha entropy (1/(1-alpha)) log2 sum(lambda**alpha).

    Defined for alpha >= 0 away from 1; order 0 counts the support, order
    2 reproduces the collision entropy.
    """
    if alpha < 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    if abs(alpha - 1.0) <= 1e-9:
        raise AlphaOne("alpha too close to 1; use von_neumann_entropy")
    vals = _values(spec)
    if alpha == 0.0:
        return math.log2(int((vals > SUPPORT_CUTOFF).sum()))
    positive = vals[vals > 0.0]
    return math.log2(float(np.sum(positive**alpha))) / (1.0 - alpha)


def von_neumann_entropy(spec) -> float:
    """-sum(lambda log2 lambda), with 0 log 0 = 0; the alpha -> 1 limit of
    the Renyi family."""
    vals = _values(spec)
    positive = vals[vals > 0.0]
    return float(-(positive * np.log2(positive)).sum())
