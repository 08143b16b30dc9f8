"""Pure states orthogonal to the all-ones direction, and small density
matrices.

States come from bit patterns (subset indicators): project out the
uniform component, then normalize.  For a bit pattern with k of n bits
set the projected squared norm is exactly k*(n - k)/n, so construction
costs one division and one square root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitstate import OnticVector, popcount
from .errors import (
    ConfigError,
    DegenerateState,
    LengthMismatch,
    NotHermitian,
    NumericViolation,
)
from .indexing import FactorizationShape

__all__ = [
    "PureState",
    "DensityMatrix",
    "project_standard",
    "state_from_ontic",
]

NORM_TOLERANCE = 1e-12  # largest |norm - 1| a state may have


@dataclass(frozen=True)
class PureState:
    """Unit-norm real or complex amplitude vector over a factorization shape.

    The amplitudes are stored as float64 when the input array is real
    (integer, float32 or float64) and as complex128 when it is complex,
    whatever its values: a complex input with zero imaginary parts stays
    complex128.  States built from subsets are therefore real; only a
    change to a permutation's energy basis makes them complex.

    States constructed in the original (ontic) basis additionally have
    coordinate sum ~ 0: they live in the orthogonal complement of the
    all-ones vector.  Basis changes move that property out of the
    coordinates, so only the norm is enforced here.
    """

    amps: np.ndarray
    shape: FactorizationShape

    def __post_init__(self) -> None:
        dtype = np.float64 if np.isrealobj(self.amps) else np.complex128
        arr = np.array(self.amps, dtype=dtype, copy=True)
        if arr.ndim != 1 or arr.size != self.shape.total:
            raise ConfigError(
                f"amplitude vector must have length {self.shape.total}, got {arr.shape}"
            )
        norm = np.linalg.norm(arr)
        if not abs(norm - 1.0) <= NORM_TOLERANCE:
            raise NumericViolation(f"state norm {norm!r} is not 1 within {NORM_TOLERANCE}")
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    @property
    def dim(self) -> int:
        return self.amps.size


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix.

    Hermiticity (1e-12 elementwise) and trace (1e-10) are checked on
    construction; positivity is checked where eigenvalues are computed.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError("density matrix must be square")
        asym = np.abs(arr - arr.conj().T).max()
        if not asym <= 1e-12:
            raise NotHermitian(f"asymmetry {asym} exceeds 1e-12")
        tr = complex(arr.trace())
        if not abs(tr - 1.0) <= 1e-10:
            raise NumericViolation(f"trace {tr} is not 1 within 1e-10")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def project_standard(values) -> np.ndarray:
    """Remove the uniform component: v - mean(v).

    Idempotent; annihilates the all-ones vector.  Computed in at least
    double precision: real input gives float64, complex input complex128.
    """
    arr = np.asarray(values)
    arr = arr.astype(np.result_type(arr.dtype, np.float64))
    return arr - arr.mean()


def state_from_ontic(q: OnticVector, shape: FactorizationShape) -> PureState:
    """The normalized projection of the subset indicator q.

    amps_i = (q_i - k/n) / sqrt(k*(n - k)/n) with k the popcount; the
    denominator is the exact norm of the projected indicator.
    """
    if q.n != shape.total:
        raise LengthMismatch(f"vector length {q.n} != shape total {shape.total}")
    k = popcount(q)
    if k == 0 or k == q.n:
        raise DegenerateState("empty and full subsets project to zero")
    density = k / q.n
    scale = math.sqrt(k * (q.n - k) / q.n)
    amps = (q.to_array().astype(np.float64) - density) / scale
    return PureState(amps, shape)

