"""Subsystem reduction of pure states: bipartite reshapes, reduced density
matrices, and purities.

For a global pure state the reduced matrix never has to be built on the
big side of a bipartition: with Psi the (subsystem x complement) reshape
of the amplitudes, tr(rho_A**2) = ||Psi Psi†||_F**2 = ||Psi† Psi||_F**2,
so the Gram matrix is always formed on the smaller side.  That is what
makes the full sweep over thousands of subsystems cheap.

``purity`` is the one purity kernel.  Given the amplitudes of S states
stacked as an (S, N) array and one mask, it transposes the whole stack
once into (S, subsystem dim, complement dim) and forms one 2-D Gram
matrix per state.  It runs in the dtype of the amplitudes: states are
real in the ontic basis, so the sweep and ``evolve`` run in float64
there, and complex128 only after a change to the energy basis.  A single
PureState goes through the same kernel as a one-row stack.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionCap, NumericViolation, TrivialSubsystem
from .indexing import SubsystemMask, merge_index
from .states import DensityMatrix, PureState

__all__ = [
    "bipartite_view",
    "reduced_density",
    "reduced_density_bruteforce",
    "purity",
    "purity_from_density",
]

# slack on the purity range [1/min(d_A, d_B), 1] before a computed purity
# counts as a broken invariant
PURITY_TOLERANCE = 1e-9


def _check_proper(mask: SubsystemMask) -> None:
    if not mask.is_proper:
        raise TrivialSubsystem(
            "reduction needs a proper nonempty subset of the factor positions"
        )


def _check_pair(psi: PureState, mask: SubsystemMask) -> None:
    if psi.shape.dims != mask.shape.dims:
        raise ConfigError(
            f"mask shape {mask.shape} does not match state shape {psi.shape}"
        )
    _check_proper(mask)


def _bipartite_stack(stack: np.ndarray, mask: SubsystemMask) -> np.ndarray:
    """One contiguous (S, subsystem dim, complement dim) copy of an (S, N)
    amplitude stack: each state's tensor transposed to the mask's positions
    followed by the complement's, both ascending."""
    s = stack.shape[0]
    # stack axis 1 + p holds factor position p
    axes = [0] + [1 + p for p in mask.positions]
    axes += [1 + p for p in range(mask.shape.k) if not mask.mask >> p & 1]
    tensor = stack.reshape((s,) + mask.shape.dims).transpose(axes)
    return np.ascontiguousarray(tensor).reshape(s, mask.dim, -1)


def bipartite_view(psi: PureState, mask: SubsystemMask) -> np.ndarray:
    """Arrange amplitudes as a contiguous (subsystem dim) x (complement dim)
    matrix: rows run over subsystem digits and columns over complement
    digits (both big-endian over ascending positions).

    Entry placement agrees with ``indexing.split_index``: the amplitude at
    global index i lands at Psi[row, col] = Psi[split_index(shape, mask, i)].
    """
    _check_pair(psi, mask)
    return _bipartite_stack(psi.amps[np.newaxis], mask)[0]


def _stack_purities(stack: np.ndarray, mask: SubsystemMask) -> np.ndarray:
    """The kernel behind ``purity``, on an (S, N) stack already checked
    against the mask."""
    mats = _bipartite_stack(stack, mask)
    d_a, d_b = mats.shape[1:]
    low = 1.0 / min(d_a, d_b) - PURITY_TOLERANCE
    out = np.empty(len(mats))
    for row, m in enumerate(mats):
        # on a real array .conj() returns the array itself, so the real
        # path makes no conjugate copy
        gram = m @ m.conj().T if d_a <= d_b else m.conj().T @ m
        p = float(np.vdot(gram, gram).real)
        if not low <= p <= 1.0 + PURITY_TOLERANCE:
            raise NumericViolation(
                f"purity {p!r} of mask 0b{mask.mask:b}, state row {row}, "
                f"outside [1/{min(d_a, d_b)}, 1]"
            )
        out[row] = p
    return out


def reduced_density(psi: PureState, mask: SubsystemMask, cap: int = 4096) -> DensityMatrix:
    """Partial trace over the complement, computed as Psi Psi†."""
    _check_pair(psi, mask)
    if mask.dim > cap:
        raise DimensionCap(f"subsystem dimension {mask.dim} exceeds cap {cap}")
    m = bipartite_view(psi, mask)
    gram = m @ m.conj().T
    # symmetrize away the last-bit asymmetry of the matrix product
    return DensityMatrix((gram + gram.conj().T) / 2.0)


def reduced_density_bruteforce(psi: PureState, mask: SubsystemMask, cap: int = 256) -> DensityMatrix:
    """Reference partial trace: explicit sums over complement digits using
    integer index arithmetic only.

    Deliberately slow and independent of the reshape-based fast path; used
    as the oracle it is checked against.
    """
    _check_pair(psi, mask)
    if psi.dim > cap:
        raise DimensionCap(f"brute-force path is capped at total dimension {cap}")
    d_a = mask.dim
    d_b = psi.dim // d_a
    rho = np.zeros((d_a, d_a), dtype=np.complex128)
    for c in range(d_b):
        column = [psi.amps[merge_index(psi.shape, mask, r, c)] for r in range(d_a)]
        for r1 in range(d_a):
            for r2 in range(d_a):
                rho[r1, r2] += column[r1] * np.conj(column[r2])
    return DensityMatrix(rho)


def purity(
    psi: PureState | np.ndarray, mask: SubsystemMask
) -> float | np.ndarray:
    """tr(rho_A**2) through the Gram matrix on the smaller side.

    ``psi`` is one PureState, giving one float, or the amplitudes of S
    states stacked as an (S, N) array, giving the S purities in one call
    with one transpose of the whole stack.  A stack is used in its own
    dtype: float64 for real amplitudes, complex128 otherwise.  A purity
    outside [1/min(d_A, d_B), 1] beyond ``PURITY_TOLERANCE`` raises
    NumericViolation naming the mask and the stack row.
    """
    if isinstance(psi, PureState):
        _check_pair(psi, mask)
        return float(_stack_purities(psi.amps[np.newaxis], mask)[0])
    if psi.ndim != 2 or psi.shape[1] != mask.shape.total:
        raise ConfigError(
            f"amplitude stack of shape {psi.shape} does not match {mask.shape}"
        )
    _check_proper(mask)
    return _stack_purities(psi, mask)


def purity_from_density(rho: DensityMatrix) -> float:
    """tr(rho**2) as the explicit sum: squared diagonal entries plus twice
    the squared magnitudes above the diagonal."""
    m = rho.entries
    diag = np.real(np.diagonal(m))
    upper = m[np.triu_indices(m.shape[0], k=1)]
    return float(np.sum(diag * diag) + 2.0 * np.sum((upper * upper.conj()).real))
