"""Subsystem reduction of pure states: bipartite reshapes, reduced density
matrices, and purities.

For a global pure state the reduced matrix never has to be built on the
big side of a bipartition: with Psi the (subsystem x complement) reshape
of the amplitudes, tr(rho_A**2) = ||Psi Psi†||_F**2 = ||Psi† Psi||_F**2,
so the Gram matrix is always formed on the smaller side.  That is what
makes the full sweep over thousands of subsystems cheap.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionCap, TrivialSubsystem
from .indexing import SubsystemMask, merge_index
from .states import DensityMatrix, PureState

__all__ = [
    "bipartite_view",
    "reduced_density",
    "reduced_density_bruteforce",
    "purity",
    "purity_from_density",
]


def _check_pair(psi: PureState, mask: SubsystemMask) -> None:
    if psi.shape.dims != mask.shape.dims:
        raise ConfigError(
            f"mask shape {mask.shape} does not match state shape {psi.shape}"
        )
    if not mask.is_proper:
        raise TrivialSubsystem(
            "reduction needs a proper nonempty subset of the factor positions"
        )


def bipartite_view(psi: PureState, mask: SubsystemMask) -> np.ndarray:
    """Arrange amplitudes as a contiguous (subsystem dim) x (complement dim)
    matrix: rows run over subsystem digits and columns over complement
    digits (both big-endian over ascending positions).

    Entry placement agrees with ``indexing.split_index``: the amplitude at
    global index i lands at Psi[row, col] = Psi[split_index(shape, mask, i)].
    """
    _check_pair(psi, mask)
    pos = mask.positions
    comp = mask.complement().positions
    tensor = psi.amps.reshape(psi.shape.dims)
    mat = tensor.transpose(pos + comp).reshape(mask.dim, -1)
    return np.ascontiguousarray(mat)


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


def purity(psi: PureState, mask: SubsystemMask) -> float:
    """tr(rho_A**2) through the Gram matrix on the smaller side of the
    bipartition; never materializes the reduced matrix on the large side."""
    m = bipartite_view(psi, mask)
    if m.shape[0] <= m.shape[1]:
        gram = m @ m.conj().T
    else:
        gram = m.conj().T @ m
    return float(np.vdot(gram, gram).real)


def purity_from_density(rho: DensityMatrix) -> float:
    """tr(rho**2) as the explicit sum: squared diagonal entries plus twice
    the squared magnitudes above the diagonal."""
    m = rho.entries
    diag = np.real(np.diagonal(m))
    upper = m[np.triu_indices(m.shape[0], k=1)]
    return float(np.sum(diag * diag) + 2.0 * np.sum((upper * upper.conj()).real))
