"""Subsystem reduction of pure states: reduced density matrices and
purities.

For a global pure state the reduced matrix never has to be built on the
big side of a bipartition: with Psi the (subsystem x complement) reshape
of the amplitudes, tr(rho_A**2) = ||Psi Psi†||_F**2 = ||Psi† Psi||_F**2,
so the Gram matrix is always formed on the smaller side.

One kernel takes the amplitudes of S states stacked as an (S, N) array
and runs in its dtype: float64 for the real states of the ontic basis,
complex128 after a change to the energy basis.  ``_side`` picks the side
of a complement pair to reduce, ``_gram_stack`` forms that side's reduced
matrices by one transpose of the stack and one Gram product per state,
and ``_rho_purities`` reduces them to range-checked purities.  ``purity``
(one mask of one PureState or of a stack of states; ``evolve`` passes
it one stack per block of time steps) and the roots of
``sweep_purities`` go through all three, so they agree to the last bit.

``sweep_purities`` holds each complement pair of a sweep once and orders
those subsystems in a tree: the parent of a subsystem adds its lowest
absent position.  A subsystem whose parent is not in the sweep is a
root; every other one is its parent's reduced matrix with one position
traced out.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionCap, NumericViolation, TrivialSubsystem
from .indexing import FactorizationShape, SubsystemMask
from .states import DensityMatrix, PureState

__all__ = ["reduced_density", "purity", "sweep_purities"]

# slack on the purity range [1/min(d_A, d_B), 1] before a computed purity
# counts as a broken invariant
PURITY_TOLERANCE = 1e-9
GRAM_DIM_CAP = 1 << 13  # largest Gram matrix side a sweep mask may need
REDUCED_DENSITY_CAP = 4096  # largest subsystem dimension of reduced_density


def _check_proper(mask: SubsystemMask) -> None:
    if not mask.is_proper:
        raise TrivialSubsystem("reduction needs a proper nonempty subset of the factor positions")


def _check_pair(psi: PureState, mask: SubsystemMask) -> None:
    if psi.shape.dims != mask.shape.dims:
        raise ConfigError(f"mask shape {mask.shape} does not match state shape {psi.shape}")
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


def _rho_purities(rho: np.ndarray, mask: int) -> np.ndarray:
    """tr(rho**2) of each matrix of an (S, d, d) Hermitian stack, as its
    squared Frobenius norm.  NumericViolation names the mask and the row
    unless every purity lies in [1/d, 1]; NaN fails too."""
    flat = rho.reshape(len(rho), -1)
    if flat.dtype.kind == "c":
        # sum |z|**2 as the squares of the real and imaginary parts
        flat = flat.view(flat.real.dtype)
    purities = np.einsum("ij,ij->i", flat, flat)
    dim = rho.shape[1]
    low, high = 1.0 / dim - PURITY_TOLERANCE, 1.0 + PURITY_TOLERANCE
    # Python floats: numpy's per-call cost would dominate one-state calls
    for row, p in enumerate(purities.tolist()):
        if not low <= p <= high:
            raise NumericViolation(
                f"purity {p!r} of mask 0b{mask:b}, state row {row}, outside [1/{dim}, 1]"
            )
    return purities


def _gram_stack(stack: np.ndarray, mask: SubsystemMask) -> np.ndarray:
    """The (S, d, d) reduced matrices Psi Psi† of the mask's side, one Gram
    product per state."""
    mats = _bipartite_stack(stack, mask)
    rho = np.empty((len(mats), mask.dim, mask.dim), stack.dtype)
    for row, m in enumerate(mats):
        # on a real array .conj() returns the array itself, so the real
        # path makes no conjugate copy
        np.matmul(m, m.conj().T, out=rho[row])
    return rho


def _side(mask: int, dim: int, shape: FactorizationShape) -> tuple[int, int]:
    """The side of the pair (mask, complement) a reduced matrix is formed
    on, and its dimension, for a mask of dimension ``dim``: the smaller
    dimension, then fewer positions, then the side holding position 0."""
    comp, comp_dim = mask ^ ((1 << shape.k) - 1), shape.total // dim
    # the last key is 0 for the side holding position 0
    if (comp_dim, comp.bit_count(), mask & 1) < (dim, mask.bit_count(), comp & 1):
        return comp, comp_dim
    return mask, dim


def _dim_table(dims: tuple[int, ...]) -> list[int]:
    """Entry v is the product of ``dims[p]`` over the bits p set in v."""
    table = [1]
    for d in dims:
        table += [t * d for t in table]
    return table


def sweep_purities(
    stack: np.ndarray, shape: FactorizationShape, masks: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The (S, M) purities of the proper masks ``masks`` (distinct ints)
    for an (S, N) amplitude stack, and the (M,) column ``source`` that
    each purity was computed in.

    A pure state gives a subsystem and its complement the same purity, so
    each complement pair is computed once, on its node, the side ``_side``
    picks.  ``source[j]`` is the column of the node of mask j's pair when
    the node is among the masks, and j itself otherwise.  The first mask
    whose node has a dimension over ``GRAM_DIM_CAP`` raises ConfigError
    before any Gram product is formed.

    The parent of a node m is m | (m + 1), m plus its lowest absent
    position.  A node whose parent is a node of this sweep is that
    parent's reduced matrix with the position traced out; every other
    node is a root, reduced by one transpose of the stack and one Gram
    product per state.  The walk is depth first, so one chain of reduced
    matrices from a root is alive at a time.  Every node's purities must
    lie in [1/d_node, 1], else NumericViolation names the node.
    """
    # dimensions by lookup in two tables of 2**(K/2) entries each; one
    # table of 2**K would hold a million ints at K = 20
    half = shape.k // 2
    low_dims = _dim_table(shape.dims[:half])
    high_dims = _dim_table(shape.dims[half:])

    def dim_of(m: int) -> int:
        return low_dims[m & ((1 << half) - 1)] * high_dims[m >> half]

    # node -> the column its purities go to: its own when enumerated,
    # else its complement's
    column: dict[int, int] = {}
    source = np.arange(len(masks), dtype=np.int64)
    for j, m in enumerate(masks):
        node, dim = _side(m, dim_of(m), shape)
        if dim > GRAM_DIM_CAP:
            raise ConfigError(
                f"mask 0b{m:b} needs a {dim}-dim Gram matrix, over the budget {GRAM_DIM_CAP}"
            )
        other = column.setdefault(node, j)
        if other != j:
            if node == m:
                # the node comes after its complement, which copies it
                column[node] = source[other] = j
            else:
                source[j] = other

    s = stack.shape[0]
    out = np.empty((s, len(masks)))

    def visit(node: int, rho: np.ndarray) -> None:
        dim = rho.shape[1]
        out[:, column[node]] = _rho_purities(rho, node)
        # a child drops one position pos of the node's lowest run
        # 0..run-1, which makes pos the child's lowest absent position
        run = (~node & (node + 1)).bit_length() - 1
        for pos in range(run):
            child = node ^ (1 << pos)
            if child in column:
                b, d = dim_of((1 << pos) - 1), shape.dims[pos]
                a = dim // (b * d)
                traced = np.einsum("sabcdbe->sacde", rho.reshape(s, b, d, a, b, d, a))
                visit(child, traced.reshape(s, b * a, b * a))

    for node in column:
        if node | (node + 1) not in column:
            visit(node, _gram_stack(stack, SubsystemMask(node, shape)))
    return out[:, source], source


def reduced_density(psi: PureState, mask: SubsystemMask) -> DensityMatrix:
    """Partial trace over the complement, computed as Psi Psi†."""
    _check_pair(psi, mask)
    if mask.dim > REDUCED_DENSITY_CAP:
        raise DimensionCap(f"subsystem dimension {mask.dim} exceeds cap {REDUCED_DENSITY_CAP}")
    gram = _gram_stack(psi.amps[np.newaxis], mask)[0]
    # symmetrize away the last-bit asymmetry of the matrix product
    return DensityMatrix((gram + gram.conj().T) / 2.0)


def purity(psi: PureState | np.ndarray, mask: SubsystemMask) -> float | np.ndarray:
    """tr(rho_A**2) through the Gram matrix on the side ``_side`` picks.

    ``psi`` is one PureState, giving one float, or the amplitudes of S
    states stacked as an (S, N) array, giving the S purities in one call
    with one transpose of the whole stack.  A stack is used in its own
    dtype: float64 for real amplitudes, complex128 otherwise.  A purity
    outside [1/min(d_A, d_B), 1] beyond ``PURITY_TOLERANCE`` raises
    NumericViolation naming the mask and the stack row.
    """
    one = isinstance(psi, PureState)
    if one:
        _check_pair(psi, mask)
        psi = psi.amps[np.newaxis]
    elif psi.ndim != 2 or psi.shape[1] != mask.shape.total:
        raise ConfigError(f"amplitude stack of shape {psi.shape} does not match {mask.shape}")
    else:
        _check_proper(mask)
    side, _ = _side(mask.mask, mask.dim, mask.shape)
    rho = _gram_stack(psi, mask if side == mask.mask else mask.complement())
    purities = _rho_purities(rho, mask.mask)
    return float(purities[0]) if one else purities

