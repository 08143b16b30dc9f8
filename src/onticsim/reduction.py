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
matrices by one transpose of the stack and one batched Gram product
against a conjugate copy, ``_squared_norms`` reduces them to purities
and ``_check_range`` checks them all at once.  ``purity`` (one mask of
one PureState or of a stack; ``evolve`` passes it one stack per block of
time steps) goes through all four, and so do the roots of
``sweep_purities`` no hub serves, so those agree with ``purity`` to the
last bit.

``sweep_purities`` holds each complement pair of a sweep once and orders
those subsystems in a tree: the parent of a subsystem adds its lowest
absent position.  A subsystem whose parent is not in the sweep is a
root; every other one is its parent's reduced matrix with one position
traced out.  ``_plan`` covers the roots greedily with hubs, subsystems
outside the sweep one position larger, each formed by one Gram product
for several roots that are then one partial trace of it; a hub is kept
only if its Gram product costs no more flops than the roots' own.  One
flat loop runs the tree's depth-first walk.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

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


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each array of a stack: a state's, or tr(rho**2)
    of a Hermitian matrix."""
    flat = rows.reshape(len(rows), -1)
    if flat.dtype.kind == "c":
        # sum |z|**2 as the squares of the real and imaginary parts
        flat = flat.view(flat.real.dtype)
    return np.einsum("ij,ij->i", flat, flat)


def _check_range(purities: np.ndarray, masks: list[int], dims: list[int]) -> None:
    """NumericViolation naming the first column, then the first row, of the
    (S, M) ``purities`` outside [1/dims[j], 1] beyond ``PURITY_TOLERANCE``;
    NaN fails too."""
    low = 1.0 / np.array(dims) - PURITY_TOLERANCE
    bad = ~((low <= purities) & (purities <= 1.0 + PURITY_TOLERANCE))
    if bad.any():
        j, row = np.argwhere(bad.T)[0].tolist()
        raise NumericViolation(
            f"purity {float(purities[row, j])!r} of mask 0b{masks[j]:b}, state row {row}, "
            f"outside [1/{dims[j]}, 1]"
        )


def _gram_stack(stack: np.ndarray, mask: SubsystemMask) -> np.ndarray:
    """The (S, d, d) reduced matrices Psi Psi† of the mask's side, one
    batched Gram product of the stack against a conjugate copy of it."""
    mats = _bipartite_stack(stack, mask)
    # np.conjugate always allocates: a separate second buffer sends real
    # and complex stacks alike to gemm, not to numpy's syrk path for one
    # buffer times its own transpose
    return mats @ np.conjugate(mats).transpose(0, 2, 1)


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


def _dim_lookup(shape: FactorizationShape) -> Callable[[int], int]:
    """The dimension of a mask, by lookup in two tables of 2**(K/2)
    entries each; one table of 2**K would hold a million ints at K = 20."""
    half = shape.k // 2
    low_dims = _dim_table(shape.dims[:half])
    high_dims = _dim_table(shape.dims[half:])
    return lambda m: low_dims[m & ((1 << half) - 1)] * high_dims[m >> half]


def _plan(shape: FactorizationShape, masks: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The (M,) column each mask's purities are read from and the walk of
    ``sweep_purities``, from the shape and the masks alone.  The walk is
    the depth-first visit order as the rows (mask, depth, column) of a
    (W, 3) int64 array.  A step at depth 0 is a Gram product, of a hub
    (column -1) or of a root no hub serves; a step at depth i > 0 is traced
    out of the last earlier step at depth i - 1."""
    dim_of = _dim_lookup(shape)
    # node -> the column its purities go to: the first enumerated of its pair
    column: dict[int, int] = {}
    source = np.empty(len(masks), dtype=np.int64)
    for j, m in enumerate(masks):
        node, dim = _side(m, dim_of(m), shape)
        if dim > GRAM_DIM_CAP:
            raise ConfigError(
                f"mask 0b{m:b} needs a {dim}-dim Gram matrix, over the budget {GRAM_DIM_CAP}"
            )
        source[j] = column.setdefault(node, j)

    parent: dict[int, int | None] = {m: m | (m + 1) for m in column}
    roots = [m for m, p in parent.items() if p not in column]
    # every subsystem outside the sweep one position larger than a root,
    # and the roots it holds
    holds: dict[int, list[int]] = {}
    full = (1 << shape.k) - 1
    for root in roots:
        parent[root] = None
        absent = full ^ root
        while absent:
            hub = root | (absent & -absent)
            absent &= absent - 1
            if hub not in column:
                holds.setdefault(hub, []).append(root)
    # greedy cover: the hub holding the most unserved roots first, the
    # smaller mask on a tie; a key goes stale as its roots are served, and
    # is pushed back with its new count
    heap = [(-len(held), hub) for hub, held in holds.items()]
    heapq.heapify(heap)
    while heap:
        count, hub = heapq.heappop(heap)
        free = [root for root in holds[hub] if parent[root] is None]
        if len(free) < -count:
            heapq.heappush(heap, (-len(free), hub))
        # a hub's Gram product costs no more flops than the roots' own,
        # and stays within the cap
        elif dim_of(hub) <= min(GRAM_DIM_CAP, sum(dim_of(root) for root in free)):
            parent.update(dict.fromkeys(free, hub))
    children: dict[int | None, list[int]] = {}
    for node, up in parent.items():
        children.setdefault(up, []).append(node)
    # the Gram products: each hub, then each root no hub serves
    own = children.pop(None, [])
    todo = [(top, 0) for top in [up for up in children if up not in column] + own][::-1]
    walk: list[int] = []  # flat: three list slots a step
    while todo:
        node, depth = todo.pop()
        walk += node, depth, column.get(node, -1)
        todo += [(child, depth + 1) for child in children.get(node, [])[::-1]]
    return source, np.array(walk, np.int64).reshape(-1, 3)


def sweep_purities(
    stack: np.ndarray, shape: FactorizationShape, masks: list[int]
) -> np.ndarray:
    """The (S, M) purities of the proper masks ``masks`` (distinct ints)
    for an (S, N) amplitude stack.

    A pure state gives a subsystem and its complement the same purity, so
    each complement pair is computed once, on its node, the side ``_side``
    picks, and both columns of the pair are read from it.  The first mask
    whose node has a dimension over ``GRAM_DIM_CAP`` raises ConfigError
    before any Gram product is formed.

    One loop runs the walk of ``_plan`` with a chain of live reduced
    matrices, one per depth, cut back to each step's depth before the step,
    so one chain from one Gram product is alive at a time.  Then one range
    check requires each node's purities to lie in [1/d_node, 1], else
    NumericViolation names the first bad node in visit order; a corrupted
    hub shows in the first root traced out of it.
    """
    source, walk = _plan(shape, masks)
    dim_of = _dim_lookup(shape)
    s = stack.shape[0]
    out = np.empty((s, len(masks)))
    # (mask, reduced matrices) of the last step at each depth so far
    chain: list[tuple[int, np.ndarray]] = []
    for node, depth, col in walk.tolist():
        del chain[depth:]
        if depth:
            # b is the dimension of up's positions below pos, a above it
            up, rho = chain[-1]
            pos = (up ^ node).bit_length() - 1
            b, d = dim_of(up & ((1 << pos) - 1)), shape.dims[pos]
            a = rho.shape[1] // (b * d)
            rho = np.einsum("sabcdbe->sacde", rho.reshape(s, b, d, a, b, d, a))
            rho = rho.reshape(s, b * a, b * a)
        else:
            rho = _gram_stack(stack, SubsystemMask(node, shape))
        chain.append((node, rho))
        if col >= 0:
            out[:, col] = _squared_norms(rho)
    written = walk[walk[:, 2] >= 0]
    nodes = written[:, 0].tolist()
    _check_range(out[:, written[:, 2]], nodes, [dim_of(m) for m in nodes])
    return out[:, source]


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
    side, dim = _side(mask.mask, mask.dim, mask.shape)
    purities = _squared_norms(_gram_stack(psi, mask if side == mask.mask else mask.complement()))
    _check_range(purities[:, np.newaxis], [mask.mask], [dim])
    return float(purities[0]) if one else purities

