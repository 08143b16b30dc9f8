"""Subsystem reduction of pure states: reduced density matrices and
purities.

For a global pure state the reduced matrix never has to be built on the
big side of a bipartition: with Psi the (subsystem x complement) reshape
of the amplitudes, tr(rho_A**2) = ||Psi Psi†||_F**2 = ||Psi† Psi||_F**2,
so the Gram matrix is always formed on the smaller side.

One kernel takes the amplitudes of S states stacked as an (S, N) array,
float64 for the real states of the ontic basis or complex128 after a
change to the energy basis, and reduces every node to one real matrix:
S = Re rho + Im rho.  For a real stack that is rho itself.  Re rho is
symmetric and Im rho antisymmetric, so the two are orthogonal and
||S||_F**2 = ||rho||_F**2 = tr(rho**2); a partial trace is real-linear
and keeps both symmetries, so tracing S gives the S of the traced node.
``_side`` picks the side of a complement pair to reduce, ``_gram_stack``
forms that side's matrices by one transpose of the stack and one batched
real Gram product, ``_squared_norms`` reduces them to purities and
``_check_range`` checks them all at once.

Every purity goes through one runner, ``Plan.run``.  A ``Plan`` holds
each complement pair of a mask list once and orders those subsystems in
a tree: the parent of a subsystem adds its lowest absent position.  A
subsystem whose parent is not in the list is a root; every other one is
its parent's reduced matrix with one position traced out.  The plan
covers the roots greedily with hubs, subsystems outside the list one
position larger, each formed by one Gram product for several roots that
are then one partial trace of it; a hub is kept only if its Gram product
costs no more flops than the roots' own.  A plan is made once per shape
and mask list, in one pass; its run is one flat loop over the tree's
depth-first walk in buffers sized from the plan: one float64 buffer per
depth, and two stack-sized work buffers.  The sweep runs the plan of its
masks once; ``purity`` runs the plan of one mask, a single Gram product;
``evolve`` makes its mask's plan and buffers once and runs every block
of time steps through them.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

import numpy as np

from .errors import ConfigError, DimensionCap, NumericViolation, TrivialSubsystem
from .indexing import FactorizationShape, SubsystemMask
from .states import DensityMatrix, PureState

__all__ = ["reduced_density", "purity"]

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


def _bipartite_stack(stack: np.ndarray, mask: SubsystemMask, out: np.ndarray) -> np.ndarray:
    """One contiguous (S, subsystem dim, complement dim) copy of an (S, N)
    amplitude stack, written into ``out`` (contiguous, of the stack's size
    and dtype): each state's tensor transposed to the mask's positions
    followed by the complement's, both ascending."""
    s = stack.shape[0]
    # stack axis 1 + p holds factor position p
    axes = [0] + [1 + p for p in mask.positions]
    axes += [1 + p for p in range(mask.shape.k) if not mask.mask >> p & 1]
    tensor = stack.reshape((s,) + mask.shape.dims).transpose(axes)
    np.copyto(out.reshape(tensor.shape), tensor)
    return out.reshape(s, mask.dim, -1)


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each array of a real stack: a state's, or the
    purity ||S||_F**2 of a node's matrices."""
    flat = rows.reshape(len(rows), -1)
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


def _gram_stack(
    stack: np.ndarray,
    mask: SubsystemMask,
    buffers: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The (S, d, d) float64 matrices S = Re rho + Im rho of the mask's
    side, rho = Psi Psi†, by one batched real Gram product.  ``buffers``
    is (work, out), new ones if not given: a (2, S, N) work array of the
    stack's dtype holding the stack's transpose Psi and the product's left
    factor, a separate buffer, so the product runs as gemm and not as
    numpy's syrk path for one buffer times its own transpose; and a flat
    float64 array of at least S * d**2 entries the product is written to.

    For a real stack the left factor is a copy of Psi, and S = rho.  For a
    complex one it is (1 - i)Psi: with Psi = A + iB, its interleaved real
    view times that of Psi, over K = 2M columns, is (A + B)A^T + (B - A)B^T
    = (AA^T + BB^T) + (BA^T - AB^T) = Re rho + Im rho, at half of zgemm's
    flops."""
    s = stack.shape[0]
    work, out = buffers or (np.empty((2,) + stack.shape, stack.dtype), np.empty(s * mask.dim**2))
    right = _bipartite_stack(stack, mask, work[0])
    left = work[1].reshape(right.shape)
    if stack.dtype.kind == "c":
        np.multiply(right, 1 - 1j, out=left)
        left, right = left.view(np.float64), right.view(np.float64)
    else:
        np.copyto(left, right)
    gram = out[: s * mask.dim**2].reshape(s, mask.dim, mask.dim)
    return np.matmul(left, right.transpose(0, 2, 1), out=gram)


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


class Plan:
    """The walk of one shape and mask list, with everything about it that
    does not depend on the stack: made once, then run on any number of
    (S, N) stacks, such as a sweep's one stack or each of ``evolve``'s
    blocks of time steps.

    The walk is the depth-first visit order of the tree as the rows
    (mask, depth, column) of a (W, 3) int64 array.  A step at depth 0 is a
    Gram product, of a hub (column -1) or of a root no hub serves; a step at
    depth i > 0 is traced out of the last earlier step at depth i - 1; a
    step's column is the first mask of the list whose node it is, -1 for a
    hub.  The plan also holds each Gram step's SubsystemMask, the largest
    d**2 the walk reaches at each depth, the nodes it writes, in visit
    order, with their dimensions, and ``index``: for each mask, the place
    in that order of the node its purities are read from.

    An empty or full mask raises TrivialSubsystem, and a mask whose node is
    over ``GRAM_DIM_CAP`` ConfigError, before anything is allocated.
    """

    def __init__(self, shape: FactorizationShape, masks: list[int]) -> None:
        dim_of = _dim_lookup(shape)
        # node -> the column its purities go to: the first enumerated of its pair
        column: dict[int, int] = {}
        mask_nodes: list[int] = []
        for j, m in enumerate(masks):
            node, dim = _side(m, dim_of(m), shape)
            # the empty side is picked only for an empty or a full mask
            if not node:
                _check_proper(SubsystemMask(m, shape))
            if dim > GRAM_DIM_CAP:
                raise ConfigError(
                    f"mask 0b{m:b} needs a {dim}-dim Gram matrix, over the budget {GRAM_DIM_CAP}"
                )
            column.setdefault(node, j)
            mask_nodes.append(node)

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
        # is pushed back with its new count.  A hub of one root is at least
        # twice its dimension, so it never passes the flops test below
        heap = [(-len(held), hub) for hub, held in holds.items() if len(held) > 1]
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
        # the largest node dimension at each depth, in depth order
        largest: dict[int, int] = {}
        # written node -> its place in visit order
        slot: dict[int, int] = {}
        self.grams: dict[int, SubsystemMask] = {}
        while todo:
            node, depth = todo.pop()
            col = column.get(node, -1)
            walk += node, depth, col
            largest[depth] = max(largest.get(depth, 0), dim_of(node))
            if not depth:
                self.grams[node] = SubsystemMask(node, shape)
            if col >= 0:
                slot[node] = len(slot)
            todo += [(child, depth + 1) for child in children.get(node, [])[::-1]]
        self.shape, self.dim_of = shape, dim_of
        self.walk = np.array(walk, np.int64).reshape(-1, 3)
        self.sizes = [d * d for d in largest.values()]
        self.nodes = list(slot)
        self.dims = [dim_of(m) for m in self.nodes]
        self.index = np.array([slot[node] for node in mask_nodes], np.int64)

    def buffers(self, rows: int, dtype: np.dtype) -> tuple[np.ndarray, list[np.ndarray]]:
        """The buffers the walk runs in for stacks of at most ``rows``
        states of ``dtype``: two work buffers of that stack's size and
        dtype, and one float64 buffer per depth, as large as the largest
        rows * d**2 of the walk there."""
        work = np.empty((2, rows, self.shape.total), dtype)
        return work, [np.empty(rows * size) for size in self.sizes]

    def run(
        self, stack: np.ndarray, buffers: tuple[np.ndarray, list[np.ndarray]] | None = None
    ) -> np.ndarray:
        """The (S, M) purities of the plan's masks for an (S, N) stack.

        The walk runs in ``buffers``, as ``Plan.buffers`` makes them for
        at least S rows of the stack's dtype, so a caller running several
        stacks makes them once.  Without them, the run makes its own, freed
        before the range check and the gather.  The range check requires
        each node's purities to lie in [1/d_node, 1], else NumericViolation
        names the first bad node in visit order; a corrupted hub shows in
        the first root traced out of it.
        """
        out = np.empty((stack.shape[0], len(self.nodes)))
        # buffers made here die with _walk's frame, before the check
        self._walk(stack, out, buffers or self.buffers(stack.shape[0], stack.dtype))
        _check_range(out, self.nodes, self.dims)
        return out[:, self.index]

    def _walk(
        self, stack: np.ndarray, out: np.ndarray, buffers: tuple[np.ndarray, list[np.ndarray]]
    ) -> None:
        """Write the purities of each node the walk writes to the next
        column of ``out``, one column per node in visit order.

        The chain of live reduced matrices, one per depth, is cut back to
        each step's depth before the step, so one chain from one Gram
        product is alive at a time.  A Gram product writes into depth 0's
        buffer through the two work buffers, and a trace writes the sum of
        its d diagonal blocks into its depth's; each takes the first
        S * d**2 entries.
        """
        shape, dim_of = self.shape, self.dim_of
        s = stack.shape[0]
        work, levels = buffers
        work = work[:, :s]
        # (mask, reduced matrices) of the last step at each depth so far
        chain: list[tuple[int, np.ndarray]] = []
        written = 0
        # one row at a time: the walk as a list of Python ints would outweigh
        # the smaller buffers
        for step in self.walk:
            node, depth, col = step.tolist()
            del chain[depth:]
            if depth:
                # b is the dimension of up's positions below pos, a above it
                up, rho = chain[-1]
                pos = (up ^ node).bit_length() - 1
                b, d = dim_of(up & ((1 << pos) - 1)), shape.dims[pos]
                a = rho.shape[1] // (b * d)
                blocks = rho.reshape(s, b, d, a, b, d, a)
                rho = levels[depth][: s * (b * a) ** 2].reshape(s, b, a, b, a)
                np.add(blocks[:, :, 0, :, :, 0], blocks[:, :, 1, :, :, 1], out=rho)
                for k in range(2, d):
                    np.add(rho, blocks[:, :, k, :, :, k], out=rho)
                rho = rho.reshape(s, b * a, b * a)
            else:
                rho = _gram_stack(stack, self.grams[node], (work, levels[0]))
            chain.append((node, rho))
            if col >= 0:
                out[:, written] = _squared_norms(rho)
                written += 1


def reduced_density(psi: PureState, mask: SubsystemMask) -> DensityMatrix:
    """Partial trace over the complement, rebuilt from the real matrix
    S = Re rho + Im rho of ``_gram_stack``: rho = ((S + S^T) + i(S - S^T))/2,
    Hermitian to the last bit; (S + S^T)/2 for a real state."""
    _check_pair(psi, mask)
    _check_proper(mask)
    if mask.dim > REDUCED_DENSITY_CAP:
        raise DimensionCap(f"subsystem dimension {mask.dim} exceeds cap {REDUCED_DENSITY_CAP}")
    gram = _gram_stack(psi.amps[np.newaxis], mask)[0]
    # S's symmetric part is Re rho and its antisymmetric part Im rho; taking
    # them apart also drops the last-bit asymmetry of the matrix product
    symmetric = gram + gram.T
    if psi.amps.dtype.kind == "c":
        return DensityMatrix((symmetric + 1j * (gram - gram.T)) / 2.0)
    return DensityMatrix(symmetric / 2.0)


def purity(psi: PureState, mask: SubsystemMask) -> float:
    """tr(rho_A**2), by the ``Plan`` of the one mask: the Gram matrix on
    the side ``_side`` picks.

    Real and complex amplitudes alike reduce to the real matrix of
    ``_gram_stack``.  A mask of another shape raises ConfigError, an empty
    or full one TrivialSubsystem from its plan, and a purity outside
    [1/min(d_A, d_B), 1] beyond ``PURITY_TOLERANCE`` NumericViolation
    naming the side's mask.
    """
    _check_pair(psi, mask)
    return float(Plan(mask.shape, [mask.mask]).run(psi.amps[np.newaxis])[0, 0])
