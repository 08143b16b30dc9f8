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
Of a complement pair, the side with the smaller dimension is reduced;
``_gram_stack`` forms that side's matrices by one transpose of the stack
and one batched real Gram product, ``_trace`` traces one position out of
them, ``_squared_norms`` reduces them to purities and ``_check_range``
checks them all at once.

Every purity goes through one runner, ``Plan.run``.  A ``Plan`` holds
each complement pair of a mask list once and orders those subsystems in
a tree: the parent of a subsystem adds its lowest absent position.  A
subsystem whose parent is not in the list is a root; every other one is
its parent's reduced matrix with one position traced out.  The plan
covers the roots greedily with hubs, subsystems outside the list one
position larger, each formed by one Gram product for several roots that
are then one partial trace of it; a hub is kept only if its Gram product
costs no more flops than the roots' own.  A plan is made once per shape
and mask list.  Its passes over every mask run on int64 arrays; its
lookups by mask (the distinct nodes, the parents m | (m + 1), the hub
candidates, the depth-first order) and the greedy hub heap run on Python
dicts and lists, where numpy would sort.  It records each trace's
geometry with its step.  Its run is one flat loop over the tree's
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
# masks the planner's side rule takes at a time: what the planner holds at
# once stays resident through the walk, and the rule's dozen int64
# temporaries over all 16,382 masks of a 2^14 sweep would be 1.5 MB
PLAN_BLOCK = 4096
# elements per operand of the ufunc buffers the walk runs with: numpy makes
# them anew for every strided sum of a trace, and at its default of 8192
# they outgrow the cache and the traces run slower
WALK_BUFSIZE = 1024


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


def _check_range(purities: np.ndarray, masks: np.ndarray, dims: np.ndarray) -> None:
    """NumericViolation naming the first column, then the first row, of the
    (S, M) ``purities`` outside [1/dims[j], 1] beyond ``PURITY_TOLERANCE``;
    NaN fails too."""
    low = 1.0 / dims - PURITY_TOLERANCE
    bad = ~((low <= purities) & (purities <= 1.0 + PURITY_TOLERANCE))
    if bad.any():
        j, row = np.argwhere(bad.T)[0].tolist()
        raise NumericViolation(
            f"purity {float(purities[row, j])!r} of mask 0b{masks[j]:b}, state row {row}, "
            f"outside [1/{dims[j]}, 1]"
        )


def _gram_stack(
    stack: np.ndarray, mask: SubsystemMask, buffers: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """The (S, d, d) float64 matrices S = Re rho + Im rho of the mask's
    side, rho = Psi Psi†, by one batched real Gram product.  ``buffers``
    is (work, out): a (2, S, N) work array of the stack's dtype holding the
    stack's transpose Psi and the product's left factor, a separate buffer,
    so the product runs as gemm and not as numpy's syrk path for one buffer
    times its own transpose; and a flat float64 array of at least S * d**2
    entries the product is written to.

    For a real stack the left factor is a copy of Psi, and S = rho.  For a
    complex one it is (1 - i)Psi: with Psi = A + iB, its interleaved real
    view times that of Psi, over K = 2M columns, is (A + B)A^T + (B - A)B^T
    = (AA^T + BB^T) + (BA^T - AB^T) = Re rho + Im rho, at half of zgemm's
    flops."""
    s = stack.shape[0]
    work, out = buffers
    right = _bipartite_stack(stack, mask, work[0])
    left = work[1].reshape(right.shape)
    if stack.dtype.kind == "c":
        np.multiply(right, 1 - 1j, out=left)
        left, right = left.view(np.float64), right.view(np.float64)
    else:
        np.copyto(left, right)
    gram = out[: s * mask.dim**2].reshape(s, mask.dim, mask.dim)
    return np.matmul(left, right.transpose(0, 2, 1), out=gram)


def _trace(rho: np.ndarray, b: int, d: int, a: int, out: np.ndarray) -> np.ndarray:
    """The partial trace of an (S, n, n) stack of matrices over one
    position of dimension d, n = b * d * a, where b is the dimension of
    the positions before it in the matrices' index order and a of those
    after it: the (S, b * a, b * a) sum of the d diagonal blocks, in block
    order, written into the first S * (b * a)**2 entries of ``out``.

    Over an inner run a of 2 to 4 entries numpy's inner loop is too short
    to pay for itself, so the sum iterates along b instead: in C order
    of the views with their two column axes swapped.  Each element is
    the same sum of the same operands in the same order either way."""
    s = rho.shape[0]
    blocks = rho.reshape(s, b, d, a, b, d, a)
    traced = total = out[: s * (b * a) ** 2].reshape(s, b, a, b, a)
    order = "K"
    if 1 < a <= 4:
        blocks, total = blocks.transpose(0, 1, 2, 3, 6, 5, 4), traced.transpose(0, 1, 2, 4, 3)
        order = "C"
    np.add(blocks[:, :, 0, :, :, 0], blocks[:, :, 1, :, :, 1], out=total, order=order)
    for k in range(2, d):
        np.add(total, blocks[:, :, k, :, :, k], out=total, order=order)
    return traced.reshape(s, b * a, b * a)


def _product_lookup(factors: tuple[int, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """For an int64 array of masks over ``len(factors)`` positions, the
    product of ``factors[p]`` over the bits p set in each: two gathers from
    tables of 2**(K/2) entries each, where one table of 2**K would hold a
    million entries at K = 20."""
    half = len(factors) // 2
    tables = []
    for part in (factors[:half], factors[half:]):
        table = [1]
        for f in part:
            table += [t * f for t in table]
        tables.append(np.array(table, np.int64))
    low, high = tables
    return lambda m: low[m % (1 << half)] * high[m >> half]


def _distinct_nodes(
    shape: FactorizationShape, masks: list[int], dim_of: Callable[[np.ndarray], np.ndarray]
) -> tuple[dict[int, int], np.ndarray, np.ndarray, np.ndarray]:
    """The nodes of a mask list, numbered in the order of their first masks
    in the list: a dict from each node to its number; for each node, the
    column of that first mask and the node's dimension; and for each mask,
    its node's number.

    A mask's node is the side of the pair (mask, complement) a reduced
    matrix is formed on: the smaller dimension, then fewer positions, then
    the side holding position 0.  An empty or full mask raises
    TrivialSubsystem, and a mask whose node is over ``GRAM_DIM_CAP``
    ConfigError, for the first such mask of the list."""
    full = (1 << shape.k) - 1
    # 2**positions, which orders masks as their numbers of positions do
    weight_of = _product_lookup((2,) * shape.k)
    # the lookups by node run in a dict: numpy would sort, and its sorts map
    # 192 KiB more of its code into the process
    slot: dict[int, int] = {}
    first: list[int] = []
    dims, place = [], []
    # one block at least, so that an empty list gives empty arrays
    for lo in range(0, len(masks) or 1, PLAN_BLOCK):
        listed = np.array(masks[lo : lo + PLAN_BLOCK], np.int64)
        comp = full - listed
        dim, comp_dim = dim_of(listed), dim_of(comp)
        weight, comp_weight = weight_of(listed), weight_of(comp)
        # the keys compared field by field in nested np.where: numpy's
        # boolean operators would map 64 KiB more of its code
        flip = np.where(
            comp_dim != dim,
            comp_dim < dim,
            np.where(comp_weight != weight, comp_weight < weight, listed % 2 == 0),
        )
        node, dim = np.where(flip, comp, listed), np.where(flip, comp_dim, dim)
        # the empty side is picked only for an empty or a full mask
        bad = np.where(node == 0, True, dim > GRAM_DIM_CAP).nonzero()[0]
        if bad.size:
            j = int(bad[0])
            if not node[j]:
                _check_proper(SubsystemMask(masks[lo + j], shape))
            raise ConfigError(
                f"mask 0b{masks[lo + j]:b} needs a {dim[j]}-dim Gram matrix, "
                f"over the budget {GRAM_DIM_CAP}"
            )
        nodes, known = node.tolist(), len(first)
        for j, m in enumerate(nodes, lo):
            if m not in slot:
                slot[m] = len(first)
                first.append(j)
        dims.append(dim[np.array(first[known:], np.int64) - lo])
        place.append(np.fromiter(map(slot.get, nodes), np.int64, len(nodes)))
    return slot, np.array(first, np.int64), np.concatenate(dims), np.concatenate(place)


def _forest(
    slot: dict[int, int],
    column: np.ndarray,
    dims: np.ndarray,
    dim_of: Callable[[np.ndarray], np.ndarray],
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """The tree of the nodes numbered by ``slot``, with their ``column`` and
    ``dims``, and of the hubs it forms: each vertex's mask, dimension,
    parent (-1 at a Gram product) and column (-1 for a hub), the nodes
    first in their order, then the hubs; and the Gram products in the
    order they are visited.

    The parent of a node adds its lowest absent position; a node whose
    parent is no node is a root.  The hubs are subsystems outside the list
    one position larger than a root, chosen greedily; a root a hub serves
    is traced out of it.  The Gram products are visited hubs first, each
    by the column of its first root in the list, then the roots no hub
    serves; the children of a vertex in vertex order, which is the order
    of their columns."""
    values = np.fromiter(slot, np.int64, len(slot))
    up = np.array([slot.get(m | (m + 1), -1) for m in slot], np.int64)
    roots = (up < 0).nonzero()[0]
    # every subsystem outside the list one position larger than a root,
    # with the roots it holds (by their place among the roots), one root at
    # a time: as arrays, the 24,024 candidates of a 2^14 sweep would reach
    # this loop as that many Python ints at once
    holds: dict[int, list[int]] = {}
    full = (1 << k) - 1
    for r, root in enumerate(values[roots].tolist()):
        absent = full ^ root
        while absent:
            hub = root | (absent & -absent)
            absent &= absent - 1
            if hub not in slot:
                holds.setdefault(hub, []).append(r)
    hubs = np.array(list(holds), np.int64)
    held = list(holds.values())
    # greedy cover: the hub holding the most unserved roots first, the
    # smaller mask on a tie; a key goes stale as its roots are served, and
    # is pushed back with its new count.  A hub of one root is at least
    # twice its dimension, so it never passes the flops test below
    hub_dims, root_dims = dim_of(hubs).tolist(), dims[roots].tolist()
    root_columns = column[roots].tolist()
    heap = [(-len(r), hub, h) for h, (hub, r) in enumerate(zip(holds, held)) if len(r) > 1]
    heapq.heapify(heap)
    # hub -> its first root's column, in the order the hubs are formed
    formed: dict[int, int] = {}
    served = [-1] * len(root_dims)
    while heap:
        count, hub, h = heapq.heappop(heap)
        free = [r for r in held[h] if served[r] < 0]
        if len(free) < -count:
            heapq.heappush(heap, (-len(free), hub, h))
        # a hub's Gram product costs no more flops than the roots' own,
        # and stays within the cap
        elif hub_dims[h] <= min(GRAM_DIM_CAP, sum(map(root_dims.__getitem__, free))):
            for r in free:
                served[r] = values.size + len(formed)
            formed[h] = min(root_columns[r] for r in free)
    up[roots] = served
    # the hubs by their first roots' columns, then the roots no hub serves
    order = sorted(range(len(formed)), key=list(formed.values()).__getitem__)
    tops = [values.size + h for h in order] + (up < 0).nonzero()[0].tolist()
    # an empty list as an index would map numpy's float index path
    hubs = hubs[np.fromiter(formed, np.int64, len(formed))]
    no_column = np.full(hubs.size, -1)
    return (
        np.concatenate([values, hubs]),
        np.concatenate([dims, dim_of(hubs)]),
        np.concatenate([up, no_column]),
        np.concatenate([column, no_column]),
        tops,
    )


def _preorder(up: np.ndarray, tops: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The depth-first visit order of the forest ``up`` (each vertex's
    parent, -1 at a top) from ``tops``, the children of a vertex in vertex
    order, and each vertex's depth."""
    children: dict[int, list[int]] = {}
    for v, parent in enumerate(up.tolist()):
        children.setdefault(parent, []).append(v)
    visit: list[int] = []
    todo = tops[::-1]
    while todo:
        v = todo.pop()
        visit.append(v)
        todo += children.get(v, [])[::-1]
    # one level of ancestors at a time
    depth = np.zeros(up.size, np.int64)
    below = (up >= 0).nonzero()[0]
    above = up[below]
    while below.size:
        depth[below] += 1
        keep = up[above] >= 0
        below, above = below[keep], up[above[keep]]
    return np.array(visit, np.int64), depth


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
    hub.  Row i of the (W, 3) int32 ``traces`` is step i's trace as
    ``_trace`` takes it, (b, d, a): the traced position is the one the two
    masks differ in, of dimension d, and b and a are the dimensions of the
    larger mask's positions below and above it; (0, 0, 0) at depth 0.  The
    plan also holds each Gram step's SubsystemMask, the largest d**2 the
    walk reaches at each depth, the nodes it writes, in visit order, with
    their dimensions, as int64 arrays, and ``index``: for each mask, the
    place in that order of the node its purities are read from.

    An empty or full mask raises TrivialSubsystem, and a mask whose node is
    over ``GRAM_DIM_CAP`` ConfigError, naming the first such mask of the
    list, before anything is allocated.
    """

    def __init__(self, shape: FactorizationShape, masks: list[int]) -> None:
        dim_of = _product_lookup(shape.dims)
        slot, column, dims, place = _distinct_nodes(shape, masks, dim_of)
        vertex, dims, up, column, tops = _forest(slot, column, dims, dim_of, shape.k)
        visit, depth = _preorder(up, tops)
        self.shape = shape
        # each array is dropped once used: what the planner holds at once
        # stays resident through the walk
        self.walk = np.empty((visit.size, 3), np.int64)
        for j, values in enumerate([vertex, depth, column]):
            self.walk[:, j] = values[visit]
        del column
        # b, d and a as _trace takes them: the dimensions of the larger
        # mask's positions below the traced one, of that position, and of
        # those above it; each is at most a node's or a hub's, so an int32
        steps = (self.walk[:, 1] > 0).nonzero()[0]
        above = vertex[up[visit[steps]]]
        bit = above - self.walk[steps, 0]
        below = above % bit
        above -= below + bit
        self.traces = np.zeros((visit.size, 3), np.int32)
        for j, part in enumerate([below, bit, above]):
            self.traces[steps, j] = dim_of(part)
        del up, steps, above, bit, below
        # Python's max: numpy's maximum maps 64 KiB more of its code
        levels = max(depth.tolist(), default=-1) + 1
        self.sizes = [max(dims[depth == i].tolist()) ** 2 for i in range(levels)]
        grams = vertex[visit[depth[visit] == 0]].tolist()
        self.grams = {m: SubsystemMask(m, shape) for m in grams}
        written = visit[visit < len(slot)]
        self.nodes, self.dims = vertex[written], dims[written]
        # each node's place among the written ones
        rank = np.empty(written.size, np.int64)
        rank[written] = np.arange(written.size)
        self.index = rank[place]

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
        S * d**2 entries.  numpy's ufunc buffer size is ``WALK_BUFSIZE``
        during the walk and restored after it.
        """
        s = stack.shape[0]
        work, levels = buffers
        work = work[:, :s]
        # the reduced matrices of the last step at each depth so far
        chain: list[np.ndarray] = []
        written = 0
        old = np.setbufsize(WALK_BUFSIZE)
        try:
            # one row at a time: the walk as a list of Python ints would
            # outweigh the smaller buffers
            for step, trace in zip(self.walk, self.traces):
                node, depth, col = step.tolist()
                del chain[depth:]
                if depth:
                    rho = _trace(chain[-1], *trace.tolist(), levels[depth])
                else:
                    rho = _gram_stack(stack, self.grams[node], (work, levels[0]))
                chain.append(rho)
                if col >= 0:
                    out[:, written] = _squared_norms(rho)
                    written += 1
        finally:
            np.setbufsize(old)


def reduced_density(psi: PureState, mask: SubsystemMask) -> DensityMatrix:
    """Partial trace over the complement, rebuilt from the real matrix
    S = Re rho + Im rho of ``_gram_stack``: rho = ((S + S^T) + i(S - S^T))/2,
    Hermitian to the last bit; (S + S^T)/2 for a real state."""
    _check_pair(psi, mask)
    _check_proper(mask)
    if mask.dim > REDUCED_DENSITY_CAP:
        raise DimensionCap(f"subsystem dimension {mask.dim} exceeds cap {REDUCED_DENSITY_CAP}")
    stack = psi.amps[np.newaxis]
    buffers = (np.empty((2,) + stack.shape, stack.dtype), np.empty(mask.dim**2))
    gram = _gram_stack(stack, mask, buffers)[0]
    # S's symmetric part is Re rho and its antisymmetric part Im rho; taking
    # them apart also drops the last-bit asymmetry of the matrix product
    symmetric = gram + gram.T
    if psi.amps.dtype.kind == "c":
        return DensityMatrix((symmetric + 1j * (gram - gram.T)) / 2.0)
    return DensityMatrix(symmetric / 2.0)


def purity(psi: PureState, mask: SubsystemMask) -> float:
    """tr(rho_A**2), by the ``Plan`` of the one mask: the Gram matrix on
    the side ``_distinct_nodes`` picks.

    Real and complex amplitudes alike reduce to the real matrix of
    ``_gram_stack``.  A mask of another shape raises ConfigError, an empty
    or full one TrivialSubsystem from its plan, and a purity outside
    [1/min(d_A, d_B), 1] beyond ``PURITY_TOLERANCE`` NumericViolation
    naming the side's mask.
    """
    _check_pair(psi, mask)
    return float(Plan(mask.shape, [mask.mask]).run(psi.amps[np.newaxis])[0, 0])
