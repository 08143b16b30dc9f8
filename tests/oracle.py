"""References that share no code with onticsim, from plain ints and numpy
arrays: subsystem purities and partial traces, the exact expected purity
of fixed-weight states, dense permutation and energy-basis matrices,
powers of a permutation, and the planner of onticsim 0.24.0."""

import heapq
import itertools
import math
from fractions import Fraction

import numpy as np


def arrange(values, dims, positions):
    """A flat sequence as (subsystem x complement) rows: each index's
    big-endian digits re-encoded over ``positions`` for the row and over
    the other positions for the column."""
    rows = {}
    for i, v in enumerate(values):
        row = col = 0
        for p, d in enumerate(dims):
            digit = i // math.prod(dims[p + 1:]) % d
            if p in positions:
                row = row * d + digit
            else:
                col = col * d + digit
        rows.setdefault(row, {})[col] = v
    return [[r[c] for c in sorted(r)] for _, r in sorted(rows.items())]


def reduced_density_bruteforce(amps, dims, positions):
    """rho_A[r1, r2] as the explicit sum over complement digits c of
    psi[r1, c] * conj(psi[r2, c]), A the factor positions ``positions``."""
    u = arrange(np.asarray(amps).tolist(), dims, positions)
    sums = [[sum(x * y.conjugate() for x, y in zip(a, b)) for b in u] for a in u]
    return np.array(sums, dtype=np.complex128)


def purity_from_density(rho):
    """tr(rho**2) as the squared diagonal plus twice the squared upper part."""
    diag = np.real(np.diagonal(rho))
    upper = rho[np.triu_indices(rho.shape[0], k=1)]
    return float(np.sum(diag * diag) + 2.0 * np.sum((upper * upper.conj()).real))


def oracle_purities(stack, dims, mask):
    """tr(rho_A**2) of each row of an (S, N) amplitude stack, A the
    positions set in the int ``mask``, with rho built on the smaller side
    of the cut (equal for a pure state) by two tensordot contractions."""
    side = [p for p in range(len(dims)) if mask >> p & 1]
    rest = [p for p in range(len(dims)) if not mask >> p & 1]
    if math.prod(dims[p] for p in side) > math.prod(dims[p] for p in rest):
        side, rest = rest, side
    out = []
    for amps in stack:
        tensor = amps.reshape(dims)
        rho = np.tensordot(tensor, tensor.conj(), axes=(rest, rest))
        axes = list(range(rho.ndim))
        out.append(np.tensordot(rho, rho.conj(), axes=(axes, axes)).real)
    return np.array(out)


def exact_purity(bits, dims, positions):
    """tr(rho_A**2) as an exact Fraction for the state of the 0/1 sequence
    ``bits`` (w of N set), A the factor positions ``positions``: the state
    is u / ||u|| with u = N*q - w and ||u||**2 = N*w*(N - w), so the purity
    is ||U_A U_A^T||_F**2 / (N*w*(N - w))**2, U_A the arrangement of u."""
    n, w = math.prod(dims), sum(bits)
    u = arrange([n * b - w for b in bits], dims, positions)
    gram = sum(sum(x * y for x, y in zip(a, b)) ** 2 for a in u for b in u)
    return Fraction(gram, (n * w * (n - w)) ** 2)


def expected_fixed_weight_purity(n, w, d_a):
    """E[tr(rho_A**2)] as an exact Fraction over the states of every w-subset
    of n points, A of dimension d_a.  With u = n*q - w, ||u||**2 =
    n*w*(n - w) is fixed, and tr(rho_A**2) ||u||**4 is the sum of
    u[a,b] u[a',b] u[a,b'] u[a',b'] over a, a' < d_a and b, b' < d_b: its
    terms fall on one, two or four distinct points, whose expectations are
    the hypergeometric moments m4, m22 and m1111 of u."""
    d_b = n // d_a

    def moment(powers):
        # E[prod of u_i**p] over distinct points i: each 0/1 pattern of
        # them, weighted by the w-subsets that hold it
        total = 0
        for bits in itertools.product((0, 1), repeat=len(powers)):
            ones = sum(bits)
            if ones <= w and w - ones <= n - len(powers):
                value = math.prod((n - w if b else -w) ** p for b, p in zip(bits, powers))
                total += value * math.comb(n - len(powers), w - ones)
        return Fraction(total, math.comb(n, w))

    terms = (
        d_a * d_b * moment([4])
        + (d_a * d_b * (d_b - 1) + d_a * (d_a - 1) * d_b) * moment([2, 2])
        + d_a * (d_a - 1) * d_b * (d_b - 1) * moment([1, 1, 1, 1])
    )
    return terms / (n * w * (n - w)) ** 2


def permutation_matrix(images):
    """Dense 0/1 matrix of a permutation: row i is set at column images[i]."""
    return np.eye(len(images))[images]


def fourier_block(length):
    """The DFT matrix exp(-2 pi i j k / length) / sqrt(length)."""
    j = np.arange(length)
    return np.exp(-2j * np.pi * (np.outer(j, j) % length) / length) / math.sqrt(length)


def energy_matrix(images):
    """Dense change to the energy basis: the cycles, in order of least point,
    take consecutive rows, each with its Fourier block on its points."""
    images, row = np.asarray(images).tolist(), 0
    mat = np.zeros((len(images), len(images)), dtype=np.complex128)
    for start in range(len(images)):
        cycle = [start]
        while images[cycle[-1]] != start:
            cycle.append(images[cycle[-1]])
        if min(cycle) == start:
            mat[row:row + len(cycle), cycle] = fourier_block(len(cycle))
            row += len(cycle)
    return mat


def squaring_images(images, t):
    """Images of g**t by repeated squaring; a negative t squares the inverse."""
    base, result = np.asarray(images), np.arange(len(images))
    if t < 0:
        base, t = np.argsort(base), -t
    while t:
        if t & 1:
            result = base[result]
        base = base[base]
        t >>= 1
    return result


def apply_permutation(images, amps, t=1):
    """The amplitude at i moves to its image under g**t."""
    out = np.empty_like(amps)
    out[squaring_images(images, t)] = amps
    return out


class PlanRejected(Exception):
    """The reference planner's rejection of a mask list, as
    (exception class name, message)."""


def _side(mask, dim, shape):
    comp, comp_dim = mask ^ ((1 << shape.k) - 1), shape.total // dim
    # the last key is 0 for the side holding position 0
    if (comp_dim, comp.bit_count(), mask & 1) < (dim, mask.bit_count(), comp & 1):
        return comp, comp_dim
    return mask, dim


def _dim_table(dims):
    table = [1]
    for d in dims:
        table += [t * d for t in table]
    return table


def _dim_lookup(shape):
    half = shape.k // 2
    low_dims = _dim_table(shape.dims[:half])
    high_dims = _dim_table(shape.dims[half:])
    return lambda m: low_dims[m & ((1 << half) - 1)] * high_dims[m >> half]


def reference_plan(shape, masks, cap):
    """The plan of onticsim 0.24.0 in pure Python, from a shape's ``k``,
    ``dims`` and ``total`` and a Gram dimension cap: a dict of the walk's
    rows (mask, depth, column), each step's trace (b, d, a) as
    ``traces``, ``sizes``, ``nodes``, ``dims``,
    the Gram steps' masks in visit order (``grams``) and ``index``.  Its
    body is 0.24.0's ``Plan.__init__``, with each trace step's (b, d, a)
    derived as 0.24.0's walk derived it.  A rejected list raises
    PlanRejected with the class name and message onticsim raises."""
    dim_of = _dim_lookup(shape)
    # node -> the column its purities go to: the first enumerated of its pair
    column = {}
    mask_nodes = []
    for j, m in enumerate(masks):
        node, dim = _side(m, dim_of(m), shape)
        # the empty side is picked only for an empty or a full mask
        if not node:
            raise PlanRejected(
                "TrivialSubsystem",
                "reduction needs a proper nonempty subset of the factor positions",
            )
        if dim > cap:
            raise PlanRejected(
                "ConfigError", f"mask 0b{m:b} needs a {dim}-dim Gram matrix, over the budget {cap}"
            )
        column.setdefault(node, j)
        mask_nodes.append(node)

    parent = {m: m | (m + 1) for m in column}
    roots = [m for m, p in parent.items() if p not in column]
    # every subsystem outside the sweep one position larger than a root,
    # and the roots it holds
    holds = {}
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
    heap = [(-len(held), hub) for hub, held in holds.items() if len(held) > 1]
    heapq.heapify(heap)
    while heap:
        count, hub = heapq.heappop(heap)
        free = [root for root in holds[hub] if parent[root] is None]
        if len(free) < -count:
            heapq.heappush(heap, (-len(free), hub))
        elif dim_of(hub) <= min(cap, sum(dim_of(root) for root in free)):
            parent.update(dict.fromkeys(free, hub))
    children = {}
    for node, up in parent.items():
        children.setdefault(up, []).append(node)
    # the Gram products: each hub, then each root no hub serves
    own = children.pop(None, [])
    todo = [(top, 0) for top in [up for up in children if up not in column] + own][::-1]
    walk, traces = [], []
    # the largest node dimension at each depth, in depth order
    largest = {}
    # written node -> its place in visit order
    slot = {}
    grams = []
    # the last step at each depth so far
    chain = []
    while todo:
        node, depth = todo.pop()
        col = column.get(node, -1)
        del chain[depth:]
        geometry = (0, 0, 0)
        if depth:
            # b is the dimension of up's positions below pos, a above it
            up = chain[-1]
            pos = (up ^ node).bit_length() - 1
            b, d = dim_of(up & ((1 << pos) - 1)), shape.dims[pos]
            geometry = (b, d, dim_of(up) // (b * d))
        chain.append(node)
        walk.append((node, depth, col))
        traces.append(geometry)
        largest[depth] = max(largest.get(depth, 0), dim_of(node))
        if not depth:
            grams.append(node)
        if col >= 0:
            slot[node] = len(slot)
        todo += [(child, depth + 1) for child in children.get(node, [])[::-1]]
    nodes = list(slot)
    return {
        "walk": walk,
        "traces": traces,
        "sizes": [d * d for d in largest.values()],
        "nodes": nodes,
        "dims": [dim_of(m) for m in nodes],
        "grams": grams,
        "index": [slot[node] for node in mask_nodes],
    }
