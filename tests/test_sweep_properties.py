"""Property tests of the sweep kernel: drawn shapes, subset policies,
patterns and bases, against oracles that share no code with onticsim.

The fixed tests draw their shapes from a short list; these draw any
factorization of K = 2..8 positions of dimension 2..5 with N <= 256, so the
hub cover and the walk meet lattices no fixed test builds.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import energy_matrix, exact_purity, oracle_purities

from onticsim.indexing import FactorizationShape
from onticsim.reduction import Plan

MAX_POINTS = 256


@st.composite
def factor_dims(draw):
    """K dimensions of 2..5 whose product is at most MAX_POINTS: each is
    bounded so that 2 at every later position still fits."""
    k = draw(st.integers(2, 8), label="k")
    dims = []
    for p in range(k):
        room = MAX_POINTS // (math.prod(dims) * 2 ** (k - p - 1))
        dims.append(draw(st.integers(2, min(5, room))))
    return tuple(dims)


@st.composite
def policy_masks(draw, k):
    """The masks of an ``all-proper``, ``sizes=`` or ``sampled=`` policy
    (or both of the last two), by size and then value, as a sweep
    enumerates them."""
    sizes = draw(
        st.none() | st.sets(st.integers(1, k - 1), min_size=1).map(sorted), label="sizes"
    )
    samples = draw(st.none() | st.integers(1, 4), label="sampled")
    masks = []
    for a in sizes or range(1, k):
        of_size = [m for m in range(1, (1 << k) - 1) if m.bit_count() == a]
        if samples is not None and samples < len(of_size):
            of_size = sorted(draw(st.sets(st.sampled_from(of_size), min_size=samples,
                                          max_size=samples)))
        masks += of_size
    return masks


def ontic_amplitudes(bits):
    """u / ||u|| with u = N*q - w, from the 0/1 list alone."""
    n, w = len(bits), sum(bits)
    return np.array([n * b - w for b in bits], dtype=np.float64) / math.sqrt(n * w * (n - w))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_sweep_purities_equal_the_oracle(data):
    dims = data.draw(factor_dims(), label="dims")
    n, k = math.prod(dims), len(dims)
    masks = data.draw(policy_masks(k), label="masks")
    patterns = data.draw(
        st.lists(st.integers(1, (1 << n) - 2), min_size=1, max_size=3), label="patterns"
    )
    rows = [[v >> i & 1 for i in range(n)] for v in patterns]
    stack = np.stack([ontic_amplitudes(bits) for bits in rows])
    images = data.draw(st.none() | st.permutations(range(n)), label="energy basis of")
    if images is not None:
        stack = stack @ energy_matrix(images).T

    purities = Plan(FactorizationShape(dims), masks).run(stack)

    assert purities.shape == (len(patterns), len(masks))
    for j, mask in enumerate(masks):
        worst = np.abs(purities[:, j] - oracle_purities(stack, dims, mask)).max()
        assert worst <= 1e-12, (mask, worst)
    if images is None:
        checked = data.draw(
            st.lists(st.sampled_from(range(len(masks))), max_size=3), label="exact columns"
        )
        for j in checked:
            positions = [p for p in range(k) if masks[j] >> p & 1]
            for sid, bits in enumerate(rows):
                exact = float(exact_purity(bits, dims, positions))
                assert abs(purities[sid, j] - exact) <= 1e-13, (masks[j], sid)
