"""A subsystem-purity oracle that shares no code with onticsim's kernel:
no transposed copy of the stack, no Gram product by matmul, no reducer."""

import math

import numpy as np


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
