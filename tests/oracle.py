"""Subsystem-purity oracles that share no code with onticsim's kernel:
no transposed copy of the stack, no Gram product by matmul, no reducer."""

import math
from fractions import Fraction

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


def exact_purity(bits, dims, positions):
    """tr(rho_A**2) as an exact Fraction for the state built from the 0/1
    sequence ``bits`` (w of N set), A the factor positions ``positions``.

    In Python ints only: the state is u / ||u|| with u = N*q - w, whose
    squared norm is N*w*(N - w), so the purity is ||U_A U_A^T||_F**2 over
    (N*w*(N - w))**2, U_A the (subsystem x complement) arrangement of u.
    """
    n, w = math.prod(dims), sum(bits)
    inside = [p for p in range(len(dims)) if p in positions]
    outside = [p for p in range(len(dims)) if p not in positions]
    rows = {}
    for i, b in enumerate(bits):
        # big-endian mixed-radix digits of i
        digits, rest = [], i
        for d in reversed(dims):
            digits.append(rest % d)
            rest //= d
        digits.reverse()
        row = col = 0
        for p in inside:
            row = row * dims[p] + digits[p]
        for p in outside:
            col = col * dims[p] + digits[p]
        rows.setdefault(row, {})[col] = n * b - w
    u = [[r[c] for c in sorted(r)] for _, r in sorted(rows.items())]
    gram = sum(sum(x * y for x, y in zip(a, b)) ** 2 for a in u for b in u)
    return Fraction(gram, (n * w * (n - w)) ** 2)
