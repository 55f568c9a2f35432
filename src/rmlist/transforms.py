"""Exact transforms: the integer Walsh-Hadamard butterfly, Krawtchouk columns
and the MacWilliams identity.

The MacWilliams identity gives the weight distribution B of the dual of a
binary linear code C of length N from C's distribution A:

    B_j = |C|^-1 sum_i A_i K_j(i),   K_j(i) = sum_s (-1)^s C(i, s) C(N - i, j - s),

where K_j is the Krawtchouk polynomial (MacWilliams & Sloane, ch. 5). A
column K_0(i), ..., K_N(i) comes from the three-term recurrence in O(N)
big-int steps, so no all-pairs table is built, and the division by |C| is
exact: a remainder is an ``InvariantFailure``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantFailure


def walsh_hadamard(values: np.ndarray, n: int) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of 2^n int64 values: n exact butterflies."""
    values = values.copy()
    for i in range(n):
        pairs = values.reshape(-1, 2, 1 << i)
        pairs[:, 0], pairs[:, 1] = pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]
    return values


def krawtchouk_column(N: int, i: int) -> list[int]:
    """K_0(i), ..., K_N(i) for length N, by (j+1) K_{j+1} = (N-2i) K_j - (N-j+1) K_{j-1}."""
    column = [1, N - 2 * i][:N + 1]
    for j in range(1, N):
        column.append(((N - 2 * i) * column[j] - (N - j + 1) * column[j - 1]) // (j + 1))
    return column


def macwilliams(counts: dict[int, int], size: int, N: int) -> dict[int, int]:
    """Weight distribution of the dual of a length-N code of ``size`` codewords whose
    distribution is ``counts`` (weight -> multiplicity); its nonzero weights, ascending."""
    totals = [0] * (N + 1)
    for i, a in counts.items():
        for j, k in enumerate(krawtchouk_column(N, i)):
            totals[j] += a * k
    dual = {}
    for j, total in enumerate(totals):
        b, remainder = divmod(total, size)
        if remainder:
            raise InvariantFailure(
                f"MacWilliams sum {total} at weight {j} is not a multiple of |C| = {size}")
        if b:
            dual[j] = b
    return dual
