"""Krawtchouk columns and the MacWilliams identity against their definitions."""

from __future__ import annotations

import math

import pytest

from rmlist import CodeParams, InvariantFailure, enumerate_weights
from rmlist.transforms import krawtchouk_column, macwilliams

from test_scan import gray_walk


def krawtchouk(N: int, j: int, i: int) -> int:
    return sum((-1) ** s * math.comb(i, s) * math.comb(N - i, j - s) for s in range(j + 1))


@pytest.mark.parametrize("N", [0, 1, 2, 5, 8, 16])
def test_krawtchouk_column_matches_its_definition(N):
    for i in range(N + 1):
        assert krawtchouk_column(N, i) == [krawtchouk(N, j, i) for j in range(N + 1)]


@pytest.mark.parametrize("n,d", [(3, 1), (5, 2)])
def test_self_dual_codes_map_to_themselves(n, d):
    enum = enumerate_weights(CodeParams(n, d))
    assert macwilliams(enum.counts, enum.total(), enum.block_length) == enum.counts


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_dual_of_a_walked_code_is_the_walked_dual(n, d):
    # RM(n,d)'s dual is RM(n, n-d-1); RM(n,0) is the repetition code.
    def walked(n, d):
        if d == 0:
            return {0: 1, 1 << n: 1}
        counts = {}
        for _, w in gray_walk(CodeParams(n, d), 0):
            counts[w] = counts.get(w, 0) + 1
        return counts

    counts = walked(n, d)
    assert macwilliams(counts, sum(counts.values()), 1 << n) == dict(sorted(
        walked(n, n - d - 1).items()))


def test_a_non_code_distribution_leaves_a_remainder():
    # Three words of length 2 are no linear code: B_2 = 1/3.
    with pytest.raises(InvariantFailure, match="not a multiple"):
        macwilliams({0: 1, 1: 1, 2: 1}, 3, 2)
