"""Shared fixtures and small builders used across the test modules."""

import itertools
import random

import pytest

from lynhopf.freealg import BraidedSpace
from lynhopf.scalars import PrimeField


@pytest.fixture
def field():
    return PrimeField(10007)


def random_diagonal(field, d: int, rng: random.Random,
                    values=None) -> BraidedSpace:
    """A diagonal braided space with q entries drawn uniformly from `values`,
    by default from all nonzero residues of the prime field."""
    if values is None:
        q = [[field.from_int(rng.randrange(1, field.p)) for _ in range(d)]
             for _ in range(d)]
    else:
        q = [[rng.choice(values) for _ in range(d)] for _ in range(d)]
    return BraidedSpace(field, d, "diagonal", q)


def all_words(d: int, n: int):
    """Every word of length exactly n over 1..d."""
    return itertools.product(range(1, d + 1), repeat=n)


def swap_block_matrix(field):
    """d=3: letters 1,2 a permutation block (cocycle -1), letter 3 diagonal."""
    sigma = {1: 2, 2: 1}
    size = 9
    dense = [[field.zero] * size for _ in range(size)]
    neg = field.neg(field.one)
    for a in range(1, 4):
        for b in range(1, 4):
            col = (a - 1) * 3 + (b - 1)
            if a <= 2 and b <= 2:
                c, d, v = sigma[b], a, neg
            elif a == 3 and b == 3:
                c, d, v = 3, 3, neg
            else:
                c, d, v = b, a, field.one
            dense[(c - 1) * 3 + (d - 1)][col] = v
    return dense
