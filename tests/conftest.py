"""Shared fixtures and small builders used across the test modules."""

import itertools
import random

import pytest

from lynhopf.freealg import BraidedSpace
from lynhopf.nichols import NonnegReport, subquotient_series
from lynhopf.scalars import PrimeField
from lynhopf.series import PowerSeries, geometric_factor


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


def cartan_diagonal(fld, q, a, d) -> BraidedSpace:
    """The diagonal braiding of Cartan type for the Cartan matrix a and the
    symmetrizing integers d: q_ii = q^{d_i} (not q^{d_i a_ii}), q_ij =
    q^{d_i a_ij} for i < j, and q_ji = 1.  With letter 1 long, B2 is
    d = (2, 1) and G2 is d = (3, 1), both with a_12 = -1."""
    def power(k):
        base, out = (q if k >= 0 else fld.inv(q)), fld.one
        for _ in range(abs(k)):
            out = fld.mul(out, base)
        return out

    n = len(d)
    return BraidedSpace(fld, n, "diagonal", [
        [power(d[i]) if i == j else power(d[i] * a[i][j]) if i < j else fld.one
         for j in range(n)] for i in range(n)])


def rank_one_height(field, q, limit: int):
    """Least n <= limit with the q-integer [n] = 1 + q + ... + q^{n-1} zero,
    or None: the height of x in the rank-one Nichols algebra k[x]/(x^h) of
    self-braiding q (Andruskiewitsch-Schneider 2002)."""
    total, power = field.zero, field.one
    for n in range(1, limit + 1):
        total = field.add(total, power)
        if total == field.zero:
            return n
        power = field.mul(power, q)
    return None


def oracle_nonneg_quotient_check(R, u, trunc=None) -> NonnegReport:
    """nonneg_quotient_check with the rank-one series summed from q-integers."""
    N = R.trunc if trunc is None else trunc
    sq = subquotient_series(R, u, N)
    u, step = sq.word, len(sq.word)
    rank_one = PowerSeries.one(N)
    if step <= N and sq.series.coeffs[step]:
        height = rank_one_height(R.space.field, R.space.qprod(u, u), N // step)
        rank_one = geometric_factor(step, N, height)
    quotient = sq.series.div(rank_one)
    return NonnegReport(quotient.all_nonneg(), u, sq.series, rank_one, quotient)
