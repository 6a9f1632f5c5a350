"""Truncated power series and the Lyndon product identity."""

import math
import random

import pytest

from lynhopf.series import PowerSeries, geometric_factor, lyndon_identity_check
from lynhopf.words import enumerate_lyndon


def poly_mul(a, b, trunc):
    out = [0] * (trunc + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= trunc:
                out[i + j] += x * y
    return out


def binomial_factor(step, weight, trunc):
    """(1 - t^step)^{-weight} expanded with exact binomial coefficients."""
    coeff_at = {}
    k = 0
    while k * step <= trunc:
        coeff_at[k * step] = math.comb(k + weight - 1, k)
        k += 1
    return PowerSeries.monomials(trunc, coeff_at)


def lyndon_lhs_oracle(d, trunc, letter_dims):
    """prod over Lyndon words u of 1/(1 - dim V^u t^|u|), one factor per word,
    with dim V^u multiplied out letter by letter."""
    lhs = PowerSeries.one(trunc)
    for u in enumerate_lyndon(d, max(trunc, 1)):
        wgt = 1
        for a in u:
            wgt *= letter_dims[a - 1]
        lhs = lhs * PowerSeries.monomials(
            trunc, {k * len(u): wgt ** k for k in range(trunc // len(u) + 1)})
    return lhs


def rand_series(rng, trunc, unit=False):
    coeffs = [rng.randrange(-9, 10) for _ in range(trunc + 1)]
    if unit:
        coeffs[0] = rng.choice((1, -1))
    return PowerSeries(tuple(coeffs))


def test_arithmetic_matches_dense_oracle():
    rng = random.Random(5)
    for _ in range(50):
        trunc = rng.randrange(0, 9)
        a = rand_series(rng, trunc)
        b = rand_series(rng, trunc)
        assert (a * b).coeffs == tuple(poly_mul(a.coeffs, b.coeffs, trunc))
        assert (a + b).coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
        assert (a - b).coeffs == tuple(x - y for x, y in zip(a.coeffs, b.coeffs))


def test_product_matches_dense_convolution_on_sparse_series():
    """Series with runs of zeros and negative coefficients on either side."""
    rng = random.Random(17)
    for _ in range(200):
        trunc = rng.randrange(0, 25)
        a, b = ([rng.randrange(-9, 10) if rng.random() < density else 0
                 for _ in range(trunc + 1)]
                for density in (rng.random(), rng.random()))
        got = PowerSeries(tuple(a)) * PowerSeries(tuple(b))
        assert got.coeffs == tuple(poly_mul(a, b, trunc)), (a, b)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 8, 64, 311])
def test_power_matches_repeated_products(k):
    """Binary powering gives the k-fold product, 1 for k = 0, on dense and
    sparse series, negative and non-unit coefficients included."""
    rng = random.Random(100 + k)
    for trunc in (0, 1, 6, 12):
        for base in (rand_series(rng, trunc), geometric_factor(3, trunc),
                     PowerSeries.monomials(trunc, {0: 2, 1: -1})):
            want = PowerSeries.one(trunc)
            for _ in range(k):
                want = want * base
            assert base ** k == want, (base, k)


def test_power_rejects_negative_and_non_integer_exponents():
    s = geometric_factor(1, 5)
    with pytest.raises(ValueError, match="k >= 0"):
        s ** -1
    for k in (2.0, 0.5, "2", None, True, False):
        with pytest.raises(TypeError):
            s ** k
    for key in (True, False, 1.0, "1", None):
        with pytest.raises(ValueError, match="exponent must be an integer"):
            PowerSeries.monomials(3, {key: 5})
    assert PowerSeries.monomials(3, {-1: 5, 2: 7, 4: 5}).coeffs == (0, 0, 7, 0)
    for trunc in (-3, True, False, 2.0):
        for build in (PowerSeries.one, PowerSeries.zero,
                      lambda n: PowerSeries.monomials(n, {0: 1}),
                      lambda n: geometric_factor(1, n)):
            with pytest.raises(ValueError,
                               match="trunc must be a nonnegative integer"):
                build(trunc)
    for step in (True, 2.0, 0):
        with pytest.raises(ValueError, match="step must be"):
            geometric_factor(step, 3)


def test_division_inverts_multiplication():
    rng = random.Random(6)
    for _ in range(50):
        trunc = rng.randrange(0, 9)
        a = rand_series(rng, trunc)
        b = rand_series(rng, trunc, unit=True)
        assert (a * b).div(b) == a
        assert b.div(b) == PowerSeries.one(trunc)


def test_division_requires_unit_constant():
    t = PowerSeries.monomials(4, {1: 1})
    with pytest.raises(ValueError):
        PowerSeries.one(4).div(t)
    with pytest.raises(ValueError):
        PowerSeries.one(4).div(PowerSeries.monomials(4, {0: 2}))


def test_trunc_mismatch_rejected():
    with pytest.raises(ValueError):
        PowerSeries.one(3) * PowerSeries.one(4)
    with pytest.raises(ValueError):
        PowerSeries.one(3) + PowerSeries.one(4)
    with pytest.raises(ValueError):
        PowerSeries(())


def test_geometric_factor():
    # (1 - t^s) * geom(s) == 1 for the unbounded factor
    for s in (1, 2, 3):
        g = geometric_factor(s, 12)
        one_minus = PowerSeries.one(12) - PowerSeries.monomials(12, {s: 1})
        assert one_minus * g == PowerSeries.one(12)
    # with a height the factor is the finite geometric sum
    h = geometric_factor(2, 10, height=3)
    assert h.coeffs == tuple(1 if k in (0, 2, 4) else 0 for k in range(11))
    with pytest.raises(ValueError):
        geometric_factor(0, 5)
    # a height is None or a positive int: no bool, float, zero or negative
    for height in (True, 2.5, 0, -1):
        with pytest.raises(ValueError, match="height must be"):
            geometric_factor(1, 5, height)


def test_binomial_factor():
    trunc = 10
    for step in (1, 2, 3):
        for weight in (1, 2, 5):
            b = binomial_factor(step, weight, trunc)
            for k in range(trunc + 1):
                want = math.comb(k // step + weight - 1, weight - 1) \
                    if k % step == 0 else 0
                assert b.coeffs[k] == want
    # weight w at step s equals the w-fold product of the geometric factor
    g = geometric_factor(2, 9)
    assert binomial_factor(2, 3, 9) == g * g * g


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lyndon_identity(d):
    rep = lyndon_identity_check(d, 10)
    assert rep.ok
    assert rep.lhs == rep.rhs
    assert rep.rhs.coeffs[1] == d


def test_lyndon_identity_weighted():
    # two letters of dimensions 1 and 2 behave like a free algebra on a
    # 3-dimensional space: total series 1/(1 - 3t)
    rep = lyndon_identity_check(2, 8, letter_dims=(1, 2))
    assert rep.ok
    assert rep.rhs.coeffs == tuple(3 ** k for k in range(9))


@pytest.mark.parametrize("d, trunc, letter_dims", [
    (3, 7, (1, 2, 3)), (3, 6, (2, 2, 2)), (2, 9, (3, 1)), (4, 5, (1, 1, 2, 1)),
    (1, 6, (4,))])
def test_lyndon_identity_matches_per_word_oracle(d, trunc, letter_dims):
    rep = lyndon_identity_check(d, trunc, letter_dims=letter_dims)
    assert rep.ok
    assert rep.lhs == lyndon_lhs_oracle(d, trunc, letter_dims)
    assert rep.rhs.coeffs == tuple(sum(letter_dims) ** k for k in range(trunc + 1))


def test_lyndon_identity_degree_two_by_hand():
    # lhs through t^2 for d=2: (1-t)^{-2} (1-t^2)^{-1} = 1 + 2t + 4t^2 + ...
    rep = lyndon_identity_check(2, 2)
    assert rep.lhs.coeffs == (1, 2, 4)
    assert len(enumerate_lyndon(2, 2)) == 3


def test_lyndon_identity_validation():
    with pytest.raises(ValueError):
        lyndon_identity_check(0, 5)
    with pytest.raises(ValueError):
        lyndon_identity_check(2, 5, letter_dims=(1,))
    with pytest.raises(ValueError):
        lyndon_identity_check(2, 5, letter_dims=(1, 0))
    for dims in ((1.5, 1.5), (True, 2), (2, 2.0), ("2", 1)):
        with pytest.raises(ValueError, match="letter_dims must list a positive size"):
            lyndon_identity_check(2, 4, letter_dims=dims)
    for trunc in (-3, True, False):
        with pytest.raises(ValueError, match="trunc must be a nonnegative integer"):
            lyndon_identity_check(2, trunc)
    for d in (True, False, 2.0):
        with pytest.raises(ValueError, match="alphabet size must be an integer"):
            lyndon_identity_check(d, 3)


def test_series_json_round_trip():
    rng = random.Random(9)
    s = rand_series(rng, 6)
    assert PowerSeries.from_json(s.to_json()) == s
    assert s.to_json() == {"trunc": 6, "coeffs": list(s.coeffs)}
    with pytest.raises(ValueError):
        PowerSeries.from_json({"trunc": 3, "coeffs": [1, 2]})
    for coeffs in ([1.9, "2", True], [1, 2.5], [1, True], ["1"]):
        with pytest.raises(ValueError, match="series coefficient must be an integer"):
            PowerSeries.from_json({"coeffs": coeffs})
        with pytest.raises(ValueError, match="series coefficient must be an integer"):
            PowerSeries(tuple(coeffs))


def test_helpers():
    s = PowerSeries((1, 0, 2, 0, 0))
    assert s.trunc == 4
    assert s.all_nonneg()
    assert not (s - PowerSeries.monomials(4, {1: 3})).all_nonneg()
    assert PowerSeries.zero(4).coeffs == (0,) * 5
    assert s.compare(PowerSeries.zero(4)) == 1
    assert s.compare(s) == 0
