"""Field arithmetic, primality, orders and guard-prime selection."""

import random
from fractions import Fraction

import pytest

from lynhopf.scalars import (MAX_PRIME, PairField, PrimeField, PrimeSplit,
                             RationalField, factorize, field_from_json,
                             is_prime, next_prime_with, primitive_root)


def sieve(n):
    flags = [True] * (n + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(n ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = [False] * len(flags[p * p::p])
    return flags


def test_is_prime_against_sieve():
    flags = sieve(10000)
    for n in range(10001):
        assert is_prime(n) == flags[n], n


def test_is_prime_larger_cases():
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(2 ** 31 + 1)
    assert is_prime(10007) and is_prime(10009)


def test_factorize_recombines():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 10 ** 6)
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p ** e
        assert prod == n


def test_factorize_rejects_nonpositive_input():
    """Trial division would divide 0 by 2 forever."""
    assert factorize(1) == {} and factorize(2) == {2: 1}
    for n in (0, -1, -12):
        with pytest.raises(ValueError, match=f"only positive integers factor, got {n}"):
            factorize(n)


def test_primitive_root_rejects_non_primes():
    """1 would reach factorize(0), and 9 would get the answer 2."""
    for n in (1, 0, -7, 9, 10008):
        with pytest.raises(ValueError, match=f"{n} is not prime"):
            primitive_root(n)
    assert primitive_root(2) == 1 and primitive_root(7) == 3


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(10)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(MAX_PRIME + 7)


@pytest.mark.parametrize("p", [2, 3, 10007])
def test_prime_field_axioms(p):
    """Associativity, distributivity and inverses on random samples."""
    f = PrimeField(p)
    rng = random.Random(p)
    for _ in range(2000):
        a, b, c = (f.from_int(rng.randrange(10 ** 9)) for _ in range(3))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == f.zero
        assert f.sub(a, b) == f.add(a, f.neg(b))
        if a != f.zero:
            assert f.mul(a, f.inv(a)) == f.one
            assert f.div(b, a) == f.mul(b, f.inv(a))


def test_prime_field_parse_and_format():
    f = PrimeField(10007)
    assert f.parse("-1") == 10006
    assert f.parse("3/2") == f.div(f.from_int(3), f.from_int(2))
    assert f.parse(f.format(f.parse("123/456"))) == f.parse("123/456")
    with pytest.raises(ValueError):
        f.parse("1/10007")
    with pytest.raises(ValueError):
        f.parse("x")
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_multiplicative_order():
    f = PrimeField(10007)
    rng = random.Random(1)
    for _ in range(100):
        a = rng.randrange(1, f.p)
        m = f.multiplicative_order(a)
        assert (f.p - 1) % m == 0
        assert pow(a, m, f.p) == 1
        for q in factorize(m):
            assert pow(a, m // q, f.p) != 1
    assert f.multiplicative_order(1) == 1
    assert f.multiplicative_order(f.p - 1) == 2
    for fld in (f, RationalField()):
        with pytest.raises(ValueError, match="0 has no multiplicative order"):
            fld.multiplicative_order(fld.zero)


def test_element_of_order():
    f = PrimeField(10009)
    a = f.element_of_order(3)
    assert f.multiplicative_order(a) == 3
    with pytest.raises(ValueError):
        f.element_of_order(5)  # 5 does not divide 10008
    g = primitive_root(10009)
    assert f.multiplicative_order(g) == 10008


def test_primitive_root_small_primes():
    for p in (2, 3, 5, 7, 11, 13):
        g = primitive_root(p)
        f = PrimeField(p)
        if p > 2:
            assert f.multiplicative_order(g) == p - 1
        assert all(primitive_root(p) == g for _ in range(2))  # deterministic


def test_rationals():
    f = RationalField()
    assert f.char == 0
    assert f.parse("3/2") == Fraction(3, 2)
    assert f.inv(Fraction(2, 5)) == Fraction(5, 2)
    assert f.multiplicative_order(f.one) == 1
    assert f.multiplicative_order(Fraction(-1)) == 2
    assert f.multiplicative_order(Fraction(2)) is None
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)
    assert f.div(Fraction(3, 2), Fraction(9, 4)) == Fraction(2, 3)
    with pytest.raises(ZeroDivisionError):
        f.div(f.one, f.zero)
    with pytest.raises(ValueError):
        f.parse("1/0")


def test_field_json_round_trip():
    for f in (PrimeField(10007), RationalField()):
        assert field_from_json(f.to_json()) == f
    with pytest.raises(ValueError):
        field_from_json({"galois": 9})
    with pytest.raises(ValueError):
        field_from_json("10007")


def test_next_prime_with():
    assert next_prime_with(10008, (3,), ()) == 10009
    assert next_prime_with(2, (), ()) == 2
    p = next_prime_with(10007 + 1, (3, 4), (Fraction(10009), 7))
    assert is_prime(p) and (p - 1) % 12 == 0
    assert 10009 % p != 0 and 7 % p != 0
    # unit constraints skip primes dividing a numerator or denominator
    assert next_prime_with(11, (), (Fraction(1, 11),)) == 13
    # lists are frozen for the memo, not rejected
    assert next_prime_with(10008, [3], []) == 10009


def test_prime_helpers_reject_non_integers():
    """The type check runs before the memo: with the entries of 7 and 1
    present, 7.0 and True still raise."""
    assert is_prime(7) and primitive_root(7) == 3 and next_prime_with(1) == 2
    with pytest.raises(ValueError, match="needs an int, got 10.5"):
        next_prime_with(10.5)
    with pytest.raises(ValueError, match="needs an int, got True"):
        next_prime_with(True)
    with pytest.raises(ValueError, match="needs an int, got 7.0"):
        next_prime_with(7.0, (3,))
    with pytest.raises(ValueError, match="needs an int, got 7.0"):
        is_prime(7.0)
    with pytest.raises(ValueError, match="needs an int, got True"):
        is_prime(True)
    with pytest.raises(ValueError, match="needs an int, got False"):
        is_prime(False)
    with pytest.raises(ValueError, match="needs an int, got 7.0"):
        primitive_root(7.0)
    with pytest.raises(ValueError, match="needs an int, got '7'"):
        is_prime("7")
    # order divisors too, also where an equal int's entry is memoized
    assert next_prime_with(10, (2,)) == next_prime_with(10, (1,)) == 11
    for bad in ((0,), (2.0,), (-4,), (True,), (3, 0)):
        with pytest.raises(ValueError, match="order divisors must be"):
            next_prime_with(10, bad)


def test_prime_helpers_match_their_uncached_bodies():
    for helper in (is_prime, primitive_root, next_prime_with):
        helper.cache_clear()
    for p in (2, 3, 7, 10007, 10009, 2 ** 31 - 1):
        for _ in range(2):
            assert is_prime(p) is is_prime.__wrapped__(p) is True
            assert primitive_root(p) == primitive_root.__wrapped__(p)
    for start, orders, units in ((10008, (3,), ()), (2, (), ()),
                                 (11, (), (Fraction(1, 11),)),
                                 (10008, (3, 4), (Fraction(10009), 7))):
        for _ in range(2):
            assert next_prime_with(start, orders, units) == \
                next_prime_with.__wrapped__(start, orders, units)


@pytest.mark.parametrize("fld", [PrimeField(7), RationalField()],
                         ids=["prime", "rationals"])
def test_axpy(fld):
    one, two = fld.one, fld.from_int(2)
    out = {1: one, 2: two}
    assert fld.axpy(out, {1: one, 3: two}, fld.neg(one)) is out
    assert out == {2: two, 3: fld.neg(two)}  # the cancelled key is gone
    assert fld.axpy(out, {2: one, 4: one}, fld.zero) == {2: two, 3: fld.neg(two)}
    assert fld.axpy(out, {3: one}, two) == {2: two}

    def naive(out, vec, c):
        res = dict(out)
        for k, v in vec.items():
            s = fld.add(res.get(k, fld.zero), fld.mul(c, v))
            if s == fld.zero:
                res.pop(k, None)
            else:
                res[k] = s
        return res

    rng = random.Random(43)

    def scalar():
        return fld.from_int(rng.randint(-3, 3))

    for _ in range(300):
        out = {k: v for k in rng.sample(range(8), rng.randint(0, 6))
               if (v := scalar()) != fld.zero}
        vec = {k: v for k in rng.sample(range(8), rng.randint(0, 6))
               if (v := scalar()) != fld.zero}
        c = rng.randint(-9, 9) if fld.char else scalar()
        expected = naive(out, vec, c)
        assert fld.axpy(out, vec, c) == expected
        assert fld.zero not in out.values()
        if fld.char:
            assert all(0 <= v < fld.p for v in out.values())


# ---------------------------------------------------------------- guard ring

def pair_parts(ring, x):
    return tuple(x % p for p in ring.primes)


def test_pair_field_is_both_prime_fields():
    """Every operation of Z/(7*11) reduces to the same operation in F_7 and
    F_11, and a result zero at one prime only is a split."""
    ring = PairField(7, 11)
    f7, f11 = PrimeField(7), PrimeField(11)
    assert (ring.modulus, ring.zero, ring.one) == (77, 0, 1)
    for a in range(7):
        for b in range(11):
            if (a == 0) != (b == 0):
                with pytest.raises(PrimeSplit):
                    ring.crt(a, b)
                ring.split = False
            else:
                assert pair_parts(ring, ring.crt(a, b)) == (a, b)
    units = [x for x in range(77) if x % 7 and x % 11]
    for a in units + [0]:
        for b in units + [0]:
            parts = pair_parts(ring, a), pair_parts(ring, b)
            assert pair_parts(ring, ring.mul(a, b)) == (
                f7.mul(parts[0][0], parts[1][0]), f11.mul(parts[0][1], parts[1][1]))
            assert pair_parts(ring, ring.neg(a)) == (f7.neg(parts[0][0]),
                                                     f11.neg(parts[0][1]))
            s = (a + b) % 77
            if (s % 7 == 0) != (s % 11 == 0):
                with pytest.raises(PrimeSplit):
                    ring.add(a, b)
                assert ring.split
                ring.split = False
            else:
                assert ring.add(a, b) == s
        if a:
            assert pair_parts(ring, ring.inv(a)) == (f7.inv(a % 7), f11.inv(a % 11))
    assert not ring.split


def test_pair_field_signals_splits():
    ring = PairField(7, 11)
    splits = [
        lambda: ring.from_int(14), lambda: ring.parse("22"),
        lambda: ring.parse("1/7"), lambda: ring.parse("3/77"),
        lambda: ring.inv(0), lambda: ring.inv(7), lambda: ring.crt(0, 5),
        lambda: ring.axpy({1: 1}, {1: 6}, 1),
        lambda: ring.add(3, 4), lambda: ring.sub(8, 1), lambda: ring.div(1, 7),
        lambda: ring.p, lambda: ring.char, lambda: ring.format(3),
        lambda: ring.to_json(), lambda: ring.multiplicative_order(2),
        lambda: ring.element_of_order(2),
    ]
    for i, split in enumerate(splits):
        ring.split = False
        with pytest.raises(PrimeSplit):
            split()
        assert ring.split, i
    ring.split = False
    assert ring.from_int(77) == 0 and ring.from_int(-1) == 76
    assert pair_parts(ring, ring.parse("3/2")) == (
        PrimeField(7).parse("3/2"), PrimeField(11).parse("3/2"))
    assert ring.axpy({1: 1, 2: 5}, {1: 76, 2: 1, 3: 2}, 1) == {2: 6, 3: 2}
    # elimination fill-in reduces without the check
    assert ring.axpy_unchecked({1: 1}, {1: 6}, 1) == {1: 7}
    assert not ring.split
    with pytest.raises(ValueError, match="cannot parse"):
        ring.parse("x")  # a parse error is the same at both primes
    assert not ring.split


def test_pair_field_construction():
    for bad in ((7, 7), (7, 9), (1, 7), (7.0, 11)):
        with pytest.raises(ValueError):
            PairField(*bad)
    assert repr(PairField(7, 11)) == "PairField(7, 11)"
    for fld in (PrimeField(7), RationalField()):
        assert fld.axpy_unchecked == fld.axpy
        assert fld.check_unsplit([0, 1]) is None
