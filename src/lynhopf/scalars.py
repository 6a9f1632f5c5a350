"""Exact coefficient fields: prime fields F_p and the rationals, plus the
guard ring Z/(p1 p2) that runs two prime fields at once.

Scalars are stored raw (int residues in 0..p-1, or Fraction); the Field
object supplies the arithmetic.  Both fields parse and print the same
external syntax: optional sign, decimal integer, optional "/denominator".
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

MAX_PRIME = 2 ** 62

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _int_memo(f):
    """Memoize f per process in a bounded memo, after checking that its first
    argument is an int: 7.0 and True would otherwise hit the entries of 7
    and 1.  Further arguments are sequences, frozen to tuples for the key,
    which also holds the types of their items, for the same reason."""
    memo = functools.lru_cache(maxsize=256)(lambda n, args, types: f(n, *args))

    @functools.wraps(f)
    def checked(n, *args):
        if type(n) is not int:
            raise ValueError(f"{f.__name__} needs an int, got {n!r}")
        args = tuple(map(tuple, args))
        return memo(n, args, tuple(type(x) for a in args for x in a))
    checked.cache_clear = memo.cache_clear
    return checked


@_int_memo
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 2^62."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; desk-scale inputs only."""
    if n < 1:
        raise ValueError(f"only positive integers factor, got {n!r}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2 if p % 6 == 5 else 4
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _parse_fraction(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ValueError(f"scalar {s!r} must be a string like \"-1\" or \"2/3\"")
    s = s.strip()
    try:
        f = Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"cannot parse scalar {s!r}: {e}") from None
    return f


class PrimeSplit(Exception):
    """A value of the guard ring is zero at one prime only, or a read has no
    meaning there.  No ValueError, RuntimeError, ArithmeticError, KeyError or
    OSError, so no handler of the library's own errors catches it."""


class _ModularField:
    """Residues 0..m-1 as raw scalar values: the arithmetic that F_p and the
    guard ring Z/(p1 p2) share."""

    def __init__(self, modulus: int):
        self.modulus = modulus
        self.zero = 0
        self.one = 1 % modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def neg(self, a):
        return -a % self.modulus

    def mul(self, a, b):
        return a * b % self.modulus

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def axpy(self, out: dict, vec: dict, c) -> dict:
        """out += c * vec on sparse dicts, in place; zero entries are dropped.

        `c` may be any integer, negative or unreduced.  Returns `out`.
        """
        m = self.modulus
        for k, v in vec.items():
            s = (out.get(k, 0) + c * v) % m
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return out

    # Elimination fill-in (linalg): over a field, plain axpy.
    axpy_unchecked = axpy

    def check_unsplit(self, values) -> None:
        """Over a field no value splits."""


class PrimeField(_ModularField):
    """F_p with residues 0..p-1 as raw scalar values."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < MAX_PRIME:
            raise ValueError(f"prime must be an integer in [2, 2^62), got {p!r}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__(p)
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def parse(self, s: str):
        f = _parse_fraction(s)
        if f.denominator % self.p == 0:
            raise ValueError(f"denominator of {s!r} vanishes mod {self.p}")
        return self.mul(f.numerator % self.p, self.inv(f.denominator % self.p))

    def format(self, a) -> str:
        return str(a % self.p)

    def multiplicative_order(self, a) -> int:
        """Order of a in F_p^*; the result divides p-1."""
        a %= self.p
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        m = self.p - 1
        for q in factorize(m):
            while m % q == 0 and pow(a, m // q, self.p) == 1:
                m //= q
        return m

    def element_of_order(self, m: int):
        """A fixed element of exact order m, via the least primitive root."""
        if m < 1 or (self.p - 1) % m != 0:
            raise ValueError(f"no element of order {m} in F_{self.p}^*")
        g = primitive_root(self.p)
        return pow(g, (self.p - 1) // m, self.p)

    def to_json(self):
        return {"prime": self.p}

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


class PairField(_ModularField):
    """The guard ring Z/(p1 p2), which is F_p1 x F_p2 by the CRT: one residue
    carries a value of each prime field, so one run over it is a run at each
    prime, in lockstep, as long as every value it stores is zero at both
    primes or at neither.

    A value zero at one prime only is a split: the two runs would branch
    apart there.  axpy, add, sub, from_int and parse signal one on such a
    result, inv on a non-unit, and p, char, format, to_json and the order
    methods, which have no componentwise meaning, always.  Signalling sets
    `split` and raises PrimeSplit, so a caller that swallows the exception
    still sees it.  axpy_unchecked reduces without the check, for
    elimination fill-in (see linalg)."""

    def __init__(self, p1: int, p2: int):
        for p in (p1, p2):
            PrimeField(p)  # the same checks
        if p1 == p2:
            raise ValueError("the two primes must differ")
        super().__init__(p1 * p2)
        self.primes = (p1, p2)
        self.split = False
        self._lift = pow(p1, -1, p2)

    def signal_split(self, what: str):
        self.split = True
        raise PrimeSplit(f"{what} splits between F_{self.primes[0]} "
                         f"and F_{self.primes[1]}")

    def _unsplit(self, s):
        """The residue s, once checked to be zero at both primes or neither."""
        p1, p2 = self.primes
        if (s % p1 == 0) != (s % p2 == 0):
            self.signal_split(f"residue {s}")
        return s

    def check_unsplit(self, values) -> None:
        for s in values:
            self._unsplit(s)

    def crt(self, a, b):
        """The residue that is a mod p1 and b mod p2 (a, b reduced)."""
        p1, p2 = self.primes
        return self._unsplit(a + p1 * ((b - a) * self._lift % p2))

    def add(self, a, b):
        return self._unsplit(super().add(a, b))

    def sub(self, a, b):
        return self._unsplit(super().sub(a, b))

    def inv(self, a):
        if math.gcd(a, self.modulus) != 1:
            self.signal_split(f"inverse of {a}")
        return pow(a, -1, self.modulus)

    def axpy(self, out: dict, vec: dict, c) -> dict:
        """_ModularField.axpy, then a split check of every entry it touched."""
        super().axpy(out, vec, c)
        p1, p2 = self.primes
        for k in vec:
            s = out.get(k, 0)
            if (s % p1 == 0) != (s % p2 == 0):
                self.signal_split(f"residue {s}")
        return out

    axpy_unchecked = _ModularField.axpy

    def from_int(self, n: int):
        return self._unsplit(n % self.modulus)

    def parse(self, s: str):
        f = _parse_fraction(s)
        return self._unsplit(
            self.mul(f.numerator, self.inv(f.denominator % self.modulus)))

    @property
    def p(self):
        self.signal_split("the characteristic")

    char = p

    def format(self, a):
        self.signal_split("formatting")

    def to_json(self):
        self.signal_split("to_json")

    def multiplicative_order(self, a):
        self.signal_split("a multiplicative order")

    def element_of_order(self, m: int):
        self.signal_split("an element of given order")

    def __repr__(self):
        return f"PairField({self.primes[0]}, {self.primes[1]})"


class RationalField:
    """The rationals with Fraction as raw scalar values."""

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    @property
    def char(self) -> int:
        return 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return a / b

    def axpy(self, out: dict, vec: dict, c) -> dict:
        """out += c * vec on sparse dicts, in place; zero entries are dropped.

        Returns `out`.
        """
        for k, v in vec.items():
            s = out.get(k, 0) + c * v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return out

    axpy_unchecked = axpy

    def check_unsplit(self, values) -> None:
        """Over a field no value splits."""

    def from_int(self, n: int):
        return Fraction(n)

    def parse(self, s: str):
        return _parse_fraction(s)

    def format(self, a) -> str:
        return str(a)

    def multiplicative_order(self, a):
        """1 for 1, 2 for -1, None (infinite) otherwise."""
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        if a == 1:
            return 1
        if a == -1:
            return 2
        return None

    def to_json(self):
        return {"rationals": True}

    def __repr__(self):
        return "RationalField()"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


def field_from_json(obj: dict):
    if not isinstance(obj, dict):
        raise ValueError(f"field spec must be an object, got {obj!r}")
    if obj.get("rationals"):
        return RationalField()
    if "prime" in obj:
        return PrimeField(obj["prime"])
    raise ValueError(f"unrecognized field spec {obj!r}")


@_int_memo
def primitive_root(p: int) -> int:
    """Least primitive root of F_p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    factors = list(factorize(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise AssertionError("unreachable: every prime has a primitive root")


@_int_memo
def next_prime_with(start: int, order_divisors: tuple = (), units: tuple = ()) -> int:
    """Smallest prime p >= start with each m | p-1 and each unit nonzero mod p.

    `units` are Fractions (or ints) whose numerator and denominator must both
    be invertible mod p.  Each order divisor must be an int >= 1.
    """
    if any(type(m) is not int or m < 1 for m in order_divisors):
        raise ValueError(
            f"order divisors must be integers >= 1, got {order_divisors!r}")
    step = math.lcm(1, *order_divisors)
    fr = [Fraction(u) for u in units]
    if any(f == 0 for f in fr):
        raise ValueError("0 cannot be a unit in any field")
    p = max(start, 2)
    while True:
        if (p - 1) % step == 0 and is_prime(p):
            if all(f.numerator % p != 0 and f.denominator % p != 0 for f in fr):
                return p
        p += 1
