"""Exact coefficient fields: prime fields F_p and the rationals.

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
    and 1.  Further arguments are sequences, frozen to tuples for the key."""
    memo = functools.lru_cache(maxsize=256)(f)

    @functools.wraps(f)
    def checked(n, *args):
        if type(n) is not int:
            raise ValueError(f"{f.__name__} needs an int, got {n!r}")
        return memo(n, *map(tuple, args))
    checked.cache_clear = memo.cache_clear
    return checked


@_int_memo
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 2^62."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


class PrimeField:
    """F_p with residues 0..p-1 as raw scalar values."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < MAX_PRIME:
            raise ValueError(f"prime must be an integer in [2, 2^62), got {p!r}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    @property
    def char(self) -> int:
        return self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def axpy(self, out: dict, vec: dict, c) -> dict:
        """out += c * vec on sparse dicts, in place; zero entries are dropped.

        `c` may be any integer, negative or unreduced.  Returns `out`.
        """
        p = self.p
        for k, v in vec.items():
            s = (out.get(k, 0) + c * v) % p
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return out

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
    be invertible mod p.
    """
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
