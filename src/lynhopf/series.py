"""Truncated integer power series and the Lyndon counting identity.

A series holds exact integer coefficients for t^0 .. t^trunc; every
operation stays at the common truncation order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from . import words


def check_trunc(trunc) -> int:
    """trunc if it is a nonnegative int (bools are not), else ValueError."""
    if type(trunc) is not int or trunc < 0:
        raise ValueError("trunc must be a nonnegative integer")
    return trunc


@dataclass(frozen=True)
class PowerSeries:
    coeffs: tuple  # tuple[int, ...], length trunc + 1

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(
            words.check_int(c, "series coefficient", None) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, trunc: int) -> "PowerSeries":
        return cls((0,) * (check_trunc(trunc) + 1))

    @classmethod
    def one(cls, trunc: int) -> "PowerSeries":
        return cls((1,) + (0,) * check_trunc(trunc))

    @classmethod
    def monomials(cls, trunc: int, coeff_at: dict) -> "PowerSeries":
        """coeff_at[k] at t^k; int keys outside 0..trunc are dropped."""
        c = [0] * (check_trunc(trunc) + 1)
        for k, v in coeff_at.items():
            if 0 <= words.check_int(k, "exponent", None) <= trunc:
                c[k] = v
        return cls(tuple(c))

    def _check(self, other: "PowerSeries"):
        if self.trunc != other.trunc:
            raise ValueError(
                f"truncation mismatch: {self.trunc} vs {other.trunc}")

    def __add__(self, other):
        self._check(other)
        return PowerSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return PowerSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        self._check(other)
        n = self.trunc
        out = [0] * (n + 1)
        nonzero = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in nonzero:
                    if i + j > n:
                        break
                    out[i + j] += a * b
        return PowerSeries(tuple(out))

    def __pow__(self, k):
        """self^k for an integer k >= 0, by binary powering."""
        if type(k) is not int:  # bools are not
            return NotImplemented
        if k < 0:
            raise ValueError(f"a series power needs k >= 0, got {k}")
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return PowerSeries.one(self.trunc) if out is None else out

    def div(self, other: "PowerSeries") -> "PowerSeries":
        """The unique integer series c with other * c == self (mod t^{trunc+1}).

        Requires the divisor's constant term to be a unit (1 or -1);
        anything else is a domain error for integer coefficients.
        """
        self._check(other)
        b0 = other.coeffs[0]
        if b0 not in (1, -1):
            raise ValueError(
                f"division needs a unit constant term, got {b0}")
        n = self.trunc
        out = [0] * (n + 1)
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                if other.coeffs[j]:
                    acc -= other.coeffs[j] * out[k - j]
            out[k] = acc * b0
        return PowerSeries(tuple(out))

    def compare(self, other: "PowerSeries") -> int:
        """-1, 0 or 1 by lexicographic order on coefficients."""
        self._check(other)
        return (self.coeffs > other.coeffs) - (self.coeffs < other.coeffs)

    def all_nonneg(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def to_json(self) -> dict:
        return {"trunc": self.trunc, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, obj: dict) -> "PowerSeries":
        coeffs = obj["coeffs"]
        if obj.get("trunc") is not None and obj["trunc"] != len(coeffs) - 1:
            raise ValueError("trunc field disagrees with coefficient count")
        return cls(tuple(coeffs))


def geometric_factor(step: int, trunc: int, height: int | None = None) -> PowerSeries:
    """1 + t^step + t^{2 step} + ... , stopping before height * step if given.

    This is the series (1 - t^step)^{-1}, or its height-truncated polynomial.
    """
    words.check_int(step, "step", 1)
    if height is not None:
        words.check_int(height, "height", 1)
    coeff_at = {}
    k = 0
    while k * step <= trunc and (height is None or k < height):
        coeff_at[k * step] = 1
        k += 1
    return PowerSeries.monomials(trunc, coeff_at)


@dataclass(frozen=True)
class IdentityReport:
    ok: bool
    lhs: PowerSeries
    rhs: PowerSeries


def lyndon_identity_check(d: int, trunc: int,
                          letter_dims: tuple | None = None) -> IdentityReport:
    """Check prod over Lyndon words 1/(1 - dim V^u t^{|u|}) == 1/(1 - D t).

    With per-letter dimensions (default all 1), dim V^u is the product of the
    letter dimensions along u and D is their sum; the factor for u counts
    repetitions of the super-letter [u], each power multiplying dimensions.
    Only words of length <= trunc contribute below the truncation.
    """
    words.check_int(d, "alphabet size", None)
    check_trunc(trunc)
    if letter_dims is None:
        letter_dims = (1,) * d
    if len(letter_dims) != d or any(type(m) is not int or m < 1 for m in letter_dims):
        raise ValueError("letter_dims must list a positive size per letter")
    lyndon = words.enumerate_lyndon(d, max(trunc, 1))
    if len(set(letter_dims)) == 1:  # all letters of size m: dim V^u = m^|u|
        count_at = {(ell, letter_dims[0] ** ell): cnt
                    for ell, cnt in Counter(map(len, lyndon)).items()}
    else:
        dims = (None,) + tuple(letter_dims)  # 1-based letters
        count_at = Counter((len(u), math.prod(map(dims.__getitem__, u)))
                           for u in lyndon)
    lhs = PowerSeries.one(trunc)
    for (ell, wgt), cnt in sorted(count_at.items()):
        # (1 - wgt t^ell)^{-cnt}
        coeff_at = {k * ell: math.comb(k + cnt - 1, k) * wgt ** k
                    for k in range(trunc // ell + 1)}
        lhs = lhs * PowerSeries.monomials(trunc, coeff_at)
    total = sum(letter_dims)
    rhs = PowerSeries(tuple(total ** k for k in range(trunc + 1)))
    return IdentityReport(lhs == rhs, lhs, rhs)
