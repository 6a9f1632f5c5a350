"""Lyndon words and monotonic super-words over a finite ordered alphabet.

Words are tuples of 1-based letter indices; Python's tuple comparison is
exactly the lexicographic order used throughout (a proper prefix is smaller).
A super-word is a tuple of words; for monotonic super-words the native
tuple-of-tuples comparison is the lexicographic order on the super-letter
alphabet.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Sequence

Word = tuple  # tuple[int, ...]
SuperWord = tuple  # tuple[Word, ...]

MAX_ALPHABET = 64


def validate_word(w: Sequence[int], d: int | None = None) -> Word:
    """Return w as a canonical tuple, checking letters are ints (not bools)
    in 1..d."""
    w = tuple(w)
    top = d if d is not None else MAX_ALPHABET
    for a in w:
        if type(a) is not int or a < 1 or a > top:
            raise ValueError(f"letter {a!r} outside alphabet 1..{top}")
    return w


def is_lyndon(w: Word) -> bool:
    """True iff w is strictly smaller than each of its proper right factors,
    that is, iff w is its own Chen-Fox-Lyndon factorization.

    The empty word is rejected (letters are the smallest Lyndon words).
    """
    if len(w) == 0:
        raise ValueError("empty word has no Lyndon property")
    return len(cfl_factorize(w)) == 1


def cfl_factorize(w: Word) -> SuperWord:
    """Chen-Fox-Lyndon factorization by Duval's algorithm (Duval 1983), O(|w|).

    Returns the unique non-increasing tuple of Lyndon words whose
    concatenation is w; the empty word gives the empty tuple.
    """
    factors = []
    k, n = 0, len(w)
    while k < n:
        i, j = k, k + 1
        while j < n and w[i] <= w[j]:
            i = k if w[i] < w[j] else i + 1
            j += 1
        step = j - i
        while k <= i:
            factors.append(w[k:k + step])
            k += step
    return tuple(factors)


def shirshov(u: Word) -> tuple[Word, Word]:
    """Shirshov decomposition u = v w with w the longest proper Lyndon right factor.

    Both halves are Lyndon and v < vw < w.  Requires u Lyndon of length >= 2.
    One scan: the last CFL factor w of u[1:] is u's smallest proper right
    factor (Duval 1983), so u is Lyndon iff u < w, and w is the split.
    """
    if len(u) < 2:
        raise ValueError(f"word {u} too short for a Shirshov decomposition")
    w = cfl_factorize(u[1:])[-1]
    if not u < w:
        raise ValueError(f"word {u} is not a Lyndon word")
    return u[:len(u) - len(w)], w


def check_int(x, what: str, low: int | None = 0) -> int:
    """x if it is an int (bools are not) not below low (if given), else ValueError."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    if low is not None and x < low:
        bound = f"at least {low}" if low else "nonnegative"
        raise ValueError(f"{what} must be {bound}")
    return x


def enumerate_lyndon(d: int, n: int) -> list[Word]:
    """All Lyndon words of length <= n over the alphabet 1..d, in lex order.

    Uses Duval's successor generation (Duval 1983) in place on one list, O(n)
    per word: extend the current word periodically to length n, strip
    trailing maximal letters, increment the last one.
    """
    if check_int(d, "alphabet size", 1) > MAX_ALPHABET:
        raise ValueError(f"alphabet size {d} exceeds the supported {MAX_ALPHABET}")
    check_int(n, "maximal length", 1)
    out: list[Word] = []
    w, k = [1] * n, 1  # the current word is w[:k]
    while k:
        out.append(tuple(w[:k]))
        w[k:] = (w[:k] * (n // k))[:n - k]
        k = n
        while k and w[k - 1] == d:
            k -= 1
        if k:
            w[k - 1] += 1
    return out


def validate_superword(sw: Sequence[Sequence[int]]) -> SuperWord:
    """Canonicalize a sequence of words; check Lyndon factors and monotonicity."""
    sw = tuple(tuple(f) for f in sw)
    for f in sw:
        if not is_lyndon(f):
            raise ValueError(f"factor {f} is not a Lyndon word")
    for a, b in zip(sw, sw[1:]):
        if a < b:
            raise ValueError(f"factors {a} < {b} violate monotonicity")
    return sw


def compare_superwords(a: SuperWord, b: SuperWord) -> int:
    """Lexicographic comparison on the super-letter alphabet: -1, 0 or 1.

    For monotonic super-words this agrees with comparing the concatenations
    as plain words.
    """
    a = validate_superword(a)
    b = validate_superword(b)
    return (a > b) - (a < b)


def concat(sw: SuperWord) -> Word:
    """Concatenation of the factors of a super-word."""
    out: list[int] = []
    for f in sw:
        out.extend(f)
    return tuple(out)


def superword_degree(sw: SuperWord) -> int:
    return sum(len(f) for f in sw)


def monotonic_superwords(letters: Sequence[Word], degree: int,
                         max_count: dict | None = None) -> Iterator[SuperWord]:
    """Monotonic super-words of the given total degree over the given letters.

    `letters` is any collection of distinct Lyndon words; `max_count` may cap
    the multiplicity of individual letters.  Yields in descending lex order.
    """
    check_int(degree, "degree", None)
    letters = sorted(set(letters), reverse=True)
    # fits[r]: ascending indices of the letters of length <= r; room[i]: how
    # many more copies of letters[i] the caps allow
    fits = [[i for i, f in enumerate(letters) if len(f) <= r]
            for r in range(degree + 1)]
    room = [degree if c is None else c for c in map((max_count or {}).get, letters)]
    buf: list[Word] = []

    def rec(start: int, remaining: int) -> Iterator[SuperWord]:
        if remaining == 0:
            yield tuple(buf)
            return
        fit = fits[remaining]
        for idx in fit[bisect_left(fit, start):]:
            if room[idx] > 0:
                f = letters[idx]
                buf.append(f)
                room[idx] -= 1
                yield from rec(idx, remaining - len(f))
                room[idx] += 1
                buf.pop()

    return rec(0, degree) if degree >= 0 else iter(())


def parse_word(s: str) -> Word:
    """Parse "12122" (digits, alphabet <= 9) or "10,2,13" (comma form)."""
    if not isinstance(s, str):
        raise ValueError(f"word {s!r} must be a string like \"12\"")
    s = s.strip()
    if s == "":
        return ()
    if "," in s:
        parts = [p.strip() for p in s.rstrip(",").split(",")]
    else:
        parts = list(s)
    try:
        letters = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse word {s!r}") from None
    return validate_word(letters)


_DIGITS = {a: str(a) for a in range(10)}


def format_word(w: Word) -> str:
    """Inverse of parse_word; comma form only when a letter exceeds 9.

    A single letter above 9 keeps a trailing comma so the digit and comma
    grammars stay unambiguous.  The digit form reads the letters 0-9 from a
    table; any other int letter falls back to the comma form.
    """
    try:
        return "".join([_DIGITS[a] for a in w])
    except KeyError:
        return ",".join(map(str, w)) + ("," if len(w) == 1 else "")
