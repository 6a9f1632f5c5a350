"""Word combinatorics against brute-force oracles and frozen examples."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_words
from lynhopf import words
from lynhopf.words import (cfl_factorize, compare_superwords, concat,
                           enumerate_lyndon, format_word, is_lyndon,
                           monotonic_superwords, parse_word, shirshov,
                           superword_degree, validate_superword,
                           validate_word)


# ---------------------------------------------------------------- oracles

def lyndon_oracle(w):
    """Directly compare w with each proper right factor."""
    return len(w) > 0 and all(w < w[i:] for i in range(1, len(w)))


def all_monotonic_factorizations(w):
    """Every splitting of w into a non-increasing chain of Lyndon factors."""
    if w == ():
        return [()]
    out = []
    for i in range(1, len(w) + 1):
        head = w[:i]
        if not lyndon_oracle(head):
            continue
        for rest in all_monotonic_factorizations(w[i:]):
            if rest == () or head >= rest[0]:
                out.append((head,) + rest)
    return out


def shirshov_oracle(u):
    """Longest proper Lyndon right factor, found by scanning all cuts."""
    best = None
    for i in range(1, len(u)):
        if lyndon_oracle(u[i:]) and (best is None or len(u[i:]) > len(u[best:])):
            best = i
    return u[:best], u[best:]


def enumerate_lyndon_oracle(d, n):
    """Duval's successor, rebuilding the periodic extension with `%` per word."""
    out, w = [], [1]
    while w:
        out.append(tuple(w))
        w = [w[i % len(w)] for i in range(n)]
        while w and w[-1] == d:
            w.pop()
        if w:
            w[-1] += 1
    return out


def long_random_words(rng, count, d_max=5, n_max=200):
    """Random words up to length n_max over at most d_max letters, each with
    its least rotation (Lyndon unless periodic), a power of that rotation,
    a prefix of its powers (pre-Lyndon) and, for two rotations u < v, u^k v."""
    for _ in range(count):
        d = rng.randint(1, d_max)
        n = rng.randint(1, n_max)
        w = tuple(rng.randint(1, d) for _ in range(n))
        u = min(w[i:] + w[:i] for i in range(n))
        yield w
        yield u
        yield (u * (n_max // n + 1))[:rng.randint(1, n_max)]
        if 2 * n <= n_max:
            yield u * rng.randint(2, n_max // n)
        x = tuple(rng.randint(1, d) for _ in range(rng.randint(1, n_max // 4)))
        v = min(x[i:] + x[:i] for i in range(len(x)))
        lo, hi = sorted((u, v))
        if (lo < hi and lyndon_oracle(lo) and lyndon_oracle(hi)
                and len(lo) + len(hi) <= n_max):
            yield lo * rng.randint(1, (n_max - len(hi)) // len(lo)) + hi


def monotonic_superwords_oracle(letters, degree, max_count=None):
    """Walk every letter at every node, counting capped letters in the buffer."""
    letters = sorted(set(letters), reverse=True)
    buf = []

    def rec(start, remaining):
        if remaining == 0:
            yield tuple(buf)
            return
        for idx in range(start, len(letters)):
            f = letters[idx]
            if len(f) > remaining:
                continue
            if max_count is not None:
                cap = max_count.get(f)
                if cap is not None and buf.count(f) >= cap:
                    continue
            buf.append(f)
            yield from rec(idx, remaining - len(f))
            buf.pop()

    return rec(0, degree)


# ---------------------------------------------------------------- frozen examples

def test_worked_examples():
    assert is_lyndon((1, 2, 1, 2, 2))
    assert not is_lyndon((1, 2, 1, 2))
    assert cfl_factorize(parse_word("1231233122123")) == (
        (1, 2, 3, 1, 2, 3, 3), (1, 2, 2, 1, 2, 3))
    assert shirshov(parse_word("1231233")) == ((1, 2, 3), (1, 2, 3, 3))


def test_shirshov_takes_longest_lyndon_right_factor():
    # (1,2) is a Lyndon right factor but (1,1,2)+(1,2) is the real split
    assert shirshov((1, 1, 2, 1, 2)) == ((1, 1, 2), (1, 2))
    assert shirshov((1, 2)) == ((1,), (2,))
    assert shirshov((1, 1, 2)) == ((1,), (1, 2))


def test_single_letters_are_lyndon():
    for a in range(1, 5):
        assert is_lyndon((a,))
    with pytest.raises(ValueError):
        is_lyndon(())


# ---------------------------------------------------------------- exhaustive checks

def test_is_lyndon_matches_oracle_exhaustively():
    for d, n_max in ((2, 8), (3, 5)):
        for n in range(1, n_max + 1):
            for w in all_words(d, n):
                assert is_lyndon(w) == lyndon_oracle(w)


def test_cfl_is_the_unique_monotonic_factorization():
    for d, n_max in ((2, 7), (3, 4)):
        for n in range(0, n_max + 1):
            for w in all_words(d, n):
                facts = all_monotonic_factorizations(w)
                assert facts == [cfl_factorize(w)]


def test_shirshov_matches_oracle():
    for d, n_max in ((2, 9), (3, 5)):
        for n in range(2, n_max + 1):
            for w in all_words(d, n):
                if not is_lyndon(w):
                    continue
                assert shirshov(w) == shirshov_oracle(w)


def test_shirshov_rejects_short_and_non_lyndon():
    with pytest.raises(ValueError):
        shirshov((1,))
    with pytest.raises(ValueError):
        shirshov((2, 1))


@pytest.mark.parametrize("seed", [3, 29])
def test_words_match_oracles_on_long_random_words(seed):
    """is_lyndon, shirshov and cfl_factorize on words up to length 200 with
    d <= 5 against the definitions (the exhaustive checks stop at length 9)."""
    lyndon_seen = 0
    for w in long_random_words(random.Random(seed), 80):
        lyn = lyndon_oracle(w)
        assert is_lyndon(w) == lyn, w
        sw = cfl_factorize(w)
        assert concat(sw) == w
        assert all(map(lyndon_oracle, sw)), w
        assert all(a >= b for a, b in zip(sw, sw[1:])), w
        if lyn and len(w) >= 2:
            lyndon_seen += 1
            assert shirshov(w) == shirshov_oracle(w), w
    assert lyndon_seen >= 80


def test_enumerate_lyndon_matches_successor_oracle():
    for d in range(1, 5):
        for n in range(1, {1: 9, 2: 11, 3: 7, 4: 6}[d]):
            assert enumerate_lyndon(d, n) == enumerate_lyndon_oracle(d, n), (d, n)


def test_enumerate_lyndon_counts_and_order():
    got = enumerate_lyndon(2, 5)
    assert got == sorted(got)
    per_len = {n: sum(1 for w in got if len(w) == n) for n in range(1, 6)}
    assert per_len == {1: 2, 2: 1, 3: 2, 4: 3, 5: 6}
    brute = [w for n in range(1, 6) for w in all_words(2, n) if lyndon_oracle(w)]
    assert set(got) == set(brute)


def test_enumerate_lyndon_one_letter_alphabet():
    assert enumerate_lyndon(1, 6) == [(1,)]


def test_enumerate_lyndon_rejects_non_integers():
    for d, n in ((True, 3), (False, 3), (2.0, 3), (2, 2.0), (2, True)):
        with pytest.raises(ValueError, match="must be an integer"):
            enumerate_lyndon(d, n)
    with pytest.raises(ValueError, match="at least 1"):
        enumerate_lyndon(0, 3)
    with pytest.raises(ValueError, match="exceeds the supported 64"):
        enumerate_lyndon(65, 3)
    with pytest.raises(ValueError, match="maximal length must be at least 1"):
        enumerate_lyndon(2, 0)


# ---------------------------------------------------------------- shirshov halves

def test_shirshov_halves_are_lyndon_and_ordered():
    """Both halves of the decomposition are Lyndon with v < vw < w."""
    for w in enumerate_lyndon(3, 6):
        if len(w) < 2:
            continue
        v, t = shirshov(w)
        assert is_lyndon(v) and is_lyndon(t)
        assert v + t == w
        assert v < w < t


def test_increasing_lyndon_pair_concatenates_to_lyndon():
    """u < v Lyndon makes uv Lyndon with u < uv < v."""
    lyn = enumerate_lyndon(3, 4)
    for u in lyn:
        for v in lyn:
            if u < v:
                assert is_lyndon(u + v)
                assert u < u + v < v


# ---------------------------------------------------------------- super-words

def test_validate_superword():
    validate_superword(((2,), (1, 2)), monotonic=False)
    with pytest.raises(ValueError):
        validate_superword(((2, 1),))
    with pytest.raises(ValueError):
        validate_superword(((1,), (2,)))  # increasing


def test_compare_superwords_is_tuple_order():
    a = ((1, 2), (1,))
    b = ((2,), (1,))
    assert compare_superwords(a, b) == -1
    assert compare_superwords(b, a) == 1
    assert compare_superwords(a, a) == 0


def test_superword_order_extends_word_order_on_concatenations():
    """For monotonic super-words, factor-wise order agrees with comparing
    the concatenated words whenever the concatenations differ."""
    for d, n in ((2, 6), (3, 4)):
        table = {}
        for w in all_words(d, n):
            table[w] = cfl_factorize(w)
        items = sorted(table)
        for a, b in zip(items, items[1:]):
            assert compare_superwords(table[a], table[b]) == -1


def test_monotonic_superwords_biject_with_words():
    for d, n in ((2, 7), (3, 5)):
        sws = list(monotonic_superwords(enumerate_lyndon(d, n), n))
        assert len(sws) == d ** n
        assert len({concat(sw) for sw in sws}) == d ** n
        for sw in sws:
            validate_superword(sw)
            assert superword_degree(sw) == n
            assert cfl_factorize(concat(sw)) == sw
        assert sws == sorted(sws, reverse=True)


def test_monotonic_superwords_respect_caps():
    caps = {(1,): 1, (2,): 2}
    for sw in monotonic_superwords(enumerate_lyndon(2, 4), 4, caps):
        assert sw.count((1,)) <= 1
        assert sw.count((2,)) <= 2


def test_monotonic_superwords_match_oracle_on_random_letters():
    rng = random.Random(171)
    for _ in range(60):
        d = rng.randrange(1, 4)
        pool = enumerate_lyndon(d, rng.randrange(1, 6))
        letters = rng.sample(pool, rng.randrange(0, len(pool) + 1))
        caps = None
        if letters and rng.random() < 0.6:
            caps = {f: rng.randrange(0, 3)
                    for f in rng.sample(letters, rng.randrange(1, len(letters) + 1))}
            caps[rng.choice(letters)] = None
        for degree in range(-1, 8):
            assert list(monotonic_superwords(letters, degree, caps)) == list(
                monotonic_superwords_oracle(letters, degree, caps)), (letters, caps)


def test_concat_and_degree():
    sw = ((2, 3), (1, 2), (1,))
    assert concat(sw) == (2, 3, 1, 2, 1)
    assert superword_degree(sw) == 5


# ---------------------------------------------------------------- parsing

def format_word_oracle(w):
    """Reference for format_word: the digit form exactly when every letter
    prints as one character, else the comma form."""
    digits = "".join(map(str, w))
    if len(digits) == len(w):
        return digits
    return ",".join(map(str, w)) + ("," if len(w) == 1 else "")


def test_format_word_matches_the_join_oracle():
    rng = random.Random(21)
    cases = [()] + [(a,) for a in range(-3, 13)]
    for low, high in ((0, 9), (-3, 12)):
        cases += [tuple(rng.randint(low, high) for _ in range(rng.randrange(1, 9)))
                  for _ in range(300)]
    for w in cases:
        assert format_word(w) == format_word_oracle(w), w
    assert {format_word(w).isdigit() for w in cases if w} == {True, False}


def test_parse_and_format_word():
    assert parse_word("12122") == (1, 2, 1, 2, 2)
    assert parse_word("10,2,13") == (10, 2, 13)
    assert parse_word("") == ()
    assert format_word((1, 2, 3)) == "123"
    assert format_word((10, 2)) == "10,2"
    assert format_word(()) == ""
    assert format_word((12,)) == "12,"
    assert format_word((1, 12, 9)) == "1,12,9"
    assert parse_word(format_word((12,))) == (12,)
    with pytest.raises(ValueError):
        parse_word("1a2")
    with pytest.raises(ValueError):
        parse_word("0")


def test_validate_word_bounds():
    assert validate_word([1, 2], 2) == (1, 2)
    with pytest.raises(ValueError):
        validate_word((3,), 2)
    with pytest.raises(ValueError):
        validate_word((0,))
    with pytest.raises(ValueError):
        validate_word((words.MAX_ALPHABET + 1,))


def test_validate_word_rejects_bools_and_non_ints():
    """True is an int subclass equal to 1; enumerate_lyndon rejects it
    too, and format_word would print it as the letter 1."""
    for w in ([True, 2], (1, False), (2.0,), ("1",)):
        with pytest.raises(ValueError, match=r"letter .* outside alphabet 1\.\.3"):
            validate_word(w, 3)
    assert validate_word([1, 3], 3) == (1, 3)


# ---------------------------------------------------------------- properties

word_st = st.lists(st.integers(1, 3), min_size=0, max_size=14).map(tuple)


@given(word_st)
def test_cfl_reconstructs_and_is_monotonic(w):
    sw = cfl_factorize(w)
    assert concat(sw) == w
    for f in sw:
        assert lyndon_oracle(f)
    for a, b in zip(sw, sw[1:]):
        assert a >= b


@given(word_st.filter(lambda w: len(w) > 0))
def test_is_lyndon_agrees_with_single_factor_cfl(w):
    assert is_lyndon(w) == (cfl_factorize(w) == (w,))


@settings(max_examples=50)
@given(st.integers(1, 3), st.integers(1, 7))
def test_enumerate_lyndon_is_exactly_the_lyndon_set(d, n):
    got = enumerate_lyndon(d, n)
    assert got == sorted(set(got))
    expect = [w for k in range(1, n + 1) for w in all_words(d, k)
              if lyndon_oracle(w)]
    assert sorted(expect) == got


@given(st.lists(st.integers(1, 20), min_size=0, max_size=8).map(tuple))
def test_format_parse_round_trip(w):
    assert parse_word(format_word(w)) == w
