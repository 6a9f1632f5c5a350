"""Graded quotients of the tensor algebra and their Hilbert-series data.

Covers Nichols algebras, user-presented quotients and free ones, every
degree kept the same way over V ox B_{n-1}: one kernel from the
skew-derivation recursion (Nichols) or one rref (presented).  `symmetrizer`
builds the degree-n quantum symmetrizer, whose kernel is that degree's
Nichols relations; no quotient calls it.  Plus the PBW generator and height
extraction, the per-Lyndon-word subquotient series, and the factorization
and nonnegativity checks.  The sweep and the hard-letter walk share one
elimination pass per degree (_scan).  Those scans work inside R for every
braiding: a bracket word's image is the product in R of its letters'
images.  A letter is pi[v].pi[w] at the Shirshov split over a diagonal
braiding; a block braiding projects the letter's bracket built in TV.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from dataclasses import dataclass

from . import words
from .freealg import BraidedSpace, TensorElement, _apply_slot, _concat
# The TV bracket of a block-alphabet letter; bench/tracing.py wraps both
# names, and only the tracer still reads the bracket word.
from .freealg import _bracket_value as _block_bracket
from .freealg import _bracket_word_value as _block_bracket_word
from .freealg import build_space, coproduct, fused_space, source_requirements
from .linalg import Eliminator, kernel, rref
from .scalars import PairField, next_prime_with
from .series import PowerSeries, check_trunc, geometric_factor

DEFAULT_MATRIX_CAP = 20000


class MatrixCapExceeded(RuntimeError):
    """A degree would need more matrix rows than the configured bound."""


class BadPrimeError(RuntimeError):
    """Two modular runs disagree; at least one prime is unlucky."""


def matrix_cap() -> int:
    raw = os.environ.get("LH_MAX_MATRIX")
    if raw is None:
        return DEFAULT_MATRIX_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"LH_MAX_MATRIX must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError("LH_MAX_MATRIX must be positive")
    return cap


def _check_cap(space: BraidedSpace, n: int, cap: int | None):
    cap = cap if cap is not None else matrix_cap()
    rows = space.dim ** n
    if rows > cap:
        raise MatrixCapExceeded(
            f"degree {n} needs {rows} rows, above the bound {cap}")


def symmetrizer(space: BraidedSpace, n: int, cap: int | None = None) -> dict:
    """Columns of the degree-n quantum symmetrizer, {word: {word: coeff}}.

    Built by the coset recursion S_n = (sum over k of c_k c_{k+1} ... c_{n-1},
    including the empty product) applied after S_{n-1} on the first n-1
    strands; each summand braids the new strand into position k.  S_0 and S_1
    are identities.  The slot map is read from braid_words, for both braiding
    kinds; nothing is memoized on the space.
    """
    _check_cap(space, words.check_int(n, "degree"), cap)
    field = space.field
    if n == 0:
        return {(): {(): field.one}}
    prev = symmetrizer(space, n - 1, cap)
    letters = range(1, space.dim + 1)
    cmap = {(a, b): {l + r: c for (l, r), c in space.braid_words((a,), (b,)).items()}
            for a in letters for b in letters}
    cols = {}
    for w in itertools.product(letters, repeat=n):
        base = {pw + w[-1:]: c for pw, c in prev[w[:-1]].items()}
        acc = dict(base)
        cur = base
        for slot in range(n - 1, 0, -1):
            cur = _apply_slot(field, cur, slot, cmap)
            field.axpy(acc, cur, field.one)
        cols[w] = acc
    return cols


@dataclass(frozen=True)
class GradedData:
    degree: int
    dim: int
    basis: tuple  # standard-monomial words
    relation_leads: tuple  # pivot words of the relation space


class GradedQuotient:
    """A graded quotient R = TV / (relations), computed degree by degree.

    kind "nichols" quotients by the kernels of the quantum symmetrizers,
    "presented" by the two-sided ideal generated by the given homogeneous
    relations (verified to be a coideal up to trunc at construction), and
    "free" is presented with no relations.

    Leads are lex-least words, a multiplicative order, so the standard
    monomials of degree n are words a.b with b standard.  Each degree keeps
    the fully reduced relation rows whose leads are words a.b, with mu(a ox
    b) = a.b seeded on those leads; its basis is the other words a.b, and
    NF(w) = mu(w_1 ox NF(w_2...)).  Only the source of the rows depends on
    the kind.  A Nichols degree is one kernel over V ox B_{n-1}: with D_n =
    (pi_{n-1} ox id) T'_n, where T'_n sums the braidings that move one strand
    to the end, S_n = (S_{n-1} ox id) T'_n gives I_n = ker D_n, D_n factors
    through V ox B_{n-1}, and T'_n = c_{n-1}...c_1 + id ox T'_{n-1} gives

        D_n(a ox b) = (pi ox id) c_{V,B}(a ox b) + (mu ox id)(a ox D_{n-1}(b)).

    A presented degree is one rref: I_n = V.I_{n-1} + sum_k Rel_k.V^{n-k} and
    r.u = r.NF(u) modulo V.I_{n-1}, so its rows are r.b, b standard of degree
    n-k, each rewritten by w -> w_1.NF(w_2...).
    """

    KINDS = ("nichols", "free", "presented")

    def __init__(self, space: BraidedSpace, kind: str, trunc: int,
                 relations=(), cap: int | None = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown quotient kind {kind!r}")
        check_trunc(trunc)
        if cap is not None and (type(cap) is not int or cap < 1):
            raise ValueError(f"cap must be a positive integer or None, got {cap!r}")
        relations = tuple(relations)
        if relations and kind != "presented":
            raise ValueError("relations only make sense for kind 'presented'")
        for r in relations:
            if r.space is not space:
                raise ValueError("relation lives over a different space")
            if r.is_zero() or not r.is_homogeneous():
                raise ValueError("relations must be nonzero homogeneous")
            if r.degree() < 2:
                raise ValueError("relations must have degree at least 2")
        self.space = space
        self.kind = kind
        self.trunc = trunc
        self.relations = relations
        self.cap = cap
        one = space.field.one
        letters = range(1, space.dim + 1)
        self._rows: list = [{}, {}]
        self._dims: list = [1, space.dim]
        self._basis: list = [((),), tuple((a,) for a in letters)]
        self._nf: dict = {(): {(): one}}
        self._images: dict = {}  # coordinate word cw -> pi[bracket word on cw]
        # (n, D_n, q), n the latest degree: D_n maps each column a.b off the
        # kernel to {last letter: {standard word: coeff}}; over a diagonal
        # braiding q maps every column a.b to q(a, b), else it is None
        self._derivation = (1, {(a,): {a: {(): one}} for a in letters},
                            dict.fromkeys(((a,) for a in letters), one)
                            if space.is_diagonal else None)
        if relations:
            for n in range(2, trunc + 1):
                self._check_coideal(n)

    def _degree(self, n: int | None = None) -> int:
        """n (the truncation for None), checked to lie in 0..trunc."""
        if n is None:
            return self.trunc
        if words.check_int(n, "degree") > self.trunc:
            raise ValueError(f"degree {n} exceeds truncation {self.trunc}")
        return n

    def _ensure(self, n: int) -> dict:
        """Relation rows of degree n with leads a.b; builds degrees in order."""
        if type(n) is not int or not 0 <= n < len(self._rows):
            field = self.space.field
            for k in range(len(self._rows), self._degree(n) + 1):
                rows = (self._nichols_rows if self.kind == "nichols"
                        else self._presented_rows)(k)
                for lead, row in rows.items():
                    self._nf[lead] = {w: field.neg(c) for w, c in row.items()
                                      if w != lead}
                self._rows.append(rows)
                self._dims.append(self.space.dim * self._dims[-1] - len(rows))
        return self._rows[n]

    def _nichols_rows(self, n: int) -> dict:
        """The kernel of D_n over the words a.b; stores D_n on the others.

        One pass per column a.b: (pi ox id) c_{V,B}(a ox b) and each term c.p
        ox last of D_{n-1}(b) add NF(a.p) into the column's part for `last`.
        Over a diagonal braiding c_{V,B}(a ox b) is q(a, b) b ox a with b
        standard, and q(a, b) = q_{a b_1} q(a, b_2...), read from the previous
        degree; a block braiding goes through braid_words.

        The columns are filled without the guard ring's split check.  That is
        exact, as for elimination fill-in (see linalg): an entry zero at one
        prime only is a key that prime would not store, and it matters only
        if it becomes a lead, whose inv splits; rref checks every entry of the
        kernel.  The stored D_n carries such entries into the next degree
        under the same argument, since they only ever multiply NF values.
        """
        _check_cap(self.space, n, self.cap)
        space = self.space
        field = space.field
        axpy, nf = field.axpy_unchecked, self._normal_form
        prev_n, prev, prev_q = self._derivation
        assert prev_n == n - 1, f"degree {n} built after degree {prev_n}"
        derivation, columns, qs = {}, {}, None if prev_q is None else {}
        for a in range(1, space.dim + 1):
            for b in self.basis(n - 1):
                w = (a,) + b
                if qs is None:
                    col: dict = {}
                    for (l, (last,)), c in space.braid_words((a,), b).items():
                        axpy(col.setdefault(last, {}), nf(l), c)
                else:
                    qs[w] = field.mul(space.q[a - 1][b[0] - 1], prev_q[(a,) + b[1:]])
                    col = {a: {b: qs[w]}}
                for last, part in prev[b].items():
                    out = col.setdefault(last, {})
                    for p, c in part.items():
                        axpy(out, nf((a,) + p), c)
                derivation[w] = col
                columns[w] = {(q, last): x for last, part in col.items()
                              for q, x in part.items()}
        rows = kernel(field, columns)
        self._derivation = (n, {w: col for w, col in derivation.items()
                                if w not in rows}, qs)
        return rows

    def _presented_rows(self, n: int) -> dict:
        """One rref of the rows r.b, each rewritten over the words a.b."""
        field = self.space.field
        rows = []
        for r in self.relations:
            k = r.degree()
            for b in self.basis(n - k) if k <= n else ():
                row: dict = {}
                for w, c in r.terms.items():
                    field.axpy(row, {w[:1] + p: x for p, x
                                     in self._normal_form(w[1:] + b).items()}, c)
                rows.append(row)
        return rref(field, rows)

    def _normal_form(self, w: tuple) -> dict:
        """NF(w) = mu(w_1 ox NF(w_2...)) on the standard monomials, memoized;
        degree len(w) must be built.  A word a.b with b standard is its own
        normal form unless it leads a row, and then mu is seeded on it."""
        hit = self._nf.get(w)
        if hit is None:
            field = self.space.field
            hit = {}
            for p, c in self._normal_form(w[1:]).items():
                q = w[:1] + p
                mu = self._nf.get(q)
                field.axpy(hit, {q: field.one} if mu is None else mu, c)
            self._nf[w] = hit
        return hit

    def _times(self, x: dict, y: dict, n: int) -> dict:
        """Product in R of coordinates x and y whose degrees add up to n."""
        return self.project_terms(_concat(self.space.field, x, y), n)

    def _superword_image(self, sw: tuple, cw: tuple) -> dict:
        """pi of the bracket word of the monotonic super-word sw on the
        coordinate word cw, memoized by cw (sw is the Chen-Fox-Lyndon
        factorization of cw's block word).  pi is an algebra map and normal
        forms in R are unique, so the word is pi[sw[0]].pi[sw[1:]].  A letter
        u of length 1 is cw; over a diagonal braiding the twist of [v][w] is
        one scalar f, so at the Shirshov split u = vw, pi[u] = pi[v].pi[w] -
        f.pi[w].pi[v]; a block braiding projects u's bracket built in TV.  The
        memo's dicts are shared; callers must not mutate them."""
        hit = self._images.get(cw)
        if hit is None:
            field = self.space.field
            u, k = sw[0], len(sw[0])
            if len(sw) > 1:
                hit = self._times(self._superword_image((u,), cw[:k]),
                                  self._superword_image(sw[1:], cw[k:]), len(cw))
            elif k == 1:
                hit = {cw: field.one}
            elif not self.space.is_diagonal:
                hit = self.project_terms(_block_bracket(self.space, u, cw, "left"), k)
            else:
                v, w = words.shirshov(u)
                a = self._superword_image((v,), v)
                b = self._superword_image((w,), w)
                hit = {}
                if a and b:
                    [f] = self.space.braid_words(v, w, True).values()
                    hit = field.axpy(self._times(a, b, k), self._times(b, a, k),
                                     field.neg(f))
            self._images[cw] = hit
        return hit

    def _check_coideal(self, n: int):
        """Delta of each degree-n relation w - NF(w), w a lead, must lie in
        Rel ox TV + TV ox Rel, the kernel of pi ox pi: both legs of every term
        are projected onto the standard monomials and the image must vanish.
        """
        field = self.space.field
        nf = self._normal_form
        for w in self.graded_data(n).relation_leads:
            row = field.axpy({w: field.one}, nf(w), field.neg(field.one))
            image: dict = {}
            for (u, v), c in coproduct(TensorElement(self.space, row)).terms.items():
                right = nf(v)
                for pu, cu in nf(u).items():
                    field.axpy(image, {(pu, pv): cv for pv, cv in right.items()},
                               field.mul(c, cu))
            if image:
                raise ValueError(
                    f"relations do not generate a coideal at degree {n}")

    def dim(self, n: int) -> int:
        self._ensure(n)
        return self._dims[n]

    def basis(self, n: int) -> tuple:
        """Standard monomials: the words a.b, b standard of degree n-1, that
        lead no relation row; in order, and checked against the cap."""
        self._ensure(n)
        for k in range(len(self._basis), n + 1):
            _check_cap(self.space, k, self.cap)
            self._basis.append(tuple(
                w for a in range(1, self.space.dim + 1) for b in self._basis[-1]
                if (w := (a,) + b) not in self._rows[k]))
        return self._basis[n]

    def project_terms(self, terms: dict, n: int) -> dict:
        if self.dim(n) == self.space.dim ** n:  # R_n = T_n
            return dict(terms)
        field = self.space.field
        out: dict = {}
        for w, c in terms.items():
            field.axpy(out, self._normal_form(w), c)
        return out

    def project(self, x: TensorElement) -> dict:
        """Coordinates of a homogeneous element on the standard monomials."""
        if x.space is not self.space:
            raise ValueError("element lives over a different space")
        if x.is_zero():
            return {}
        return self.project_terms(x.terms, x.degree())

    def graded_data(self, n: int) -> GradedData:
        """The relation leads are every other word: a d^n walk."""
        basis = self.basis(n)
        standard = set(basis)
        leads = tuple(w for w in itertools.product(
            range(1, self.space.dim + 1), repeat=n) if w not in standard)
        return GradedData(n, len(basis), basis, leads)

    def hilbert_series(self, trunc: int | None = None) -> PowerSeries:
        trunc = self._degree(trunc)
        return PowerSeries(tuple(self.dim(n) for n in range(trunc + 1)))


@dataclass(frozen=True)
class PBWGenerator:
    word: tuple
    height: int | None  # None: no power relation up to the truncation


@dataclass(frozen=True)
class PBWData:
    trunc: int
    generators: tuple  # PBWGenerator, sorted lexicographically by word


@dataclass(frozen=True)
class SubquotientSeries:
    word: tuple
    series: PowerSeries


@dataclass(frozen=True)
class FactorizationReport:
    ok: bool
    trunc: int
    lhs: PowerSeries
    rhs: PowerSeries
    # SubquotientSeries for every Lyndon word of length <= trunc, in lex
    # order; equal series are one shared PowerSeries
    factors: tuple


@dataclass(frozen=True)
class NonnegReport:
    ok: bool
    word: tuple
    factor: PowerSeries
    rank_one: PowerSeries
    quotient: PowerSeries


def _image(R: GradedQuotient, sw: tuple, cw: tuple, m: int) -> dict:
    """Coordinates in R_m of the bracket word of shape sw on the word cw, as
    a fresh dict (Eliminator.insert consumes it): the product in R of the
    letters' images, memoized by cw (see GradedQuotient._superword_image).
    Over a diagonal braiding cw is the concatenation of sw."""
    return dict(R._superword_image(sw, cw))


def pbw_data(R: GradedQuotient, trunc: int | None = None) -> PBWData:
    """Hard Lyndon-word generators with heights, scanned degree by degree.

    Each degree inserts the restricted monotonic bracket words over the
    generators so far into one span, non-powers before powers as in _sweep,
    each group ascending.  Only a power u^h may be dependent (Kharchenko
    1999); it gives u height h, which caps u in later degrees, so in degree n
    an all-equal word is a power of a generator with no height yet.  Wherever
    ascending order returns, this one gives the same span and heights: every
    non-power was independent of all lower words, and a power is dependent
    exactly as before, or the largest non-power in its expression was.  Then
    a Lyndon word of degree n is accepted when its bracket's image (see
    _image) is independent of that span; candidates go in lex order.  A
    degree with no relations accepts every Lyndon word of length n and
    builds nothing, by _scan's argument.  Images lie in R_n, so once the
    span has rank dim R_n no later word is inserted: each is dependent, so a
    non-power raises, a power takes its height and no candidate is accepted.
    """
    if not R.space.is_diagonal:
        raise NotImplementedError(
            "PBW extraction is only implemented for diagonal braidings")
    N = R._degree(trunc)
    order = _lyndon_words(R, R.space.dim, range(1, N + 1))
    lyndon = _by_length(order, N)
    heights: dict = {}  # accepted generator -> height, None while it has none
    for n in range(1, N + 1):
        dim = R.dim(n)
        candidates = lyndon[n]
        if dim == R.space.dim ** n:
            heights.update(dict.fromkeys(candidates))
            continue
        caps = {u: h - 1 for u, h in heights.items() if h is not None}
        span = Eliminator(R.space.field)
        for sw in sorted(words.monotonic_superwords(heights, n, caps),
                         key=lambda sw: (sw[0] == sw[-1], sw)):
            if span.rank < dim and span.insert(_image(R, sw, words.concat(sw), n)):
                continue
            if sw[0] != sw[-1]:
                raise RuntimeError(f"degree {n}: {sw} is dependent but not a power")
            heights[sw[0]] = len(sw)
        for u in candidates:
            if span.rank < dim and span.insert(_image(R, (u,), u, n)):
                heights[u] = None
    return PBWData(N, tuple(PBWGenerator(u, heights[u])
                            for u in order if u in heights))


def pbw_series(data: PBWData, trunc: int | None = None) -> PowerSeries:
    """Hilbert series a restricted PBW basis with the given data would give."""
    trunc = data.trunc if trunc is None else trunc
    out = PowerSeries.one(trunc)
    for gen in data.generators:
        out = out * geometric_factor(len(gen.word), trunc, gen.height)
    return out


def _lyndon_words(R: GradedQuotient, D: int, degrees: range) -> list:
    """Lyndon words over D letters up to the last of `degrees`, in lex order,
    enumerated once every degree has passed the cap, in ascending order."""
    for m in degrees:
        _check_cap(R.space, m, R.cap)
    return words.enumerate_lyndon(D, degrees[-1]) if degrees else []


def _by_length(order: list, top: int) -> list:
    """Entry n lists the words of length n in `order`, in that order."""
    table: list = [[] for _ in range(top + 1)]
    for u in order:
        table[len(u)].append(u)
    return table


def _scan(R: GradedQuotient, m: int, letters, steps, caps=None):
    """One elimination pass over degree m: yields (u, rise), the rank rise
    of u^(m/|u|), for each Lyndon word u in `steps` (descending, |u| | m).

    Its rows are the monotonic bracket words of degree m over `letters`
    that are not powers, each letter at most caps[letter] times, sorted by
    last factor, descending; one per word by Chen-Fox-Lyndon uniqueness.  A
    row is filled with each coordinate word of its blocks (over a diagonal
    braiding its concatenation alone) and imaged in R (see _image).  The
    ideal part of u, the rows with last factor >= u, only grows as u
    decreases, so before each step u every such row goes in; the images of
    u^(m/|u|) stay in the span for the smaller words.  A caller may stop at
    its own u; one that reads every step has the remaining rows inserted
    too, and then the bracket words of degree m (_sweep), or the restricted
    ones (_hard_letters), must span R_m.  Images lie in R_m, so once the
    span has rank dim R_m no image is built and every later rise is 0.
    Two kinds of degree need no span and read no `letters`: where R_m = 0
    there is nothing to span and every rise is 0; where a diagonal degree
    has no relations (R_m = T_m) every rise is 1, as each bracket word is
    its concatenation plus lex-larger words (Kharchenko 1999) and rows have
    distinct concatenations.
    """
    dim = R.dim(m)
    diagonal = R.space.is_diagonal
    if not dim or diagonal and dim == R.space.dim ** m:
        yield from ((u, min(dim, 1)) for u in steps)
        return
    part = R.space.component_partition()
    rows = sorted((sw for sw in words.monotonic_superwords(letters, m, caps)
                   if sw[0] != sw[-1]), key=lambda sw: sw[-1], reverse=True)
    span = Eliminator(R.space.field)

    def insert(sw) -> int:
        rank, word = span.rank, words.concat(sw)
        fills = (word,) if diagonal else itertools.product(*(part[b - 1] for b in word))
        for cw in fills:
            if span.rank == dim:
                break
            span.insert(_image(R, sw, cw, m))
        return span.rank - rank

    i = 0
    for u in steps:
        while span.rank < dim and i < len(rows) and rows[i][-1] >= u:
            insert(rows[i])
            i += 1
        yield u, insert((u,) * (m // len(u)))
    for sw in rows[i:]:
        insert(sw)
    if span.rank != dim:
        raise RuntimeError(
            f"degree {m}: the bracket words span rank {span.rank}, "
            f"not dim R_{m} = {dim}")


def _sweep(R: GradedQuotient, m: int, lyndon):
    """Degree-m coefficients of the subquotient series of the Lyndon words u
    in `lyndon` (_lyndon_words by length through degree >= m, so the cap
    holds) with |u| dividing m: one _scan with these steps over every
    Lyndon word of length <= m, yielding (u, coefficient), largest u first.
    It serves subquotient_series, and verify_factorization on block
    braidings.  Over a diagonal braiding the letters are the live ones
    (pi[u] != 0), since a bracket word over any other has image 0; a degree
    that _scan answers without a span images none of them.
    """
    steps = sorted(itertools.chain.from_iterable(
        lyndon[k] for k in range(1, m + 1) if m % k == 0), reverse=True)
    live = (u for bucket in lyndon[1:m + 1] for u in bucket
            if not R.space.is_diagonal or R._superword_image((u,), u))
    yield from _scan(R, m, live, steps)


def subquotient_series(R: GradedQuotient, u, trunc: int | None = None) -> SubquotientSeries:
    """Series of A^(u)/I^(u) in R: A is spanned by monotonic bracket words
    with all super-letters >= u, I by those whose first super-letter is > u.

    Words live over the alphabet of braiding-stable blocks (the coordinate
    alphabet when the braiding is diagonal).  In each degree k|u| the
    coefficient is the number of bracket images of u^k staying independent
    of the ideal part; for one-dimensional blocks it is 0 or 1.  Each
    degree's sweep is read only down to u.
    """
    D = len(R.space.component_partition())
    u = words.validate_word(u, D)
    if not words.is_lyndon(u):
        raise ValueError(f"{u} is not a Lyndon word")
    N = R._degree(trunc)
    coeffs = [1] + [0] * N
    degrees = range(len(u), N + 1, len(u))
    lyndon = _by_length(_lyndon_words(R, D, degrees), N)
    for m in degrees:
        coeffs[m] = next(c for w, c in _sweep(R, m, lyndon) if w == u)
    return SubquotientSeries(u, PowerSeries(tuple(coeffs)))


def _hard_letters(R: GradedQuotient, N: int, lyndon) -> dict:
    """The hard letters of a diagonal R through degree N, {u: height or None},
    found in one walk up the degrees over the hard letters alone; `lyndon`
    is _lyndon_words by length through N.  The subquotient series of a hard
    letter u is geometric_factor(|u|, N, height), that of any other Lyndon
    word is 1: the counts of _sweep, for far fewer rows.

    Two facts confine the walk to the hard letters.  Every hard letter of
    length >= 2 has hard Shirshov factors (Lalonde-Ram 1995 on the standard
    factorization; Kharchenko 1999 for hard super-letters), so the
    candidates of degree m, the joins vw of hard letters v < w with |v| +
    |w| = m and shirshov(vw) = (v, w), hold every hard letter of length m,
    and a Lyndon word that is never a candidate has the factor 1.  A power
    u^h at u's height lies in the span of lex-larger restricted words
    (Kharchenko's restricted PBW basis, which the paper's A^(u)/I^(u)
    generalizes), so rows that hold each letter fewer times than its height
    keep, at every step, the span that _sweep has there.

    Each degree runs _scan over the hard letters, each capped below its
    height, with the steps the hard letters with no height whose length
    divides m and the candidates: a step that raises the rank makes a
    candidate hard, one that does not gives a hard letter the height m/|u|
    (so where R_m = 0, _scan's first case, every such letter takes it).  A
    degree with R_m = T_m makes every Lyndon word of length m hard with no
    height, by _scan's argument for that case, without joining candidates.
    """
    hard: dict = {}
    for m in range(1, N + 1):
        if R.dim(m) == R.space.dim ** m:
            hard.update(dict.fromkeys(lyndon[m]))
            continue
        steps = [u for u, h in hard.items() if h is None and m % len(u) == 0]
        steps += [v + w for v in hard for w in hard if v < w and len(v) + len(w) == m
                  and words.shirshov(v + w) == (v, w)]
        caps = {u: h - 1 for u, h in hard.items() if h is not None}
        for u, rise in _scan(R, m, list(hard), sorted(steps, reverse=True), caps):
            if rise:
                hard.setdefault(u, None)
            elif u in hard:
                hard[u] = m // len(u)
    return hard


def verify_factorization(R: GradedQuotient, trunc: int | None = None) -> FactorizationReport:
    """Compare hilbert_series with the product of all subquotient series.

    Over a diagonal braiding one walk up the degrees finds the hard letters
    and their heights (_hard_letters), which fix every factor.  Over a block
    braiding one sweep per degree yields every factor's coefficient of that
    degree.  Both run _scan, which checks that the bracket words span R_m.
    One list of Lyndon words in lex order lists the factors; bucketed by
    length, it is the table both read.  Equal factors share one series; the
    product takes each distinct one once, as a power, so its cost follows
    the distinct factors, not the Lyndon words (in a free algebra, one
    series per length).
    """
    N = R._degree(trunc)
    lhs = R.hilbert_series(N)
    D = len(R.space.component_partition())
    order = _lyndon_words(R, D, range(1, N + 1))
    lyndon = _by_length(order, N)
    if R.space.is_diagonal:
        hard = _hard_letters(R, N, lyndon)
        geometric = {(k, h): geometric_factor(k, N, h).coeffs
                     for k, h in {(len(u), h) for u, h in hard.items()}}
        coeffs = {u: geometric[len(u), h] for u, h in hard.items()}
    else:
        coeffs = {u: [1] + [0] * N for u in order}
        for m in range(1, N + 1):
            for u, c in _sweep(R, m, lyndon):
                coeffs[u][m] = c
    trivial = PowerSeries.one(N).coeffs
    keys = [tuple(coeffs.get(u, trivial)) for u in order]
    counts = Counter(keys)  # coefficient tuple -> number of factors with it
    shared = {c: PowerSeries(c) for c in counts}
    factors = tuple(SubquotientSeries(u, shared[c]) for u, c in zip(order, keys))
    rhs = PowerSeries.one(N)
    for c, k in counts.items():
        if any(c[1:]):
            rhs = rhs * shared[c] ** k
    return FactorizationReport(lhs == rhs, N, lhs, rhs, factors)


def nonneg_quotient_check(R: GradedQuotient, u, trunc: int | None = None) -> NonnegReport:
    """Divide the subquotient series by the rank-one Nichols series of bracket(u).

    The rank-one series is the Hilbert series of the Nichols quotient of the
    line spanned by [u], with self-braiding q_{u,u}, placed at the multiples
    of |u|; a dead generator (bracket image zero in R, subquotient series 1)
    contributes the constant series 1 on both sides.  ok means the quotient
    has nonnegative coefficients.
    """
    if not R.space.is_diagonal:
        raise NotImplementedError(
            "the rank-one self-braiding scalar needs a diagonal braiding")
    N = R._degree(trunc)
    sq = subquotient_series(R, u, N)
    u = sq.word
    step = len(u)
    alive = step <= N and sq.series.coeffs[step] != 0
    if not alive:
        rank_one = PowerSeries.one(N)
    else:
        line = BraidedSpace(R.space.field, 1, "diagonal", [[R.space.qprod(u, u)]])
        dims = GradedQuotient(line, "nichols", N // step).hilbert_series().coeffs
        rank_one = PowerSeries.monomials(N, {k * step: c for k, c in enumerate(dims)})
    quotient = sq.series.div(rank_one)
    return NonnegReport(quotient.all_nonneg(), u, sq.series, rank_one, quotient)


def run_guarded(source, trunc: int, compute, prime: int | None = None,
                second_prime: int | None = None):
    """Run a computation over two primes and insist the results agree.

    `compute` maps a BraidedSpace to a comparable value that does not depend
    on the field: counts, words, series and reports made of them, not raw
    scalars.  Sources over the rationals run once.  Modular sources are also
    built at a second compatible prime (same declared root orders, all
    literal entries still units), and compute runs once over the guard ring
    Z/(p1 p2), which is both primes in lockstep (scalars.PairField).  That
    run is dropped if it splits: a value zero at one prime only, or a field
    read with no componentwise meaning (p, char, format, to_json, orders).
    Then compute runs at each prime in turn and a mismatch raises
    BadPrimeError.  A fused run that finishes returns what both would.
    """
    space = build_space(source, prime=prime, trunc=trunc)
    if space.field.char == 0:
        return compute(space)
    orders, units = source_requirements(source)
    p1 = space.field.p
    if second_prime is None:
        second_prime = next_prime_with(p1 + 1, orders, units)
    if second_prime == p1:
        raise ValueError("the two guard primes must differ")
    other = build_space(source, prime=second_prime, trunc=trunc)
    ring = PairField(p1, second_prime)
    try:
        result = compute(fused_space(ring, space, other))
        if not ring.split:
            return result
    except Exception:
        if not ring.split:
            raise
    first = compute(space)
    del space
    second = compute(other)
    if first != second:
        raise BadPrimeError(
            f"results differ between F_{p1} and F_{second_prime}; "
            f"at least one prime loses rank")
    return first
