"""Free braided algebras: braidings, tensor elements, brackets, coproduct.

A braided space is V = k^d with an invertible braiding c on V tensor V
satisfying the braid equation.  The tensor algebra TV has the word basis;
elements are sparse dicts mapping words to nonzero scalars.  On top of that
live the two bracket flavors, the monotonic bracket-word basis, the braided
coproduct and the braided antipode.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, words
from .scalars import (PairField, PrimeField, RationalField, field_from_json,
                      next_prime_with, primitive_root)

DEFAULT_PRIME = 10007


@dataclass(frozen=True)
class BraidingReport:
    ok: bool
    message: str
    failing_triple: tuple | None = None


def _apply_slot(field, state: dict, slot: int, cmap: dict) -> dict:
    """Apply a two-strand braiding at 1-based slot to a dict of words."""
    i, j = slot - 1, slot + 1
    out: dict = {}
    for w, coeff in state.items():
        field.axpy(out, {w[:i] + cd + w[j:]: f for cd, f in cmap[w[i:j]].items()},
                   coeff)
    return out


def _check_braid_equation(field, dim: int, cmap: dict):
    """Return the least violating triple (a, b, c) or None.

    Both sides act on all basis triples at once: each word carries the
    triple it started from as a fourth letter, which no slot touches.
    """
    state = {t + (t,): field.one
             for t in itertools.product(range(1, dim + 1), repeat=3)}
    lhs = rhs = state
    for slot in (2, 1, 2):
        lhs = _apply_slot(field, lhs, slot, cmap)
    for slot in (1, 2, 1):
        rhs = _apply_slot(field, rhs, slot, cmap)
    return min((w[3] for w in lhs.keys() | rhs.keys() if lhs.get(w) != rhs.get(w)),
               default=None)


def _invert_cmap(field, dim: int, cmap: dict):
    """Columns of the inverse matrix, or None if singular.

    The kernel of [-I | C] is {(C y, y)}; its reduced basis vector at (0, pk)
    carries column pk of C^-1 in its (1, .) part, and such vectors cover
    every pk exactly when C is invertible.
    """
    pairs = [(a, b) for a in range(1, dim + 1) for b in range(1, dim + 1)]
    minus_one = field.neg(field.one)
    columns = {(0, pk): {pk: minus_one} for pk in pairs}
    columns.update(((1, ck), cmap[ck]) for ck in pairs)
    basis = linalg.kernel(field, columns)
    if sorted(basis) != [(0, pk) for pk in pairs]:
        return None
    return {pk: {ck: v for (side, ck), v in basis[(0, pk)].items() if side}
            for pk in pairs}


def validate_braiding(field, dim: int, kind: str, data) -> BraidingReport:
    """Certify invertibility and the braid equation on all basis triples.

    `data` is the d x d scalar matrix for kind "diagonal", or the d^2 x d^2
    matrix (rows and columns indexed by (i-1)*d + (j-1)) for kind "general".
    """
    return _checked_braiding(field, dim, kind, data)[0]


def _scalar(field, x):
    """x as a raw scalar of `field`: an int is reduced through from_int, a
    value of the field's own scalar type is kept, and anything else is a
    ValueError."""
    if type(x) is int:
        return field.from_int(x)
    if type(x) is not type(field.zero):
        raise ValueError(f"{x!r} is not a scalar of {field!r}")
    return x


def _checked_braiding(field, dim: int, kind: str, data):
    """_validated_braiding on the frozen rows of `data`, or a failing report
    if an entry is neither an int nor a raw scalar of the field.  The check
    comes first because the memo would take 2.0 or True for the rows of 2
    or 1.  A guard ring (PairField) compares by identity, so its memo entry
    would never be hit again: it is validated without the memo."""
    data = tuple(map(tuple, data))
    types = {int, type(field.zero)}
    if not types.issuperset(map(type, itertools.chain.from_iterable(data))):
        bad = next(x for row in data for x in row if type(x) not in types)
        message = f"entry {bad!r} is not a scalar of {field!r}"
        return BraidingReport(False, message), None, None, None
    if isinstance(field, PairField):
        return _validated_braiding.__wrapped__(field, dim, kind, data)
    return _validated_braiding(field, dim, kind, data)


@functools.lru_cache(maxsize=64)
def _validated_braiding(field, dim: int, kind: str, data: tuple):
    """validate_braiding's report, the rows of `data` reduced into the field
    (see _scalar), and for general braidings the braiding map and its
    inverse; the rows are None unless the report is ok, the maps too, and
    always for diagonal braidings, whose spaces keep q alone.

    Memoized per process on the frozen rows `data`, so each distinct
    braiding is reduced and checked once; the shared maps are never
    mutated."""

    def fail(message, triple=None):
        return BraidingReport(False, message, triple), None, None, None

    if dim < 1 or dim > words.MAX_ALPHABET:
        return fail(f"dimension {dim} outside 1..{words.MAX_ALPHABET}")
    data = tuple(tuple(_scalar(field, x) for x in row) for row in data)
    cmap = inv = None
    if kind == "diagonal":
        if len(data) != dim or any(len(r) != dim for r in data):
            return fail("diagonal braiding needs a d x d matrix")
        for i in range(dim):
            for j in range(dim):
                if data[i][j] == field.zero:
                    return fail(f"diagonal entry q[{i + 1}][{j + 1}] is zero")
    elif kind == "general":
        if len(data) != dim * dim or any(len(r) != dim * dim for r in data):
            return fail("general braiding needs a d^2 x d^2 matrix")
        cmap = _general_cmap(field, dim, data)
        inv = _invert_cmap(field, dim, cmap)
        if inv is None:
            return fail("braiding matrix is singular")
        # Only general braidings need the check: diagonal ones satisfy the
        # braid equation identically, both sides sending x_a ox x_b ox x_c
        # to q_ab q_ac q_bc x_c ox x_b ox x_a.
        bad = _check_braid_equation(field, dim, cmap)
        if bad is not None:
            return fail(f"braid equation fails on basis triple {bad}", bad)
    else:
        return fail(f"unknown braiding kind {kind!r}")
    return BraidingReport(True, "ok"), data, cmap, inv


def _general_cmap(field, dim, matrix):
    cmap = {}
    for a in range(1, dim + 1):
        for b in range(1, dim + 1):
            col = (a - 1) * dim + (b - 1)
            image = {}
            for c in range(1, dim + 1):
                for d in range(1, dim + 1):
                    v = matrix[(c - 1) * dim + (d - 1)][col]
                    if v != field.zero:
                        image[(c, d)] = v
            cmap[(a, b)] = image
    return cmap


def _dense(field, dim, cmap):
    """The d^2 x d^2 matrix of a braiding map {(a, b): {(c, d): v}} in the
    layout validate_braiding reads: _general_cmap's inverse."""
    size = dim * dim
    dense = [[field.zero] * size for _ in range(size)]
    for (a, b), image in cmap.items():
        for (c, d), v in image.items():
            dense[(c - 1) * dim + d - 1][(a - 1) * dim + b - 1] = v
    return dense


def _cached(kind: str):
    """Memoize f(space, *args) in space._cache under (kind, *args).  Values
    are plain data (term dicts, tuples) that never refer to the space."""
    def decorate(f):
        def memo(space, *args):
            key = (kind, *args)
            hit = space._cache.get(key)
            if hit is None:
                hit = space._cache[key] = f(space, *args)
            return hit
        memo.__doc__ = f.__doc__
        return memo
    return decorate


class BraidedSpace:
    """A finite-dimensional braided vector space with cached bracket data."""

    def __init__(self, field, dim: int, kind: str, data):
        report, data, self._cmap, self._cmap_inv = _checked_braiding(
            field, dim, kind, data)
        if not report.ok:
            raise ValueError(f"invalid braiding: {report.message}")
        self.field = field
        self.dim = dim
        self.kind = kind
        self.q = data if kind == "diagonal" else None
        self._cache: dict = {}

    @property
    def is_diagonal(self) -> bool:
        return self.kind == "diagonal"

    @_cached("components")
    def component_partition(self) -> tuple:
        """Finest partition of the coordinate lines into braiding-stable blocks.

        Blocks B, B' satisfy c(V_B ox V_B') <= V_B' ox V_B, so words over the
        block alphabet behave like words over a diagonal alphabet; diagonal
        braidings give singletons, and a braiding that mixes all coordinates
        (the s3-rack preset does) gives the single block (1..d).  Blocks are
        sorted by least member and numbered 1..D in that order.
        """
        parent = list(range(self.dim + 1))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for a in range(1, self.dim + 1):
            for b in range(1, self.dim + 1):
                for (c,), (d,) in self.braid_words((a,), (b,)):
                    union(c, b)
                    union(d, a)
        groups: dict = {}
        for i in range(1, self.dim + 1):
            groups.setdefault(find(i), []).append(i)
        return tuple(tuple(g) for g in sorted(groups.values()))

    def qprod(self, u: tuple, v: tuple):
        """For diagonal braidings, the scalar q(u, v) = prod q_{ab} over a in u, b in v."""
        if not self.is_diagonal:
            raise ValueError("qprod needs a diagonal braiding")
        out = self.field.one
        for a in u:
            row = self.q[a - 1]
            for b in v:
                out = self.field.mul(out, row[b - 1])
        return out

    def braid_words(self, u: tuple, v: tuple, inverse: bool = False) -> dict:
        """c(x_u tensor x_v) (or its inverse) as {(left word, right word): coeff}.

        The left output block has the length of v, the right that of u.  The
        braiding of blocks is the composite of adjacent-slot braidings along a
        reduced word for the block transposition.
        """
        if not u or not v:
            return {(v, u): self.field.one}
        if self.is_diagonal:
            if inverse:
                return {(v, u): self.field.inv(self.qprod(v, u))}
            return {(v, u): self.qprod(u, v)}
        m, n = len(u), len(v)
        state = {u + v: self.field.one}
        if inverse:
            cmap = self._cmap_inv
            slots = [j for i in range(1, n + 1) for j in range(i + m - 1, i - 1, -1)]
        else:
            cmap = self._cmap
            slots = [j for i in range(m, 0, -1) for j in range(i, i + n)]
        for slot in slots:
            state = _apply_slot(self.field, state, slot, cmap)
        return {(w[:n], w[n:]): coeff for w, coeff in state.items()}

    def zero(self) -> "TensorElement":
        return TensorElement(self, {})

    def unit(self) -> "TensorElement":
        return TensorElement(self, {(): self.field.one})

    def generator(self, i: int) -> "TensorElement":
        if not 1 <= i <= self.dim:
            raise ValueError(f"generator index {i} outside 1..{self.dim}")
        return TensorElement(self, {(i,): self.field.one})

    def element(self, terms: dict) -> "TensorElement":
        clean = {}
        for w, c in terms.items():
            w = words.validate_word(w, self.dim)
            c = _scalar(self.field, c)
            if c != self.field.zero:
                clean[w] = c
        return TensorElement(self, clean)

    def to_json(self) -> dict:
        fmt = self.field.format
        if self.is_diagonal:
            braiding = {"diagonal": [[fmt(v) for v in row] for row in self.q]}
        else:
            dense = _dense(self.field, self.dim, self._cmap)
            braiding = {"general": [[fmt(v) for v in row] for row in dense]}
        return {"field": self.field.to_json(), "dim": self.dim, "braiding": braiding}

    def __repr__(self):
        return f"BraidedSpace(dim={self.dim}, kind={self.kind}, field={self.field!r})"


class _SparseElement:
    """Shared linear structure of TensorElement and TensorSquareElement:
    a sparse dict of nonzero scalars over one braided space."""

    __slots__ = ("space", "terms")

    def __init__(self, space: BraidedSpace, terms: dict):
        self.space = space
        self.terms = terms

    def _same(self, other):
        if not isinstance(other, type(self)) or other.space is not self.space:
            raise ValueError("operands live over different braided spaces")

    def _plus(self, other, c):
        """self + c * other."""
        self._same(other)
        fld = self.space.field
        return type(self)(self.space, fld.axpy(dict(self.terms), other.terms, c))

    def __add__(self, other):
        return self._plus(other, self.space.field.one)

    def __sub__(self, other):
        fld = self.space.field
        return self._plus(other, fld.neg(fld.one))

    def __neg__(self):
        fld = self.space.field
        return self.scale(fld.neg(fld.one))

    def scale(self, c):
        return type(self)(self.space, self.space.field.axpy({}, self.terms, c))

    def __eq__(self, other):
        return (isinstance(other, type(self)) and other.space is self.space
                and other.terms == self.terms)

    def __bool__(self):
        return bool(self.terms)


class TensorElement(_SparseElement):
    """Sparse element of the tensor algebra over a braided space."""

    __slots__ = ()

    def __mul__(self, other):
        """Concatenation product."""
        self._same(other)
        fld = self.space.field
        out: dict = {}
        for wa, ca in self.terms.items():
            fld.axpy(out, {wa + wb: cb for wb, cb in other.terms.items()}, ca)
        return TensorElement(self.space, out)

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set:
        return {len(w) for w in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        """Degree of a nonzero homogeneous element."""
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError("element is zero or inhomogeneous")
        return degs.pop()

    def support(self) -> list:
        return sorted(self.terms, key=lambda w: (len(w), w))

    def to_json(self) -> dict:
        fmt = self.space.field.format
        return {"terms": [{"word": words.format_word(w), "coeff": fmt(self.terms[w])}
                          for w in self.support()]}

    @classmethod
    def from_json(cls, space: BraidedSpace, obj: dict) -> "TensorElement":
        items = obj["terms"] if isinstance(obj, dict) else None
        if not isinstance(items, list) or not all(
                isinstance(item, dict) for item in items):
            raise ValueError("element must be {'terms': [objects]}")
        fld = space.field
        out: dict = {}
        for item in items:
            w = words.validate_word(words.parse_word(item["word"]), space.dim)
            fld.axpy(out, {w: fld.parse(item["coeff"])}, fld.one)
        return cls(space, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        fmt = self.space.field.format
        return " + ".join(f"{fmt(self.terms[w])}*{_term_name(w)}"
                          for w in self.support())


def _term_name(w: tuple) -> str:
    """A word's name in a repr: 1 for the empty word, else x and its letters."""
    return "1" if w == () else "x" + words.format_word(w)


def _concat(fld, x: dict, y: dict) -> dict:
    """Concatenation product of TV term dicts whose left words share one
    length: no two term pairs give one word, and over a field no product
    vanishes."""
    mul = fld.mul
    return {wa + wb: mul(ca, cb) for wa, ca in x.items() for wb, cb in y.items()}


def _braided_mul(space, left: dict, right: dict, inverse: bool = False) -> dict:
    """The braided product of two TV ox TV term dicts (see
    TensorSquareElement.__mul__), with c^{-1} in place of c when inverse is set.
    """
    fld = space.field
    out: dict = {}
    for (wa, wb), cab in left.items():
        for (wc, wd), ccd in right.items():
            fld.axpy(out, {(wa + l, r + wd): f for (l, r), f
                           in space.braid_words(wb, wc, inverse).items()},
                     fld.mul(cab, ccd))
    return out


class TensorSquareElement(_SparseElement):
    """Sparse element of TV tensor TV with the braided multiplication."""

    __slots__ = ()

    @classmethod
    def from_pair(cls, x: TensorElement, y: TensorElement) -> "TensorSquareElement":
        fld = x.space.field
        return cls(x.space, {(wa, wb): fld.mul(ca, cb) for wa, ca in x.terms.items()
                             for wb, cb in y.terms.items()})

    def __mul__(self, other):
        """(a ox b)(c ox d) = sum (a c_i) ox (b_i d) over c(x_b ox x_c)."""
        self._same(other)
        return TensorSquareElement(
            self.space, _braided_mul(self.space, self.terms, other.terms))

    def support(self) -> list:
        return sorted(self.terms,
                      key=lambda k: (len(k[0]) + len(k[1]), len(k[0]), k[0], k[1]))

    def __repr__(self):
        if not self.terms:
            return "0"
        fmt = self.space.field.format
        return " + ".join(
            f"{fmt(self.terms[k])}*{_term_name(k[0])}(x){_term_name(k[1])}"
            for k in self.support())


def _braid_terms(space, x: dict, y: dict, inverse: bool) -> dict:
    """c^{+-1}(x tensor y) for TV term dicts x and y, as a TV ox TV term
    dict: (1 ox x)(y ox 1)."""
    return _braided_mul(space, {((), w): c for w, c in x.items()},
                        {(w, ()): c for w, c in y.items()}, inverse)


def braid_apply(x: TensorElement, y: TensorElement,
                inverse: bool = False) -> TensorSquareElement:
    """c(x tensor y), or its inverse, for homogeneous x and y."""
    if not (x.is_homogeneous() and y.is_homogeneous()):
        raise ValueError("braid application needs homogeneous arguments")
    x._same(y)
    return TensorSquareElement(x.space, _braid_terms(x.space, x.terms, y.terms, inverse))


def _m_braid(space, a: dict, b: dict, inverse: bool) -> dict:
    """Multiplication composed with the braiding: m(c^{+-1}(a tensor b)), for
    TV term dicts a and b.

    a and b are homogeneous, so l + r tells the braided terms (l, r) apart.
    Over a diagonal braiding they must be multi-homogeneous too: then every
    term pair braids with one scalar, and the result is that scalar times b a.
    """
    if space.is_diagonal:
        x, y = next(iter(a), ()), next(iter(b), ())
        [f] = space.braid_words(x, y, inverse).values()
        return _concat(space.field, space.field.axpy({}, b, f), a)
    return {l + r: c for (l, r), c in _braid_terms(space, a, b, inverse).items()}


class BracketLetter:
    """A Lyndon word with its bracketing, [u] or the double-braided variant."""

    __slots__ = ("word", "flavor", "value")

    def __init__(self, word: tuple, flavor: str, value: TensorElement):
        self.word = word
        self.flavor = flavor
        self.value = value

    def __repr__(self):
        wrap = "[{}]" if self.flavor == "left" else "[[{}]]"
        return wrap.format(words.format_word(self.word))


@_cached("br")
def _bracket_value(space: BraidedSpace, u: tuple, cw: tuple, flavor: str) -> dict:
    """Bracket of the coordinate word cw along the Lyndon shape u.

    The shape is split at its Shirshov factorization and cw at the same
    place.  For a coordinate Lyndon word the shape is the word itself
    (cw == u); a Lyndon word over the alphabet of braiding-stable blocks
    (see BraidedSpace.component_partition) is the shape of each coordinate
    word that fills its letters from their blocks.
    """
    fld = space.field
    if len(u) == 1:
        return {cw: fld.one}
    v, w = words.shirshov(u)
    a = _bracket_value(space, v, cw[:len(v)], flavor)
    b = _bracket_value(space, w, cw[len(v):], flavor)
    twist = _m_braid(space, a, b, inverse=(flavor == "left"))
    return fld.axpy(_concat(fld, a, b), twist, fld.neg(fld.one))


def bracket(space: BraidedSpace, u, flavor: str = "left") -> BracketLetter:
    """The bracket super-letter of a Lyndon word.

    Flavor "left" uses the inverse braiding in the twist ([x, y] = xy -
    m c^{-1}(x ox y)); flavor "double" uses the braiding itself.
    """
    u = words.validate_word(u, space.dim)
    if not words.is_lyndon(u):
        raise ValueError(f"{u} is not a Lyndon word")
    return BracketLetter(u, flavor, TensorElement(
        space, _bracket_word_value(space, (u,), u, flavor)))


def bracket_word(space: BraidedSpace, sw, flavor: str = "left") -> TensorElement:
    """Product of the bracket letters along a monotonic super-word."""
    sw = words.validate_superword(sw)
    return TensorElement(space, _bracket_word_value(
        space, sw, words.validate_word(words.concat(sw), space.dim), flavor))


def _bracket_word_value(space, sw: tuple, cw: tuple, flavor: str) -> dict:
    """Ordered product of the brackets of cw along the shapes in sw, as a
    fresh dict: the letters are memoized, their products are not."""
    if flavor not in ("left", "double"):
        raise ValueError(f"unknown bracket flavor {flavor!r}")
    fld, out, k = space.field, {(): space.field.one}, 0
    for u in sw:
        a = _bracket_value(space, u, cw[k:k + len(u)], flavor)
        out, k = _concat(fld, out, a), k + len(u)
    return out


def bracket_element(space: BraidedSpace, w, flavor: str = "left") -> TensorElement:
    """The bracketing of an arbitrary word: bracket letters along its
    Chen-Fox-Lyndon factorization, multiplied in order."""
    w = words.validate_word(w, space.dim)
    return TensorElement(space, _bracket_word_value(
        space, words.cfl_factorize(w), w, flavor))


def leading_vector(x: TensorElement) -> tuple:
    """(word, coeff) for the lex-least word among the top-degree terms."""
    if not x.terms:
        raise ValueError("the zero element has no leading vector")
    top = max(len(w) for w in x.terms)
    w = min(w for w in x.terms if len(w) == top)
    return w, x.terms[w]


def expand_monotonic_basis(x: TensorElement) -> dict:
    """Coordinates of a homogeneous element in the bracket-word basis.

    Returns {monotonic super-word: coeff}.  Back-substitution works because a
    bracket word's leading term is its concatenation with coefficient 1 and
    all other terms are lexicographically larger.
    """
    if not x.is_homogeneous():
        raise ValueError("expansion needs a homogeneous element")
    space = x.space
    residual = dict(x.terms)
    out: dict = {}
    while residual:
        w = min(residual)
        sw = words.cfl_factorize(w)
        coeff = residual[w]
        out[sw] = coeff
        space.field.axpy(residual, _bracket_word_value(space, sw, w, "left"), -coeff)
    return out


@_cached("cop")
def _coproduct_word(space, w: tuple) -> dict:
    one = space.field.one
    if not w:
        return {((), ()): one}
    a = w[-1]
    return _braided_mul(space, _coproduct_word(space, w[:-1]),
                        {((a,), ()): one, ((), (a,)): one})


def coproduct(x: TensorElement) -> TensorSquareElement:
    """The braided coproduct: the algebra map with primitive generators."""
    space = x.space
    out: dict = {}
    for w, c in x.terms.items():
        space.field.axpy(out, _coproduct_word(space, w), c)
    return TensorSquareElement(space, out)


def counit(x: TensorElement):
    return x.terms.get((), x.space.field.zero)


@_cached("anti")
def _antipode_word(space, w: tuple) -> dict:
    fld = space.field
    if len(w) <= 1:
        return {w: fld.neg(fld.one) if w else fld.one}  # S(1) = 1, S(x_i) = -x_i
    return _m_braid(space, _antipode_word(space, w[:1]),
                    _antipode_word(space, w[1:]), inverse=False)


def antipode(x: TensorElement) -> TensorElement:
    """The braided antipode: S(x_i) = -x_i, S(xy) = m c(S(x) tensor S(y))."""
    space = x.space
    out: dict = {}
    for w, c in x.terms.items():
        space.field.axpy(out, _antipode_word(space, w), c)
    return TensorElement(space, out)


def _check_field(field, orders, units=()) -> None:
    """Raise unless the field has a root of unity of each order and each
    unit literal is invertible in it."""
    for m in orders:
        if field.char == 0:
            if m not in (1, 2):
                raise ValueError(f"no rational root of unity of order {m}")
        elif (field.p - 1) % m != 0:
            raise ValueError(f"F_{field.p} has no element of order {m}")
    for u in units:
        if field.char and (u.numerator % field.p == 0
                           or u.denominator % field.p == 0):
            raise ValueError(f"preset value {u} is not a unit mod {field.p}")


def space_from_json(obj: dict, prime=None) -> BraidedSpace:
    """Build a space from its JSON description, optionally forcing a prime."""
    if not isinstance(obj, dict):
        raise ValueError("space description must be a JSON object")
    for req in ("field", "dim", "braiding"):
        if req not in obj:
            raise ValueError(f"space description lacks {req!r}")
    field = PrimeField(prime) if prime is not None else field_from_json(obj["field"])
    dim = obj["dim"]
    if type(dim) is not int or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    braiding = obj["braiding"]
    orders = obj.get("root_orders", [])
    if not isinstance(orders, list) or any(
            type(m) is not int or m < 1 for m in orders):
        raise ValueError(
            f"root_orders must be a list of positive integers, got {orders!r}")
    _check_field(field, orders)
    if not isinstance(braiding, dict):
        raise ValueError("braiding must be a JSON object")
    for kind in ("diagonal", "general"):
        if kind in braiding:
            rows = braiding[kind]
            if not isinstance(rows, list) or not all(
                    isinstance(row, list) for row in rows):
                raise ValueError(f"{kind} braiding must be a list of rows")
            data = [[field.parse(v) for v in row] for row in rows]
            return BraidedSpace(field, dim, kind, data)
    raise ValueError("braiding must contain 'diagonal' or 'general'")


def _parse_preset(text: str):
    """Split "name" or "name(key=value,...)" into (name, params dict)."""
    text = text.strip()
    if "(" in text:
        if not text.endswith(")"):
            raise ValueError(f"malformed preset {text!r}")
        name, _, rest = text.partition("(")
        params = {}
        body = rest[:-1].strip()
        if body:
            for piece in body.split(","):
                if "=" not in piece:
                    raise ValueError(f"malformed preset parameter {piece!r}")
                k, _, v = piece.partition("=")
                k = k.strip()
                if k in params:
                    raise ValueError(
                        f"preset {name.strip()!r} repeats parameter {k!r}")
                params[k] = v.strip()
        return name.strip(), params
    return text, {}


def _s3_rack_matrix(field):
    # conjugation action of the transpositions of S_3, constant cocycle -1:
    # c(x_a ox x_b) = -x_{aba} ox x_a, aba = a if a = b, else the third one
    minus_one = field.neg(field.one)
    return _dense(field, 3, {(a, b): {(a if a == b else 6 - a - b, a): minus_one}
                             for a in range(1, 4) for b in range(1, 4)})


# A preset: its dimension and braiding kind, the parameters it takes besides
# prime= and rationals=, its default q (a literal, or None for a generic q)
# and a builder (field, q) -> braiding data.
_Preset = namedtuple("_Preset", "dim kind params default_q build")
_PRESETS = {
    # q11 = q22 = q, q12 = q21 = 1
    "quantum-plane": _Preset(2, "diagonal", ("q", "order"), "-1",
                             lambda f, q: [[q, f.one], [f.one, q]]),
    # q11 = q22 = q, q12 = 1/q, q21 = 1
    "cartan-A2": _Preset(2, "diagonal", ("q", "order"), None,
                         lambda f, q: [[q, f.inv(q)], [f.one, q]]),
    "s3-rack": _Preset(3, "general", (), None, lambda f, q: _s3_rack_matrix(f)),
}
PRESET_NAMES = tuple(_PRESETS)


def _preset_requirements(name: str, params: dict):
    """(order divisors, unit literals) a prime must accommodate; they also
    fix q.  The one reader of a preset's parameters: it rejects those the
    preset does not take, rationals= other than 0 or 1, order= other than a
    positive integer, and q= together with order=."""
    preset = _PRESETS.get(name)
    if preset is None:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    known = preset.params + ("prime", "rationals")
    for key in params:
        if key not in known:
            raise ValueError(f"preset {name!r} takes no parameter {key!r}; "
                             f"known: {', '.join(known)}")
    if params.get("rationals", "0") not in ("0", "1"):
        raise ValueError(f"preset {name!r} takes rationals=0 or rationals=1, "
                         f"not {params['rationals']!r}")
    if "order" in params:
        if "q" in params:
            raise ValueError(f"preset {name!r} takes q= or order=, not both")
        if not params["order"].isdecimal() or int(params["order"]) < 1:
            raise ValueError(f"preset {name!r} takes order=<positive integer>, "
                             f"not {params['order']!r}")
        return (int(params["order"]),), ()
    q = params.get("q", preset.default_q)
    return (), (() if q is None else (Fraction(q),))


def space_from_preset(text: str, prime=None, trunc=None) -> BraidedSpace:
    """Instantiate a named preset of `_PRESETS`, picking a compatible prime
    when needed.

    quantum-plane and cartan-A2 take q=<rational> or order=<m> (q a root of
    unity of order m), not both; quantum-plane's q defaults to -1 and
    cartan-A2's to a generic value: a primitive root mod p of order above
    2 * trunc, or 2 over the rationals.  s3-rack (d = 3) takes no q.  Every
    preset takes prime=<p> (the `prime` argument wins) and rationals=1 (the
    rationals) or rationals=0 (the default, a prime field); any other
    parameter or value, or a parameter given twice, is an error.
    """
    name, params = _parse_preset(text)
    orders, units = _preset_requirements(name, params)
    preset = _PRESETS[name]
    if params.get("rationals") == "1":
        field = RationalField()
    else:
        if prime is None and "prime" in params:
            prime = int(params["prime"])
        if prime is None:
            prime = next_prime_with(DEFAULT_PRIME, orders, units)
        field = PrimeField(prime)
    _check_field(field, orders, units)
    q = None
    if orders:
        # over the rationals the check above leaves the orders 1 and 2
        m = orders[0]
        q = (field.element_of_order(m) if field.char
             else field.one if m == 1 else field.neg(field.one))
    elif units:
        q = field.parse(str(units[0]))
    elif preset.params and field.char == 0:  # a generic q
        q = field.from_int(2)
    elif preset.params:
        if trunc is not None and field.p - 1 <= 2 * trunc:
            raise ValueError(
                f"generic parameter needs order > {2 * trunc}, "
                f"but F_{field.p}^* has order {field.p - 1}")
        q = primitive_root(field.p)
    if q == field.zero:
        raise ValueError(f"{name} parameter q must be nonzero")
    return BraidedSpace(field, preset.dim, preset.kind, preset.build(field, q))


def build_space(source, prime=None, trunc=None) -> BraidedSpace:
    """Space from a JSON dict or a preset name string."""
    if isinstance(source, str):
        return space_from_preset(source, prime=prime, trunc=trunc)
    return space_from_json(source, prime=prime)


def fused_space(ring, first: BraidedSpace, second: BraidedSpace) -> BraidedSpace:
    """The space over the guard ring Z/(p1 p2) (a scalars.PairField) that is
    `first` mod p1 and `second` mod p2: the two validated spaces of one
    source, combined entry by entry by the CRT and not validated again.  A
    braiding entry present at one prime only is a split."""

    def fuse(x: dict, y: dict) -> dict:
        if x.keys() != y.keys():
            ring.signal_split("a braiding entry")
        return {k: ring.crt(v, y[k]) for k, v in x.items()}

    space = object.__new__(BraidedSpace)
    space.field, space.dim, space.kind, space._cache = ring, first.dim, first.kind, {}
    space.q = space._cmap = space._cmap_inv = None
    if first.is_diagonal:
        space.q = tuple(tuple(map(ring.crt, x, y)) for x, y in zip(first.q, second.q))
    else:
        space._cmap, space._cmap_inv = (
            {k: fuse(x[k], y[k]) for k in x}
            for x, y in ((first._cmap, second._cmap),
                         (first._cmap_inv, second._cmap_inv)))
    return space


def source_requirements(source):
    """(order divisors, unit literals) of a space source, for prime searches."""
    if isinstance(source, str):
        return _preset_requirements(*_parse_preset(source))
    orders = tuple(source.get("root_orders", ()))
    braiding = source.get("braiding", {})
    rows = braiding.get("diagonal") or braiding.get("general") or []
    units = []
    for row in rows:
        for v in row:
            f = Fraction(v)
            if f != 0:
                units.append(f)
    return orders, tuple(units)
