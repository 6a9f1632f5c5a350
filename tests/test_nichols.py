"""Graded quotients, symmetrizer, PBW data, factorization and guards."""

import gc
import itertools
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from lynhopf import nichols, words
from lynhopf.freealg import (BraidedSpace, TensorElement, _bracket_value,
                             _bracket_word_value, coproduct, fused_space,
                             space_from_preset)
from lynhopf.linalg import Eliminator, kernel, reduce_mod, rref
from lynhopf.nichols import (BadPrimeError, GradedQuotient, MatrixCapExceeded,
                             PBWGenerator, nonneg_quotient_check, pbw_data,
                             pbw_series, run_guarded, subquotient_series,
                             symmetrizer, verify_factorization)
from lynhopf.scalars import PairField, PrimeField, RationalField
from lynhopf.series import PowerSeries, geometric_factor

from conftest import all_words, random_diagonal, swap_block_matrix


# ------------------------------------------------------------- oracle pieces

def apply_slot(state, slot, sp):
    """One adjacent braiding on a dict of words, via the public braid_words."""
    fld = sp.field
    out = {}
    for w, coeff in state.items():
        for (l, r), f in sp.braid_words((w[slot - 1],), (w[slot],)).items():
            nw = w[:slot - 1] + l + r + w[slot + 1:]
            v = fld.add(out.get(nw, fld.zero), fld.mul(coeff, f))
            if v == fld.zero:
                out.pop(nw, None)
            else:
                out[nw] = v
    return out


def shortest_words():
    """Lazily extendable BFS table: permutation -> one reduced word."""
    def for_n(n):
        ident = tuple(range(n))
        table = {ident: ()}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                w = table[p]
                for i in range(n - 1):
                    q = p[:i] + (p[i + 1], p[i]) + p[i + 2:]
                    if q not in table:
                        table[q] = w + (i + 1,)
                        nxt.append(q)
            frontier = nxt
        return table
    return for_n


def oracle_symmetrizer(sp, n):
    """Sum of the braid lifts of all n! permutations, one reduced word each."""
    fld = sp.field
    table = shortest_words()(n)
    cols = {}
    for base in itertools.product(range(1, sp.dim + 1), repeat=n):
        acc = {}
        for word in table.values():
            state = {base: fld.one}
            for slot in word:
                state = apply_slot(state, slot, sp)
            for t, c in state.items():
                v = fld.add(acc.get(t, fld.zero), c)
                if v == fld.zero:
                    acc.pop(t, None)
                else:
                    acc[t] = v
        cols[base] = acc
    return cols


def bracket_image(R, sw, cw, m):
    """Projection onto R of the left bracket word of shape sw filled with cw."""
    return R.project_terms(_bracket_word_value(R.space, sw, cw, "left"), m)


def oracle_subquotient(R, u, trunc):
    """Per-word scan: a fresh span of the ideal part of u in every degree k|u|."""
    part = R.space.component_partition()
    coeffs = [1] + [0] * trunc
    for m in range(len(u), trunc + 1, len(u)):
        span = Eliminator(R.space.field)
        for w in itertools.product(range(1, len(part) + 1), repeat=m):
            sw = words.cfl_factorize(w)
            if sw[-1] >= u and sw[0] > u:
                for cw in itertools.product(*(part[b - 1] for b in w)):
                    span.insert(bracket_image(R, sw, cw, m))
        target = (u,) * (m // len(u))
        for cw in itertools.product(*(part[b - 1] for b in u * len(target))):
            coeffs[m] += span.insert(bracket_image(R, target, cw, m))
    return tuple(coeffs)


def oracle_pbw(R):
    """Per-candidate scan: a fresh span for every height test of every degree."""
    field = R.space.field

    def image(sw):
        return bracket_image(R, sw, words.concat(sw), words.superword_degree(sw))

    def restricted(G, n, heights):
        caps = {u: h - 1 for u, h in heights.items() if h is not None}
        return words.monotonic_superwords(G, n, caps or None)

    G, heights = [], {}
    for n in range(1, R.trunc + 1):
        for u in sorted(g for g in G if heights[g] is None and n % len(g) == 0):
            h = n // len(u)
            if h < 2:
                continue
            target = (u,) * h
            span = Eliminator(field)
            for sw in restricted(G, n, heights):
                if sw < target:
                    span.insert(image(sw))
            if span.contains(image(target)):
                heights[u] = h
        span = Eliminator(field)
        for sw in restricted(G, n, heights):
            span.insert(image(sw))
        for u in words.enumerate_lyndon(R.space.dim, n):
            if len(u) != n:
                continue
            vec = R.project_terms(_bracket_value(R.space, u, u, "left"), n)
            if not span.contains(dict(vec)):
                G.append(u)
                heights[u] = None
                span.insert(vec)
    return tuple(PBWGenerator(u, heights[u]) for u in sorted(G))


def oracle_presented_pivots(space, relations, n):
    """Pivot map of I_n from every a.r.b with |a| + |r| + |b| = n."""
    rows = []
    for r in relations:
        k = r.degree()
        for i in range(n - k + 1):
            for a in all_words(space.dim, i):
                for b in all_words(space.dim, n - k - i):
                    rows.append({a + w + b: c for w, c in r.terms.items()})
    return rref(space.field, rows)


def oracle_presented(space, relations, trunc):
    """Pivot maps by degree, with the coideal checked against one span of
    Rel ox TV + TV ox Rel per degree; raises like the constructor does."""
    pivots = {0: {}, 1: {}}
    for n in range(2, trunc + 1):
        pivots[n] = oracle_presented_pivots(space, relations, n)
        if not pivots[n]:
            continue
        span = Eliminator(space.field)
        for i in range(2, n + 1):
            for row in pivots[i].values():
                for b in all_words(space.dim, n - i):
                    span.insert({(w, b): c for w, c in row.items()})
                for a in all_words(space.dim, n - i):
                    span.insert({(a, w): c for w, c in row.items()})
        for lead in sorted(pivots[n]):
            delta = coproduct(TensorElement(space, dict(pivots[n][lead])))
            if not span.contains(dict(delta.terms)):
                raise ValueError(
                    f"relations do not generate a coideal at degree {n}")
    return pivots


def random_root_diagonal(d, rng):
    """A diagonal space over F_10009 with random sixth roots of unity as q_ij,
    so that Nichols quotients have relations and generators have heights."""
    fld = PrimeField(10009)
    zeta = fld.element_of_order(6)
    q = [[pow(zeta, rng.randrange(6), fld.p) for _ in range(d)] for _ in range(d)]
    return BraidedSpace(fld, d, "diagonal", q)


# --------------------------------------------------------------- symmetrizer

def test_symmetrizer_against_permutation_sum(field):
    rng = random.Random(201)
    sp = random_diagonal(field, 2, rng)
    for n in range(5):
        assert symmetrizer(sp, n) == oracle_symmetrizer(sp, n)
    rack = space_from_preset("s3-rack")
    for n in range(4):
        assert symmetrizer(rack, n) == oracle_symmetrizer(rack, n)


def test_symmetrizer_small_values(field):
    sp = space_from_preset("quantum-plane")
    f = sp.field
    s2 = symmetrizer(sp, 2)
    assert s2[(1, 1)] == {}  # 1 + q11 = 0
    assert s2[(1, 2)] == {(1, 2): f.one, (2, 1): f.one}
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        symmetrizer(sp, -1)
    for n in (True, False, 2.0):
        with pytest.raises(ValueError) as exc:
            symmetrizer(sp, n)
        assert str(exc.value) == f"degree must be an integer, got {n!r}"


# ----------------------------------------------------------- graded quotients

@pytest.fixture(scope="module")
def qp_nichols():
    return GradedQuotient(space_from_preset("quantum-plane"), "nichols", 4)


@pytest.fixture(scope="module")
def cartan_generic():
    return GradedQuotient(space_from_preset("cartan-A2"), "nichols", 6)


@pytest.fixture(scope="module")
def cartan_three():
    return GradedQuotient(space_from_preset("cartan-A2(order=3)"), "nichols", 8)


@pytest.fixture(scope="module")
def rack_nichols():
    return GradedQuotient(space_from_preset("s3-rack"), "nichols", 5)


def test_quotient_validation(field):
    sp = space_from_preset("quantum-plane")
    with pytest.raises(ValueError):
        GradedQuotient(sp, "mystery", 3)
    for trunc in (-1, True, False):
        with pytest.raises(ValueError, match="trunc must be a nonnegative integer"):
            GradedQuotient(sp, "nichols", trunc)
    with pytest.raises(ValueError):
        GradedQuotient(sp, "nichols", 3, relations=(sp.element({(1, 1): 1}),))
    with pytest.raises(ValueError):
        GradedQuotient(sp, "presented", 3, relations=(sp.zero(),))
    with pytest.raises(ValueError):
        GradedQuotient(sp, "presented", 3, relations=(sp.generator(1),))
    other = space_from_preset("quantum-plane")
    rel = other.element({(1, 1): other.field.one})
    with pytest.raises(ValueError, match="relation lives over a different space"):
        GradedQuotient(sp, "presented", 3, relations=(rel,))
    R = GradedQuotient(sp, "nichols", 3)
    with pytest.raises(ValueError, match="element lives over a different space"):
        R.project(rel)
    assert R.project(sp.zero()) == {}


def test_free_quotient_dims(field):
    sp = random_diagonal(field, 2, random.Random(211))
    R = GradedQuotient(sp, "free", 6)
    assert R.hilbert_series().coeffs == tuple(2 ** n for n in range(7))
    with pytest.raises(ValueError):
        R.dim(7)


def test_free_is_presented_without_relations(field):
    rng = random.Random(213)
    for d, trunc in ((1, 6), (2, 6), (3, 4)):
        sp = random_diagonal(field, d, rng)
        free = GradedQuotient(sp, "free", trunc)
        bare = GradedQuotient(sp, "presented", trunc, relations=())
        for n in range(trunc + 1):
            everything = tuple(all_words(d, n))
            assert free.basis(n) == bare.basis(n) == everything
            assert free.dim(n) == bare.dim(n) == d ** n
            vec = {w: field.from_int(rng.randint(1, 9))
                   for w in rng.sample(everything, min(len(everything), 5))}
            assert free.project_terms(vec, n) == bare.project_terms(vec, n) == vec
    # dims need no words: a cap of 10 would stop any walk over them
    big = GradedQuotient(sp, "free", 1200, cap=10)
    assert big.hilbert_series().coeffs == tuple(d ** n for n in range(1201))


def test_quantum_plane_dims(qp_nichols):
    assert qp_nichols.hilbert_series().coeffs == (1, 2, 1, 0, 0)
    assert qp_nichols.basis(2) == ((2, 1),)
    assert qp_nichols.graded_data(2).relation_leads == ((1, 1), (1, 2), (2, 2))
    # the classes of relations project to nothing
    sp = qp_nichols.space
    assert qp_nichols.project(sp.element({(1, 1): sp.field.one})) == {}


def test_cartan_dims(cartan_generic, cartan_three):
    assert cartan_generic.hilbert_series().coeffs == (1, 2, 4, 6, 9, 12, 16)
    assert cartan_three.space.field.p == 10009
    assert cartan_three.hilbert_series().coeffs == (1, 2, 4, 4, 5, 4, 4, 2, 1)
    assert sum(cartan_three.hilbert_series().coeffs) == 27


def test_rack_dims_two_primes(rack_nichols):
    assert rack_nichols.hilbert_series().coeffs == (1, 3, 4, 3, 1, 0)
    other = GradedQuotient(space_from_preset("s3-rack", prime=10009),
                           "nichols", 5)
    assert other.hilbert_series() == rack_nichols.hilbert_series()


def test_nichols_degree_is_one_elimination(monkeypatch):
    from lynhopf import linalg, nichols
    calls = []
    rref = linalg.rref

    def counting(field, rows):
        calls.append(field)
        return rref(field, rows)

    monkeypatch.setattr(linalg, "rref", counting)
    monkeypatch.setattr(nichols, "rref", counting)
    R = GradedQuotient(space_from_preset("cartan-A2"), "nichols", 6)
    assert R.hilbert_series().coeffs == (1, 2, 4, 6, 9, 12, 16)
    assert len(calls) == 5  # degrees 2..6, one rref each


# ------------------------------------------- derivation recursion vs symmetrizer

def symmetrizer_pivots(sp, n):
    """Reference Nichols relations: the reduced kernel of the degree-n
    symmetrizer, a pivot map over all d^n words."""
    return kernel(sp.field, symmetrizer(sp, n))


def random_rational_diagonal(d, rng, roots):
    """A diagonal space over Q: entries +-1 (the rational sixth roots of
    unity) or random nonzero fractions."""
    fld = RationalField()
    if roots:
        q = [[Fraction(rng.choice((1, -1))) for _ in range(d)] for _ in range(d)]
    else:
        q = [[Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
              for _ in range(d)] for _ in range(d)]
    return BraidedSpace(fld, d, "diagonal", q)


# cartan-A2 at q = -1 conjugated by g ox g, g = [[1, 1], [0, 1]]: a braiding
# that is not monomial, so braided states split into several words
CONJUGATED_A2 = ((-1, 0, 2, -2), (0, 0, 1, -2), (0, -1, 0, 0), (0, 0, 0, -1))


def conjugated_a2(fld):
    return BraidedSpace(fld, 2, "general",
                        [[fld.from_int(v) for v in row] for row in CONJUGATED_A2])


def recursion_case(name):
    """(space, top degree) of one derivation-recursion case."""
    if name.startswith("conjugated-A2"):
        fld = PrimeField(10007) if name.endswith("-p") else RationalField()
        return conjugated_a2(fld), 6
    if name == "swap-block":
        fld = PrimeField(10007)
        return BraidedSpace(fld, 3, "general", swap_block_matrix(fld)), 5
    if name in ("s3-rack", "cartan-A2(order=3)"):
        return space_from_preset(name), 6 if name == "s3-rack" else 7
    kind, _, seed = name.rpartition("-")
    rng = random.Random(name)
    d = 2 if int(seed) % 2 else 3
    if kind == "generic-p":
        sp = random_diagonal(PrimeField(10007), d, rng)
    elif kind == "roots-p":
        sp = random_root_diagonal(d, rng)
    else:
        sp = random_rational_diagonal(d, rng, roots=kind == "roots-q")
    return sp, 7 if d == 2 else 5


RECURSION_CASES = ("swap-block", "s3-rack", "cartan-A2(order=3)") + tuple(
    f"{kind}-{seed}" for kind in ("generic-p", "roots-p", "generic-q", "roots-q")
    for seed in range(3)) + ("conjugated-A2-p", "conjugated-A2-q")


@pytest.mark.parametrize("name", RECURSION_CASES)
def test_nichols_recursion_matches_symmetrizer_kernel(name):
    """Every Nichols degree against the d^n symmetrizer kernel: basis, dims,
    relation leads, the rows with candidate leads, and the projection of
    random vectors."""
    sp, top = recursion_case(name)
    fld = sp.field
    rng = random.Random(f"project/{name}")
    R = GradedQuotient(sp, "nichols", top)
    for n in range(2, top + 1):
        oracle = symmetrizer_pivots(sp, n)
        everything = list(all_words(sp.dim, n))
        basis = tuple(w for w in everything if w not in oracle)
        assert R.basis(n) == basis, n
        assert R.dim(n) == len(basis)
        assert R.graded_data(n).relation_leads == tuple(sorted(oracle))
        rows = R._ensure(n)
        candidates = {(a,) + b for a in range(1, sp.dim + 1)
                      for b in R.basis(n - 1)}
        assert set(rows) == set(oracle) & candidates, n
        for lead, row in rows.items():
            assert row == oracle[lead], (n, lead)
        for _ in range(4):
            vec = {w: fld.from_int(rng.randint(1, 9))
                   for w in rng.sample(everything, min(len(everything), 8))}
            assert R.project_terms(vec, n) == reduce_mod(fld, vec, oracle), n
    if not name.startswith("generic"):  # generic q: the tensor algebra
        assert any(R._ensure(n) for n in range(2, top + 1))


def test_nichols_degrees_never_call_the_symmetrizer(monkeypatch):
    from lynhopf import nichols
    sym_calls, widths = [], []
    counted_kernel, counted_symmetrizer = nichols.kernel, nichols.symmetrizer

    def counting_kernel(field, columns):
        widths.append(len(columns))
        return counted_kernel(field, columns)

    def counting_symmetrizer(*args, **kwargs):
        sym_calls.append(args)
        return counted_symmetrizer(*args, **kwargs)

    monkeypatch.setattr(nichols, "kernel", counting_kernel)
    monkeypatch.setattr(nichols, "symmetrizer", counting_symmetrizer)
    R = GradedQuotient(space_from_preset("cartan-A2"), "nichols", 8)
    dims = (1, 2, 4, 6, 9, 12, 16, 20, 25)
    assert R.hilbert_series().coeffs == dims
    assert sym_calls == []
    # degrees 2..8, one kernel each, over the d * dim B_{n-1} words a.b
    assert widths == [2 * c for c in dims[1:-1]]
    widths.clear()
    R = GradedQuotient(space_from_preset("s3-rack"), "nichols", 7)
    assert R.hilbert_series().coeffs == (1, 3, 4, 3, 1, 0, 0, 0)
    # B_5 = 0 needs the 3 words a.b with b spanning B_4; above, nothing
    assert widths == [9, 12, 9, 3, 0, 0]
    assert sym_calls == []


@pytest.mark.parametrize("fld", [PrimeField(10007), RationalField()],
                         ids=["p", "q"])
def test_non_monomial_braiding_matches_cartan_order_two(fld):
    R = GradedQuotient(conjugated_a2(fld), "nichols", 6)
    assert R.hilbert_series().coeffs == (1, 2, 2, 2, 1, 0, 0)
    order_two = GradedQuotient(space_from_preset("cartan-A2(order=2)"),
                               "nichols", 6)
    assert R.hilbert_series() == order_two.hilbert_series()
    assert verify_factorization(R).ok


class PerTermColumns(GradedQuotient):
    """The Nichols column builder that one-pass columns replaced, the oracle
    of _nichols_rows: D_{n-1} flat in (standard word, last letter) keys, one
    dict and one checked axpy per derivation term, and braid_words on every
    column."""

    def __init__(self, space, trunc):
        super().__init__(space, "nichols", trunc)
        one = space.field.one
        self._derivation = (1, {(a,): {((), a): one}
                                for a in range(1, space.dim + 1)})

    def _nichols_rows(self, n):
        space = self.space
        field = space.field
        prev_n, prev = self._derivation
        assert prev_n == n - 1
        columns = {}
        for a in range(1, space.dim + 1):
            for b in self.basis(n - 1):
                terms = [(l, r[0], c) for (l, r), c
                         in space.braid_words((a,), b).items()]
                terms += [((a,) + p, last, c) for (p, last), c in prev[b].items()]
                col = {}
                for word, last, c in terms:
                    field.axpy(col, {(q, last): x for q, x
                                     in self._normal_form(word).items()}, c)
                columns[(a,) + b] = col
        rows = kernel(field, columns)
        self._derivation = (n, {w: col for w, col in columns.items()
                                if w not in rows})
        return rows


def flat_derivation(R, reduce=None):
    """R's stored D_n in the oracle's (standard word, last letter) keys, with
    each entry passed through `reduce` (zeros dropped) if it is given."""
    reduce = reduce or (lambda x: x)
    return {w: {(q, last): reduce(x) for last, part in col.items()
                for q, x in part.items() if reduce(x)}
            for w, col in R._derivation[1].items()}


def column_space(name, fld):
    """One one-pass-column case over fld, from the same seeded literals at
    every prime: random integers 2..9999, or powers zeta^k of a sixth root
    of unity (over Q, (-1)^k), or a rack."""
    kind, d = name.split("/")
    if kind == "s3-rack":
        return space_from_preset("s3-rack(rationals=1)" if fld.char == 0
                                 else f"s3-rack(prime={fld.p})")
    if kind == "s4-rack":
        return s4_rack(fld)
    rng, d = random.Random(name), int(d)
    if kind == "generic":
        q = [[fld.from_int(rng.randrange(2, 10000)) for _ in range(d)]
             for _ in range(d)]
    else:
        zeta = fld.from_int(-1) if fld.char == 0 else fld.element_of_order(6)
        powers = [fld.one]
        for _ in range(5):
            powers.append(fld.mul(powers[-1], zeta))
        q = [[rng.choice(powers) for _ in range(d)] for _ in range(d)]
    return BraidedSpace(fld, d, "diagonal", q)


PAIR = (10009, 10039)  # both with sixth roots of unity
COLUMN_CASES = [f"{kind}/{d}" for kind in ("generic", "roots") for d in (2, 3)] + [
    "s3-rack/3", "s4-rack/6"]


@pytest.mark.parametrize("over", ["p", "q", "pair"])
@pytest.mark.parametrize("name", COLUMN_CASES)
def test_one_pass_columns_match_the_per_term_builder(name, over):
    """Degree by degree, the one-pass columns give the per-term builder's
    rows, dim R_n and stored D_n; over the guard ring the rows and D_n are
    also, entry by entry, those of the run at each prime."""
    top = {"2": 8, "3": 6, "6": 5}[name[-1]]  # by alphabet size
    at = [column_space(name, PrimeField(p)) for p in PAIR]
    if over == "p":
        sp, at = at[0], []
    elif over == "q":
        sp, at = column_space(name, RationalField()), []
    else:
        sp = fused_space(PairField(*PAIR), *at)
    R, oracle = GradedQuotient(sp, "nichols", top), PerTermColumns(sp, top)
    at = [GradedQuotient(s, "nichols", top) for s in at]
    for n in range(2, top + 1):
        assert R._ensure(n) == oracle._ensure(n), n
        assert R.dim(n) == oracle.dim(n), n
        assert flat_derivation(R) == oracle._derivation[1], n
        for Rp in at:
            p = Rp.space.field.p
            assert {lead: {w: c % p for w, c in row.items()}
                    for lead, row in R._ensure(n).items()} == Rp._ensure(n), (p, n)
            assert flat_derivation(R, lambda x: x % p) == flat_derivation(Rp), (p, n)
    if not name.startswith("generic"):  # generic q: the tensor algebra
        assert any(R._ensure(n) for n in range(2, top + 1))


def test_diagonal_nichols_degrees_never_braid(monkeypatch):
    """A diagonal Nichols degree reads q(a, b) = q_{a b_1} q(a, b_2...) from
    the previous degree's scalars: no braid_words call and no _apply_slot.
    Every carried scalar is braid_words((a,), b)'s."""
    from lynhopf import freealg, nichols
    calls = []
    braid_words = BraidedSpace.braid_words

    def counted(self, u, v, inverse=False):
        calls.append((u, v))
        return braid_words(self, u, v, inverse)

    def never(*args):
        raise AssertionError("_apply_slot called on a diagonal space")

    monkeypatch.setattr(BraidedSpace, "braid_words", counted)
    monkeypatch.setattr(freealg, "_apply_slot", never)
    monkeypatch.setattr(nichols, "_apply_slot", never)
    for sp in (space_from_preset("cartan-A2"),
               random_root_diagonal(3, random.Random(71))):
        R = GradedQuotient(sp, "nichols", 6)
        for n in range(2, 7):
            calls.clear()
            R.dim(n)
            assert calls == [], n
            scalars = R._derivation[2]
            assert len(scalars) == sp.dim * R.dim(n - 1)
            for w, s in scalars.items():
                assert braid_words(sp, w[:1], w[1:]) == {(w[1:], w[:1]): s}, w


def test_presented_matches_nichols_for_quantum_plane(qp_nichols):
    sp = qp_nichols.space
    f = sp.field
    rels = (sp.element({(1, 1): f.one}),
            sp.element({(2, 2): f.one}),
            sp.element({(1, 2): f.one, (2, 1): f.neg(f.one)}))
    R = GradedQuotient(sp, "presented", 4, relations=rels)
    assert R.hilbert_series() == qp_nichols.hilbert_series()


def test_presented_rejects_non_coideal():
    sp = space_from_preset("cartan-A2")
    with pytest.raises(ValueError, match="degree 2"):
        GradedQuotient(sp, "presented", 3,
                       relations=(sp.element({(1, 2): sp.field.one}),))


def random_presented(seed):
    """Up to three Nichols relation rows of degree 2..4 of a sixth-root space,
    about a third of them perturbed by one random word."""
    rng = random.Random(seed)
    d = rng.choice((2, 2, 3))
    sp = random_root_diagonal(d, rng)
    pool = [row for n in range(2, (4 if d == 2 else 3) + 1)
            for row in symmetrizer_pivots(sp, n).values()]
    rels = []
    for row in rng.sample(pool, min(len(pool), rng.randint(1, 3))):
        row = dict(row)
        if rng.random() < 0.3:
            w = tuple(rng.randint(1, d) for _ in range(len(min(row))))
            row[w] = (row.get(w, 0) + rng.randint(1, 10)) % sp.field.p
            row = {k: v for k, v in row.items() if v}
        if row:
            rels.append(TensorElement(sp, row))
    return sp, rels, 7 if d == 2 else 5


def outcome(build):
    try:
        return build(), None
    except ValueError as exc:
        return None, str(exc)


def test_presented_matches_product_walk_and_span_oracles():
    seen = {}
    for seed in range(60):
        sp, rels, trunc = random_presented(seed)
        R, err = outcome(lambda: GradedQuotient(sp, "presented", trunc,
                                                relations=rels))
        expected, oracle_err = outcome(lambda: oracle_presented(sp, rels, trunc))
        assert err == oracle_err, seed
        seen[err] = seen.get(err, 0) + 1
        if err is not None:
            # the degrees below the failing one still build, and agree
            trunc = int(err.rsplit(" ", 1)[1]) - 1
            R = GradedQuotient(sp, "presented", trunc, relations=rels)
            expected = oracle_presented(sp, rels, trunc)
        fld = sp.field
        for n in range(1, trunc + 1):
            oracle = expected[n]
            # the full pivot map, through the public API
            assert R.graded_data(n).relation_leads == tuple(sorted(oracle))
            for w, row in oracle.items():
                nf = R.project_terms({w: fld.one}, n)
                assert fld.axpy({w: fld.one}, nf, fld.neg(fld.one)) == row, (seed, w)
            # the stored rows are the ones whose leads are words a.b
            standard = set(R.basis(n - 1))
            assert R._ensure(n) == {w: row for w, row in oracle.items()
                                    if w[1:] in standard}, (seed, n)
    # the seeds cover coideals and failures at degrees 2, 3 and 4
    assert set(seen) == {None} | {
        f"relations do not generate a coideal at degree {n}" for n in (2, 3, 4)}
    assert min(seen.values()) >= 3


@pytest.mark.parametrize("preset", ["quantum-plane", "quantum-plane(rationals=1)"])
@pytest.mark.parametrize("terms,degree", [
    ({(1, 1, 1): 1}, 3),
    ({(1, 1, 2): 1}, 3),
    ({(1, 2, 1, 2): 1, (2, 1, 2, 1): 1}, 4),
], ids=["x1^3", "x1x1x2", "x1x2x1x2+x2x1x2x1"])
def test_presented_rejects_non_coideal_at_higher_degree(preset, terms, degree):
    sp = space_from_preset(preset)
    rels = (sp.element({w: sp.field.from_int(c) for w, c in terms.items()}),)
    message = f"relations do not generate a coideal at degree {degree}"
    with pytest.raises(ValueError) as exc:
        GradedQuotient(sp, "presented", degree + 1, relations=rels)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        oracle_presented(sp, rels, degree + 1)
    assert str(exc.value) == message
    R = GradedQuotient(sp, "presented", degree - 1, relations=rels)
    assert R.hilbert_series().coeffs == tuple(2 ** n for n in range(degree))


def test_presented_cap_raises_in_constructor():
    sp = space_from_preset("quantum-plane")
    rels = (sp.element({(1, 1): sp.field.one}),)  # primitive, since q11 = -1
    with pytest.raises(MatrixCapExceeded, match="128"):
        GradedQuotient(sp, "presented", 8, relations=rels, cap=100)


def test_presented_degree_is_one_elimination(monkeypatch):
    from lynhopf import linalg, nichols
    rref_calls, spans = [], []
    counted_rref = linalg.rref

    def counting(field, rows):
        rref_calls.append(field)
        return counted_rref(field, rows)

    class CountingEliminator(Eliminator):
        def __init__(self, field):
            spans.append(field)
            super().__init__(field)

    monkeypatch.setattr(linalg, "rref", counting)
    monkeypatch.setattr(nichols, "rref", counting)
    monkeypatch.setattr(nichols, "Eliminator", CountingEliminator)
    sp = space_from_preset("quantum-plane(q=3)")
    f = sp.field
    rel = sp.element({(1, 2): f.one, (2, 1): f.neg(f.one)})
    R = GradedQuotient(sp, "presented", 6, relations=(rel,))
    assert R.hilbert_series().coeffs == (1, 2, 3, 4, 5, 6, 7)
    assert len(rref_calls) == 5  # degrees 2..6, one rref each
    assert spans == []


def test_hilbert_series_function(qp_nichols):
    assert qp_nichols.hilbert_series(3).coeffs == (1, 2, 1, 0)


# ----------------------------------------------------------------- PBW data

def test_pbw_quantum_plane(qp_nichols):
    data = pbw_data(qp_nichols)
    assert data.generators == (PBWGenerator((1,), 2), PBWGenerator((2,), 2))
    assert pbw_series(data) == qp_nichols.hilbert_series()


def test_pbw_cartan_generic(cartan_generic):
    data = pbw_data(cartan_generic)
    assert [g.word for g in data.generators] == [(1,), (1, 2), (2,)]
    assert all(g.height is None for g in data.generators)
    assert pbw_series(data) == cartan_generic.hilbert_series()


def test_pbw_cartan_order_three(cartan_three):
    data = pbw_data(cartan_three)
    assert [g.word for g in data.generators] == [(1,), (1, 2), (2,)]
    assert all(g.height == 3 for g in data.generators)
    assert pbw_series(data) == cartan_three.hilbert_series()


def test_pbw_free_counts(field):
    sp = random_diagonal(field, 2, random.Random(221))
    R = GradedQuotient(sp, "free", 4)
    data = pbw_data(R)
    per_len = {}
    for g in data.generators:
        assert g.height is None
        per_len[len(g.word)] = per_len.get(len(g.word), 0) + 1
    assert per_len == {1: 2, 2: 1, 3: 2, 4: 3}
    assert pbw_series(data) == R.hilbert_series()


def test_pbw_needs_diagonal(rack_nichols):
    with pytest.raises(NotImplementedError):
        pbw_data(rack_nichols)


def test_pbw_trunc_guard(qp_nichols):
    with pytest.raises(ValueError):
        pbw_data(qp_nichols, trunc=9)
    assert pbw_data(qp_nichols, trunc=3).trunc == 3


def test_pbw_rejects_a_dependent_word_that_is_not_a_power(monkeypatch):
    """In a restricted PBW basis (Kharchenko 1999) only a power u^h can
    depend on the lower restricted words; any other dependence is an internal
    error.  A zero image forced on [2][1] makes that word dependent."""
    from lynhopf import nichols
    image = nichols._image

    def broken(R, sw, cw, m):
        return {} if sw == ((2,), (1,)) else image(R, sw, cw, m)

    monkeypatch.setattr(nichols, "_image", broken)
    R = GradedQuotient(space_from_preset("quantum-plane"), "nichols", 4)
    with pytest.raises(RuntimeError, match=r"degree 2: \(\(2,\), \(1,\)\) is "
                                           r"dependent but not a power"):
        pbw_data(R)


def standard_lyndon_heights(R):
    """Counter of (|u|, k) over the Lyndon words u that are standard (in
    R.basis(|u|)), with k the least k >= 2, k|u| <= trunc, such that u^k is
    not standard, or None if there is no such k."""
    out = Counter()
    for u in words.enumerate_lyndon(R.space.dim, R.trunc):
        if u in R.basis(len(u)):
            out[len(u), next((k for k in range(2, R.trunc // len(u) + 1)
                              if u * k not in R.basis(k * len(u))), None)] += 1
    return out


PBW_COUNT_CASES = ("cartan-A2", "cartan-A2(order=3)", "cartan-A2(order=4)",
                   "cartan-A2(order=5)", "quantum-plane") + tuple(
    f"roots-{d}-{seed}" for d in (2, 3) for seed in range(6))


@pytest.mark.parametrize("name", PBW_COUNT_CASES)
def test_pbw_generators_counted_by_standard_lyndon_words(name):
    """The restricted PBW generators (Kharchenko 1999) counted by degree and
    height are the standard Lyndon words (Lalonde-Ram 1995), each with the
    least k such that u^k is not standard.  The scan may pick other words,
    so only the counts are compared."""
    if name.startswith("roots-"):
        _, d, seed = name.split("-")
        sp = random_root_diagonal(int(d), random.Random(5000 + int(seed)))
        trunc = 8 if d == "2" else 6
    else:
        sp, trunc = space_from_preset(name), 10
    R = GradedQuotient(sp, "nichols", trunc)
    counts = Counter((len(g.word), g.height) for g in pbw_data(R).generators)
    assert counts == standard_lyndon_heights(R)


@pytest.mark.parametrize("preset", ["cartan-A2", "cartan-A2(rationals=1)"])
def test_generic_cartan_a2_known_answers_at_trunc_14(preset):
    """U_q^+(sl_3) at generic q (Kharchenko 1999; Lalonde-Ram 1995): the
    PBW generators are 1, 12 and 2 with no heights, their subquotient series
    are 1/(1-t), 1/(1-t^2) and 1/(1-t), and every other Lyndon word's is 1."""
    N = 14
    R = GradedQuotient(space_from_preset(preset), "nichols", N)
    assert pbw_data(R).generators == (PBWGenerator((1,), None),
                                      PBWGenerator((1, 2), None),
                                      PBWGenerator((2,), None))

    def geometric(step):
        return tuple(int(n % step == 0) for n in range(N + 1))

    rep = verify_factorization(R)
    assert rep.ok
    assert [f.word for f in rep.factors] == list(words.enumerate_lyndon(2, N))
    want = {(1,): geometric(1), (1, 2): geometric(2), (2,): geometric(1)}
    for f in rep.factors:
        assert f.series.coeffs == want.get(f.word, geometric(N + 1)), f.word
    # 1/((1-t)^2 (1-t^2)): n // 2 + 1 ways to pick the power of t^2, each
    # with n - 2k + 1 ways to split the rest between the two 1/(1-t)
    assert rep.lhs.coeffs == tuple(sum(n - 2 * k + 1 for k in range(n // 2 + 1))
                                   for n in range(N + 1))


def b2_space(fld, q):
    """B2 with q11 = q^2, q12 = q^-2, q21 = 1 and q22 = q."""
    q2 = fld.mul(q, q)
    return BraidedSpace(fld, 2, "diagonal", [[q2, fld.inv(q2)], [fld.one, q]])


@pytest.mark.parametrize("p", [10009, 10039])
@pytest.mark.parametrize("order,N,dims", [
    (3, 14, (1, 2, 4, 5, 7, 8, 9, 9, 9, 8, 7, 5, 4, 2, 1)),
    (None, 10, (1, 2, 4, 7, 11, 16, 23, 31, 41, 53, 67))], ids=["order-3", "generic"])
def test_b2_known_answers(p, order, N, dims):
    """U_q^+(so_5) (Kharchenko 1999; Lalonde-Ram 1995): one PBW generator per
    positive root, 1, 12, 122 and 2 of root heights 1, 2, 3 and 1, each with the
    height N = ord(q) at a root of unity and none for generic q; the series
    is prod over the root heights h of (1 - t^{Nh})/(1 - t^h)."""
    fld = PrimeField(p)
    q = fld.element_of_order(order) if order else fld.from_int(11)
    R = GradedQuotient(b2_space(fld, q), "nichols", N)
    assert R.hilbert_series().coeffs == dims
    closed = PowerSeries.one(N)
    for h in (1, 1, 2, 3):
        closed = closed * geometric_factor(h, N, order)
    assert R.hilbert_series() == closed
    roots = ((1,), (1, 2), (1, 2, 2), (2,))
    assert pbw_data(R).generators == tuple(PBWGenerator(u, order) for u in roots)
    rep = verify_factorization(R)
    assert rep.ok
    assert tuple(f.word for f in rep.factors if any(f.series.coeffs[1:])) == roots


def g2_space(fld, q):
    """G2 with letter 1 long: q11 = q^3, q12 = q^-3, q21 = 1 and q22 = q."""
    q3 = fld.mul(q, fld.mul(q, q))
    return BraidedSpace(fld, 2, "diagonal", [[q3, fld.inv(q3)], [fld.one, q]])


def g2_order_4_series(N):
    """prod over G2's root heights h = 1, 1, 2, 3, 4, 5 of (1 - t^{4h})/(1 - t^h)."""
    out = PowerSeries.one(N)
    for h in (1, 1, 2, 3, 4, 5):
        out = out * geometric_factor(h, N, 4)
    return out


def test_g2_at_order_4_dims_through_degree_48():
    """u_q^+(g_2) at a primitive 4th root of unity (Kharchenko 1999;
    Andruskiewitsch-Schneider 2002): one root vector of height 4 per
    positive root, so dimension 4^6 and top degree 3 * (1+1+2+3+4+5)."""
    fld = PrimeField(10009)
    R = GradedQuotient(g2_space(fld, fld.element_of_order(4)), "nichols", 48,
                       cap=2 ** 48)
    dims = R.hilbert_series()
    assert dims == g2_order_4_series(48)
    assert (sum(dims.coeffs), dims.coeffs[48], max(dims.coeffs)) == (4096, 1, 184)


@pytest.mark.parametrize("p", [10009, 10037])
def test_g2_at_order_4_pbw_data(p):
    """Six PBW generators of lengths 1, 1, 2, 3, 4 and 5, each of height 4.
    The words are not pinned: which Lyndon word of length 5 pbw_data picks
    is open (ROADMAP item 11)."""
    fld = PrimeField(p)
    R = GradedQuotient(g2_space(fld, fld.element_of_order(4)), "nichols", 20,
                       cap=2 ** 20)
    data = pbw_data(R)
    assert sorted(len(g.word) for g in data.generators) == [1, 1, 2, 3, 4, 5]
    assert {g.height for g in data.generators} == {4}
    assert pbw_series(data) == R.hilbert_series() == g2_order_4_series(20)


def s4_rack(fld):
    """The transpositions of S_4 with c(x_s ox x_t) = -x_{sts^-1} ox x_s."""
    swaps = list(itertools.combinations(range(4), 2))

    def conjugate(s, t):
        move = dict(zip(s, reversed(s)))
        return tuple(sorted(move.get(i, i) for i in t))

    dense = [[fld.zero] * 36 for _ in range(36)]
    for a, s in enumerate(swaps):
        for b, t in enumerate(swaps):
            dense[swaps.index(conjugate(s, t)) * 6 + a][a * 6 + b] = fld.neg(fld.one)
    return BraidedSpace(fld, 6, "general", dense)


@pytest.mark.parametrize("p", [10007, 10009])
def test_s4_rack_is_fomin_kirillov(monkeypatch, p):
    """The Nichols algebra of the S_4 transposition rack with constant
    cocycle -1 is FK_4 (Fomin-Kirillov 1999; Milinski-Schneider 2000): series
    [2]_t^2 [3]_t^2 [4]_t^2, dimension 576, top degree 12.  The braiding
    mixes all six letters, so the space is one block."""
    monkeypatch.setenv("LH_MAX_MATRIX", str(6 ** 13))
    sp = s4_rack(PrimeField(p))
    assert sp.component_partition() == ((1, 2, 3, 4, 5, 6),)
    dims = GradedQuotient(sp, "nichols", 13).hilbert_series().coeffs
    assert dims == (1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1, 0)
    assert sum(dims) == 576


@pytest.mark.parametrize("p,top", [(10007, 5), (10009, 4)])
def test_s4_rack_scans_match_the_symmetrizer_and_the_oracle(p, top):
    """FK_4 below the cap: its degrees are the ranks of the symmetrizers,
    and the one block's Lyndon word 1 carries the single factor, the series
    itself, as the per-word oracle finds."""
    sp = s4_rack(PrimeField(p))
    R = GradedQuotient(sp, "nichols", 5)
    assert [R.dim(n) for n in range(top + 1)] == [
        6 ** n - len(symmetrizer_pivots(sp, n)) for n in range(top + 1)]
    rep = verify_factorization(R)
    assert rep.ok
    assert [f.series.coeffs for f in rep.factors] == [(1, 6, 19, 42, 71, 96)]
    assert subquotient_series(R, (1,)).series.coeffs == oracle_subquotient(R, (1,), 5)


def rank_two_root_space(m, a, b, c):
    """q11 = z^a, q12 = z^b, q21 = 1, q22 = z^c over F_10009, z of order m."""
    fld = PrimeField(10009)
    z = fld.element_of_order(m)
    return BraidedSpace(fld, 2, "diagonal", [[pow(z, a, fld.p), pow(z, b, fld.p)],
                                             [fld.one, pow(z, c, fld.p)]])


def sweep_heights(R):
    """Counter of (|u|, h) over the nontrivial subquotient factors of the
    sweep, h the least k with coefficient 0 at degree k|u|, else None."""
    out = Counter()
    for f in verify_factorization(R).factors:
        co, k = f.series.coeffs, len(f.word)
        if any(co[1:]):
            out[k, next((h for h in range(1, R.trunc // k + 1)
                         if not co[h * k]), None)] += 1
    return out


def check_pbw_against_sweep(m, a, b, c):
    """At trunc 10, the PBW data rebuild the Hilbert series, and its
    (|u|, height) multiset is the one of the sweep's nontrivial factors."""
    R = GradedQuotient(rank_two_root_space(m, a, b, c), "nichols", 10)
    data = pbw_data(R)
    assert pbw_series(data) == R.hilbert_series()
    assert Counter((len(g.word), g.height) for g in data.generators) == sweep_heights(R)


OPEN_ITEM_11 = pytest.mark.xfail(
    strict=True, raises=RuntimeError,
    reason="ROADMAP item 11: the ascending candidate scan accepts 11122 in "
           "degree 5 where the sweep's factor is 11212")
# (m, a, b, c) of the rank-2 root spaces on which pbw_data raises in degree 8
DEGREE_8_RAISERS = ((6, 2, 1, 0), (6, 2, 1, 4), (6, 4, 5, 0), (6, 4, 5, 2))


def marked_root_space(space):
    return pytest.param(*space, marks=OPEN_ITEM_11) if space in DEGREE_8_RAISERS else space


@pytest.mark.parametrize("m,a,b,c", [
    (4, 2, 1, 0), (4, 2, 3, 0), (6, 3, 3, 1), (6, 3, 3, 5),
    *map(marked_root_space, DEGREE_8_RAISERS)])
def test_pbw_inserts_powers_after_the_other_restricted_words(m, a, b, c):
    """Rank-2 root-of-unity spaces with q21 = 1 on which a power such as
    (11222)^2 is expressed through a larger non-power of degree 10: with the
    powers inserted after the other restricted words, as the sweep does,
    every dependent word is a power (Kharchenko 1999)."""
    check_pbw_against_sweep(m, a, b, c)


# The 280 rank-2 spaces with q21 = 1 and q11, q12, q22 powers of a 4th or
# a 6th root of unity; a seeded sample of 16 (it draws one degree-8 raiser).
ROOT_FAMILY = [(m, a, b, c) for m in (4, 6)
               for a, b, c in itertools.product(range(m), repeat=3)]


@pytest.mark.parametrize("m,a,b,c", map(
    marked_root_space, random.Random(11).sample(ROOT_FAMILY, 16)))
def test_pbw_matches_the_sweep_on_sampled_rank_two_root_spaces(m, a, b, c):
    check_pbw_against_sweep(m, a, b, c)


def full_scan_pbw(R):
    """The PBW scan without the full-rank stop: in every degree each
    restricted word and each candidate is built in TV, projected and
    inserted, in pbw_data's order."""
    lyndon = words.enumerate_lyndon(R.space.dim, R.trunc)
    heights = {}
    for n in range(1, R.trunc + 1):
        caps = {u: h - 1 for u, h in heights.items() if h is not None}
        span = Eliminator(R.space.field)
        for sw in sorted(words.monotonic_superwords(heights, n, caps),
                         key=lambda sw: (sw[0] == sw[-1], sw)):
            if span.insert(bracket_image(R, sw, words.concat(sw), n)):
                continue
            if sw[0] != sw[-1]:
                raise RuntimeError(f"degree {n}: {sw} is dependent but not a power")
            heights[sw[0]] = len(sw)
        for u in lyndon:
            if len(u) == n and span.insert(bracket_image(R, (u,), u, n)):
                heights[u] = None
    return tuple(PBWGenerator(u, h) for u, h in sorted(heights.items()))


@pytest.mark.parametrize("m,a,b,c", [
    (4, 2, 1, 0), (4, 2, 3, 0), (6, 3, 3, 1), *DEGREE_8_RAISERS])
def test_full_rank_stop_keeps_results_and_errors_of_the_full_scan(m, a, b, c):
    """Stopping each degree at rank dim R_n gives the full scan's data, and
    on the item 11 raisers its RuntimeError, word for word."""
    R = GradedQuotient(rank_two_root_space(m, a, b, c), "nichols", 10)
    if (m, a, b, c) not in DEGREE_8_RAISERS:
        assert pbw_data(R).generators == full_scan_pbw(R)
        return
    with pytest.raises(RuntimeError, match="^degree 8: ") as want:
        full_scan_pbw(R)
    with pytest.raises(RuntimeError) as got:
        pbw_data(R)
    assert str(got.value) == str(want.value)


# ------------------------------------------------------- subquotient series

def test_subquotient_free_super_letter(field):
    sp = random_diagonal(field, 2, random.Random(231))
    R = GradedQuotient(sp, "free", 6)
    sq = subquotient_series(R, (1, 2))
    assert sq.series.coeffs == (1, 0, 1, 0, 1, 0, 1)


def test_subquotient_dead_letter(qp_nichols):
    assert subquotient_series(qp_nichols, (1,)).series.coeffs == (1, 1, 0, 0, 0)
    assert subquotient_series(qp_nichols, (1, 2)).series.coeffs == (1, 0, 0, 0, 0)


def test_subquotient_validation(qp_nichols):
    with pytest.raises(ValueError):
        subquotient_series(qp_nichols, (2, 1))
    with pytest.raises(ValueError):
        subquotient_series(qp_nichols, (1,), trunc=9)
    # a word longer than the truncation contributes the constant series
    R = GradedQuotient(qp_nichols.space, "nichols", 1)
    assert subquotient_series(R, (1, 2)).series.coeffs == (1, 0)


def test_subquotient_rack_single_block(rack_nichols):
    sq = subquotient_series(rack_nichols, (1,))
    assert sq.series == rack_nichols.hilbert_series()
    with pytest.raises(ValueError):
        subquotient_series(rack_nichols, (1, 2))  # block alphabet has size 1


# --------------------------------------------------------------- factorization

def test_factorization_quantum_plane(qp_nichols):
    rep = verify_factorization(qp_nichols)
    assert rep.ok and rep.lhs == rep.rhs
    assert rep.lhs == qp_nichols.hilbert_series()
    by_word = {f.word: f.series.coeffs for f in rep.factors}
    assert by_word[(1,)] == (1, 1, 0, 0, 0)
    assert by_word[(2,)] == (1, 1, 0, 0, 0)
    assert by_word[(1, 2)] == (1, 0, 0, 0, 0)


def test_factorization_cartan(cartan_generic, cartan_three):
    assert verify_factorization(cartan_generic).ok
    rep = verify_factorization(cartan_three, trunc=6)
    assert rep.ok
    by_word = {f.word: f.series.coeffs for f in rep.factors}
    assert by_word[(1,)] == (1, 1, 1, 0, 0, 0, 0)
    assert by_word[(1, 2)] == (1, 0, 1, 0, 1, 0, 0)


def test_factorization_free(field):
    sp = random_diagonal(field, 2, random.Random(241))
    R = GradedQuotient(sp, "free", 6)
    rep = verify_factorization(R)
    assert rep.ok
    assert rep.lhs.coeffs == tuple(2 ** n for n in range(7))


@pytest.mark.parametrize("fld", [PrimeField(10007), RationalField()],
                         ids=["prime", "rationals"])
def test_factorization_free_block_shapes(fld):
    # blocks (1,2) and (3,): block Lyndon words of length > 1 make the
    # bracket recursion split coordinate words along block shapes
    sp = BraidedSpace(fld, 3, "general", swap_block_matrix(fld))
    assert sp.component_partition() == ((1, 2), (3,))
    rep = verify_factorization(GradedQuotient(sp, "free", 6))
    assert rep.ok
    assert rep.lhs.coeffs == tuple(3 ** n for n in range(7))
    assert len(rep.factors) == 23
    sizes = {1: 2, 2: 1}
    for f in rep.factors:
        weight = 1
        for b in f.word:
            weight *= sizes[b]
        step = len(f.word)
        assert f.series.coeffs == tuple(
            weight ** (n // step) if n % step == 0 else 0 for n in range(7)), f.word


def test_factorization_nichols_block_shapes(field):
    sp = BraidedSpace(field, 3, "general", swap_block_matrix(field))
    assert verify_factorization(GradedQuotient(sp, "nichols", 5)).ok


def test_factorization_rack(rack_nichols):
    rep = verify_factorization(rack_nichols)
    assert rep.ok
    assert [f.word for f in rep.factors] == [(1,)]
    assert rep.factors[0].series == rack_nichols.hilbert_series()


def check_sweep_against_oracle(R):
    rep = verify_factorization(R)
    assert rep.ok
    N = R.trunc
    D = len(R.space.component_partition())
    assert [f.word for f in rep.factors] == [
        u for u in words.enumerate_lyndon(D, max(N, 1)) if len(u) <= N]
    for f in rep.factors:
        assert f.series.coeffs == oracle_subquotient(R, f.word, N), f.word
        assert subquotient_series(R, f.word) == f


@pytest.mark.parametrize("d,trunc", [(2, 7), (3, 5)])
@pytest.mark.parametrize("kind", ["free", "nichols"])
@pytest.mark.parametrize("seed", [1, 2])
def test_sweep_matches_per_word_oracle(field, d, trunc, kind, seed):
    sp = random_diagonal(field, d, random.Random(1000 * d + seed))
    check_sweep_against_oracle(GradedQuotient(sp, kind, trunc))


@pytest.mark.parametrize("d,trunc", [(2, 7), (3, 5)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_matches_per_word_oracle_roots_of_unity(d, trunc, seed):
    sp = random_root_diagonal(d, random.Random(2000 * d + seed))
    check_sweep_against_oracle(GradedQuotient(sp, "nichols", trunc))


@pytest.mark.parametrize("fld", [PrimeField(10007), RationalField()],
                         ids=["prime", "rationals"])
@pytest.mark.parametrize("kind,trunc", [("free", 5), ("nichols", 5)])
def test_sweep_matches_per_word_oracle_block_shapes(fld, kind, trunc):
    sp = BraidedSpace(fld, 3, "general", swap_block_matrix(fld))
    check_sweep_against_oracle(GradedQuotient(sp, kind, trunc))


def test_sweep_matches_per_word_oracle_rack(rack_nichols):
    check_sweep_against_oracle(rack_nichols)


def test_factorization_enumerates_once_and_multiplies_nontrivial_factors(
        monkeypatch):
    """Every degree's sweep reads one Lyndon table; equal factors share one
    series object, and each distinct nontrivial series enters the product
    exactly once, raised to the number of factors it stands for.  Here 1 and
    2 share the series of 1/(1-t), and the factors equal to 1 share one."""
    R = GradedQuotient(space_from_preset("cartan-A2"), "nichols", 10)
    tables, powers = [], []
    enumerate_lyndon, power = words.enumerate_lyndon, PowerSeries.__pow__

    def counting_enumerate(d, n):
        tables.append((d, n))
        return enumerate_lyndon(d, n)

    def counting_pow(s, k):
        powers.append((s, k))
        return power(s, k)

    monkeypatch.setattr(words, "enumerate_lyndon", counting_enumerate)
    monkeypatch.setattr(PowerSeries, "__pow__", counting_pow)
    rep = verify_factorization(R)
    assert rep.ok
    assert tables == [(2, 10)]
    one = PowerSeries.one(10)
    assert [f.word for f in rep.factors if f.series != one] == [(1,), (1, 2), (2,)]
    by_coeffs = {}
    for f in rep.factors:
        assert by_coeffs.setdefault(f.series.coeffs, f.series) is f.series
    assert len({id(f.series) for f in rep.factors}) == len(by_coeffs) == 3
    nontrivial = Counter(f.series for f in rep.factors if f.series != one)
    assert [(id(s), k) for s, k in powers] == [
        (id(by_coeffs[s.coeffs]), k) for s, k in nontrivial.items()]
    assert sorted(k for _, k in powers) == [1, 2]


def test_guarded_runs_enumerate_one_lyndon_table(monkeypatch):
    """The guard runs both primes in one pass over Z/(p1 p2), so a guarded
    pbw_data or verify_factorization enumerates one Lyndon table, and calls
    alternating between two (D, top) keys enumerate once per call."""
    tables = []
    enumerate_lyndon = words.enumerate_lyndon

    def counting_enumerate(d, n):
        tables.append((d, n))
        return enumerate_lyndon(d, n)

    monkeypatch.setattr(words, "enumerate_lyndon", counting_enumerate)
    for compute in (pbw_data, verify_factorization):
        tables.clear()
        run_guarded("cartan-A2(order=3)", 8,
                    lambda sp: compute(GradedQuotient(sp, "nichols", 8)))
        assert tables == [(2, 8)], compute
    tables.clear()
    for source, trunc in [("s3-rack", 4), ("cartan-A2", 6)] * 2:
        run_guarded(source, trunc, lambda sp: verify_factorization(
            GradedQuotient(sp, "nichols", trunc)))
    assert tables == [(1, 4), (2, 6), (1, 4), (2, 6)]


def ordered_product(factors, trunc):
    """The product of every factor series, one multiplication per factor in
    the order of the factors."""
    out = PowerSeries.one(trunc)
    for f in factors:
        out = out * f.series
    return out


@pytest.mark.parametrize("make", [
    lambda: GradedQuotient(random_diagonal(PrimeField(10007), 2,
                                           random.Random(71)), "free", 9),
    lambda: GradedQuotient(random_diagonal(PrimeField(10007), 3,
                                           random.Random(72)), "free", 6),
    lambda: GradedQuotient(space_from_preset("cartan-A2"), "nichols", 10),
    lambda: GradedQuotient(space_from_preset("cartan-A2(order=3)"), "nichols", 10),
    lambda: GradedQuotient(space_from_preset("s3-rack"), "nichols", 5),
    lambda: GradedQuotient(random_root_diagonal(2, random.Random(73)), "nichols", 8),
    lambda: GradedQuotient(random_root_diagonal(3, random.Random(74)), "nichols", 5),
    lambda: GradedQuotient(random_root_diagonal(3, random.Random(75)), "nichols", 5),
], ids=["free-d2", "free-d3", "cartan-A2", "cartan-A2-order3", "s3-rack",
        "roots-d2", "roots-d3-a", "roots-d3-b"])
def test_factorization_rhs_matches_the_ordered_product(make):
    """Grouping equal factors into powers leaves the right-hand side as the
    product of all factor series taken one by one."""
    R = make()
    rep = verify_factorization(R)
    assert rep.ok
    assert rep.rhs == ordered_product(rep.factors, R.trunc) == rep.lhs


def test_subquotient_reads_each_sweep_down_to_its_word(monkeypatch):
    """The sweep starts at the largest word, 2, so the subquotient series of
    2 asks for the image of [2]^m alone in each degree m with relations."""
    from lynhopf import nichols
    R = GradedQuotient(space_from_preset("cartan-A2"), "nichols", 8)
    shapes = []
    image = nichols._image

    def recording_image(R, sw, cw, m):
        shapes.append(sw)
        return image(R, sw, cw, m)

    monkeypatch.setattr(nichols, "_image", recording_image)
    assert subquotient_series(R, (2,)).series.coeffs == (1,) * 9
    assert [m for m in range(1, 9) if R.dim(m) == 2 ** m] == [1, 2]
    assert shapes == [((2,),) * m for m in range(3, 9)]


def test_sweep_checks_the_span_when_read_to_the_end(monkeypatch):
    """A zero image forced on [2][1] leaves R_2 of quantum-plane unspanned:
    verify_factorization reads every sweep to the end and raises, while a
    subquotient series stops at its own word, here the last one, and does
    not check."""
    from lynhopf import nichols
    image = nichols._image

    def broken(R, sw, cw, m):
        return {} if sw == ((2,), (1,)) else image(R, sw, cw, m)

    monkeypatch.setattr(nichols, "_image", broken)
    R = GradedQuotient(space_from_preset("quantum-plane"), "nichols", 4)
    assert subquotient_series(R, (1,)).series.coeffs == (1, 1, 0, 0, 0)
    with pytest.raises(RuntimeError, match=r"degree 2: the bracket words span "
                                           r"rank 0, not dim R_2 = 1"):
        verify_factorization(R)


@pytest.mark.parametrize("d,trunc", [(2, 7), (3, 5)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pbw_matches_per_candidate_oracle(field, d, trunc, seed):
    for sp in (random_diagonal(field, d, random.Random(3000 * d + seed)),
               random_root_diagonal(d, random.Random(4000 * d + seed)),
               random_rational_diagonal(d, random.Random(5000 * d + seed),
                                        roots=seed % 2 == 1)):
        for kind in ("nichols", "free"):
            R = GradedQuotient(sp, kind, trunc)
            assert pbw_data(R).generators == oracle_pbw(R)


def diagonal_at(fld, d, rng, roots):
    """A seeded diagonal space over fld: sixth roots of unity, or random
    nonzero residues."""
    if roots:
        zeta = fld.element_of_order(6)
        q = [[pow(zeta, rng.randrange(6), fld.p) for _ in range(d)] for _ in range(d)]
        return BraidedSpace(fld, d, "diagonal", q)
    return random_diagonal(fld, d, rng)


@pytest.mark.parametrize("p", [10009, 10039])
@pytest.mark.parametrize("d,trunc,seed", [(2, 7, 1), (2, 7, 2), (3, 5, 3)])
def test_full_rank_stop_matches_oracles_at_two_primes(p, d, trunc, seed):
    """The scans that stop each degree at rank dim R_n against the
    per-candidate and per-word oracles, which build every word in TV."""
    rng = random.Random(7000 * d + seed)
    for roots in (True, False):
        R = GradedQuotient(diagonal_at(PrimeField(p), d, rng, roots), "nichols", trunc)
        assert pbw_data(R).generators == oracle_pbw(R)
        check_sweep_against_oracle(R)


def b2_rational():
    """B2 at q = 2 over Q: q11 = q^2, q22 = q, q12 q21 = q^-2.  Its Serre
    relations have degrees 3 and 4."""
    return BraidedSpace(RationalField(), 2, "diagonal",
                        [[Fraction(4), Fraction(1, 4)], [Fraction(1), Fraction(2)]])


def named_diagonal(name):
    """A preset, B2 at q = 2 over Q ("B2-q"), or a seeded space: sixth
    roots of unity over F_10009 ("roots-d-seed") or +-1 over Q
    ("rational-roots-d-seed")."""
    if name == "B2-q":
        return b2_rational()
    if name.startswith("rational-roots-"):
        d, seed = map(int, name.split("-")[2:])
        return random_rational_diagonal(d, random.Random(seed), roots=True)
    if name.startswith("roots-"):
        d, seed = map(int, name.split("-")[1:])
        return random_root_diagonal(d, random.Random(6000 * d + seed))
    return space_from_preset(name)


DEGREE_THREE_CASES = ("cartan-A2", "cartan-A2(rationals=1)", "cartan-A2(order=3)",
                      "cartan-A2(order=4)", "B2-q", "roots-2-0", "roots-2-2",
                      "roots-3-3", "roots-3-7")


@pytest.mark.parametrize("name", DEGREE_THREE_CASES)
def test_pbw_and_sweep_match_oracles_on_quotients_free_through_degree_two(name):
    """The quotient by the degree-3 Nichols relations of a space that has
    none in degree 2: they are primitive, so they generate a coideal, and
    degrees 1 and 2 have no relations while degree 3 has some."""
    sp = named_diagonal(name)
    trunc = 7 if sp.dim == 2 else 5
    assert not symmetrizer_pivots(sp, 2)
    rels = [TensorElement(sp, dict(row)) for row in symmetrizer_pivots(sp, 3).values()]
    R = GradedQuotient(sp, "presented", trunc, relations=rels)
    assert [R.dim(m) == sp.dim ** m for m in (1, 2, 3)] == [True, True, False]
    assert pbw_data(R).generators == oracle_pbw(R)
    check_sweep_against_oracle(R)


IMAGE_CASES = ("cartan-A2(order=3)", "cartan-A2(rationals=1)", "quantum-plane",
               "B2-q", "roots-2-1", "roots-2-5", "roots-3-2", "rational-roots-2-3")


@pytest.mark.parametrize("name", IMAGE_CASES)
def test_images_in_r_match_projected_tv_bracket_words(name):
    """Every monotonic bracket word's image computed inside R (products of
    the letters' images) equals the projection of the word built in TV."""
    from lynhopf import nichols
    sp = named_diagonal(name)
    trunc = 6 if sp.dim == 2 else 4
    R = GradedQuotient(sp, "nichols", trunc)
    lyndon = words.enumerate_lyndon(sp.dim, trunc)
    for m in range(1, trunc + 1):
        for sw in words.monotonic_superwords(lyndon, m):
            cw = words.concat(sw)
            assert nichols._image(R, sw, cw, m) == bracket_image(R, sw, cw, m), sw
    assert any(not v for cw, v in R._images.items() if words.is_lyndon(cw))


def test_suffix_images_are_fresh_and_match_tv_bracket_words():
    """Every sweep row of cartan-A2(order=3) through degree 10, imaged by
    suffix, equals the projected TV bracket word, also when asked again after
    the caller consumed the first copy."""
    R = GradedQuotient(space_from_preset("cartan-A2(order=3)"), "nichols", 10)
    live = [u for u in words.enumerate_lyndon(2, 10)
            if R.project_terms(_bracket_value(R.space, u, u, "left"), len(u))]
    rows = 0
    for m in range(1, 11):
        for sw in words.monotonic_superwords(live, m):
            cw = words.concat(sw)
            want = bracket_image(R, sw, cw, m)
            got = nichols._image(R, sw, cw, m)
            assert got == want, sw
            got.clear()
            assert nichols._image(R, sw, cw, m) == want, sw
            rows += 1
    assert rows > 30 and R._images


DIAGONAL_PRESETS = ("quantum-plane", "quantum-plane(order=3)", "cartan-A2",
                    "cartan-A2(order=3)", "cartan-A2(order=4)",
                    "cartan-A2(rationals=1)")


@pytest.mark.parametrize("preset", DIAGONAL_PRESETS)
@pytest.mark.parametrize("kind", ["nichols", "free"])
def test_diagonal_scans_build_no_bracket_word_in_tv(monkeypatch, preset, kind):
    """Over a diagonal braiding the PBW scan and the factorization sweep
    work inside R; the TV bracket recursion stays with the oracles."""
    from lynhopf import nichols

    def never(*args):
        raise AssertionError("a bracket was built in TV")

    monkeypatch.setattr(nichols, "_block_bracket", never)
    monkeypatch.setattr(nichols, "_block_bracket_word", never)
    R = GradedQuotient(space_from_preset(preset), kind, 6)
    assert pbw_data(R).generators == oracle_pbw(R)
    check_sweep_against_oracle(R)


@pytest.mark.parametrize("name,kind,trunc", [
    ("s3-rack", "nichols", 7), ("s3-rack", "free", 7), ("s4-rack", "nichols", 5),
    ("swap-block", "nichols", 5)])
def test_block_scans_build_no_bracket_word_in_tv(monkeypatch, name, kind, trunc):
    """Over a block braiding the sweep images bracket words as products in R
    of its letters' images too (swap-block has letters of length > 1, whose
    brackets are built in TV); the TV bracket words stay with the oracle."""
    from lynhopf import nichols

    def never(*args):
        raise AssertionError("a bracket word was built in TV")

    monkeypatch.setattr(nichols, "_block_bracket_word", never)
    fld = PrimeField(10007)
    sp = {"s3-rack": lambda: space_from_preset(name),
          "s4-rack": lambda: s4_rack(fld),
          "swap-block": lambda: BraidedSpace(fld, 3, "general",
                                             swap_block_matrix(fld))}[name]()
    check_sweep_against_oracle(GradedQuotient(sp, kind, trunc))


def test_pbw_matches_per_candidate_oracle_presets(qp_nichols, cartan_three):
    for R in (qp_nichols, cartan_three):
        assert pbw_data(R).generators == oracle_pbw(R)
    assert pbw_data(cartan_three).generators == (
        PBWGenerator((1,), 3), PBWGenerator((1, 2), 3), PBWGenerator((2,), 3))


def test_pbw_and_sweep_match_oracles_on_presented_quotient(qp_nichols):
    # x1^2 = -x2^2: the height of 2 comes from a dependency on a lower word,
    # not from a power that vanishes, so the scan order matters here
    sp = qp_nichols.space
    f = sp.field
    rel = sp.element({(1, 1): f.one, (2, 2): f.one})
    R = GradedQuotient(sp, "presented", 6, relations=(rel,))
    assert pbw_data(R).generators == oracle_pbw(R) == (
        PBWGenerator((1,), None), PBWGenerator((1, 2), None),
        PBWGenerator((2,), 2))
    check_sweep_against_oracle(R)


def images_until_full_rank(R, live, m):
    """How many images the degree-m sweep computes: the monotonic super-words
    over `live` by last factor, descending, a power after the other words
    with its last factor, each group descending; each row filled with its
    coordinate words in order (one, the concatenation, over a diagonal
    braiding).  Counted per word until the images, built in TV, span R_m."""
    part = R.space.component_partition()
    span = Eliminator(R.space.field)
    count = 0
    for sw in sorted(words.monotonic_superwords(live, m),
                     key=lambda sw: (sw[-1], sw[0] != sw[-1], sw), reverse=True):
        for cw in itertools.product(*(part[b - 1] for b in words.concat(sw))):
            if span.rank == R.dim(m):
                return count
            span.insert(bracket_image(R, sw, cw, m))
            count += 1
    assert span.rank == R.dim(m)
    return count


@pytest.mark.parametrize("preset,trunc,zero", [
    ("cartan-A2(order=3)", 10, [9, 10]),
    ("s3-rack", 7, [5, 6, 7]),
    ("cartan-A2", 8, []),
])
def test_sweep_builds_no_bracket_word_where_the_degree_is_zero(
        monkeypatch, preset, trunc, zero):
    """A degree with R_m = 0 builds nothing, and no braiding builds a TV
    bracket word.  Block braidings image one row per coordinate word in
    every other degree, only until the images span R_m.  Diagonal ones
    compute no image in a degree without relations either, and elsewhere
    image the monotonic super-words over the live letters (the Lyndon words
    whose bracket is nonzero in R) in the sweep's order only until their
    images span R_m."""
    from lynhopf import nichols
    R = GradedQuotient(space_from_preset(preset), "nichols", trunc)
    assert [m for m in range(trunc + 1) if R.dim(m) == 0] == zero
    free = [1] if preset == "s3-rack" else [1, 2]  # degrees with no relations
    d = R.space.dim
    assert [m for m in range(1, trunc + 1) if R.dim(m) == d ** m] == free
    built, imaged = [], []
    block_bracket_word, image = nichols._block_bracket_word, nichols._image

    def counting_tv(space, sw, cw, flavor):
        built.append(words.superword_degree(sw))
        return block_bracket_word(space, sw, cw, flavor)

    def counting_image(R, sw, cw, m):
        imaged.append(m)
        return image(R, sw, cw, m)

    monkeypatch.setattr(nichols, "_block_bracket_word", counting_tv)
    monkeypatch.setattr(nichols, "_image", counting_image)
    rep = verify_factorization(R)
    assert rep.ok and built == []
    if R.space.is_diagonal:
        live = [u for u in words.enumerate_lyndon(R.space.dim, trunc)
                if R.project_terms(_bracket_value(R.space, u, u, "left"), len(u))]
        assert Counter(imaged) == {
            m: images_until_full_rank(R, live, m)
            for m in range(1, trunc + 1) if R.dim(m) and m not in free}
        assert all(R.dim(len(cw)) for cw in R._images if words.is_lyndon(cw))
    else:
        live = words.enumerate_lyndon(len(R.space.component_partition()), trunc)
        assert Counter(imaged) == {
            m: images_until_full_rank(R, live, m)
            for m in range(1, trunc + 1) if R.dim(m)}
    seen = set(imaged)
    imaged.clear()
    assert [subquotient_series(R, f.word) for f in rep.factors] == list(rep.factors)
    assert imaged and set(imaged) <= seen
    assert built == []
    monkeypatch.undo()
    for f in rep.factors:
        assert f.series.coeffs == oracle_subquotient(R, f.word, trunc), f.word


# -------------------------------------------------------------- nonnegativity

def test_nonneg_quantum_plane(qp_nichols):
    rep = nonneg_quotient_check(qp_nichols, (1,))
    assert rep.ok
    assert rep.rank_one.coeffs == (1, 1, 0, 0, 0)
    assert rep.quotient == PowerSeries.one(4)
    dead = nonneg_quotient_check(qp_nichols, (1, 2))
    assert dead.ok
    assert dead.factor == dead.rank_one == dead.quotient == PowerSeries.one(4)


def test_nonneg_cartan_order_three(cartan_three):
    rep = nonneg_quotient_check(cartan_three, (1,), trunc=6)
    assert rep.ok
    assert rep.rank_one.coeffs == (1, 1, 1, 0, 0, 0, 0)
    assert rep.quotient == PowerSeries.one(6)


def test_nonneg_char_three_boson():
    sp = BraidedSpace(PrimeField(3), 1, "diagonal", [[1]])
    R = GradedQuotient(sp, "nichols", 5)
    assert R.hilbert_series().coeffs == (1, 1, 1, 0, 0, 0)
    rep = nonneg_quotient_check(R, (1,))
    assert rep.ok
    assert rep.rank_one.coeffs == (1, 1, 1, 0, 0, 0)


def test_nonneg_rational_boson():
    sp = BraidedSpace(RationalField(), 1, "diagonal", [[1]])
    R = GradedQuotient(sp, "nichols", 4)
    rep = nonneg_quotient_check(R, (1,))
    assert rep.ok
    assert rep.factor.coeffs == (1,) * 5
    assert rep.rank_one.coeffs == (1,) * 5


def test_nonneg_needs_diagonal(rack_nichols):
    with pytest.raises(NotImplementedError):
        nonneg_quotient_check(rack_nichols, (1,))


# ---------------------------------------------------------------- cap and guard

def test_matrix_cap_env(monkeypatch, field):
    sp = random_diagonal(field, 2, random.Random(251))
    monkeypatch.setenv("LH_MAX_MATRIX", "10")
    R = GradedQuotient(sp, "nichols", 6)
    assert R.dim(3) == 8  # 8 rows, under the cap
    with pytest.raises(MatrixCapExceeded, match="16"):
        R.dim(4)
    monkeypatch.setenv("LH_MAX_MATRIX", "abc")
    with pytest.raises(ValueError):
        R.dim(4)
    monkeypatch.setenv("LH_MAX_MATRIX", "0")
    with pytest.raises(ValueError):
        R.dim(4)


def test_matrix_cap_argument_is_checked_at_construction(monkeypatch, field):
    """cap is None or an int >= 1 (bools excluded), like LH_MAX_MATRIX."""
    sp = random_diagonal(field, 2, random.Random(261))
    for cap in (True, False, 0, -5, 2.5, "100", 10.0):
        with pytest.raises(ValueError, match="cap must be a positive integer or None"):
            GradedQuotient(sp, "nichols", 4, cap=cap)
    for cap in (None, 1, 10 ** 30):
        assert GradedQuotient(sp, "free", 4, cap=cap).cap == cap
    # the environment is still read in each degree when cap is None
    R = GradedQuotient(sp, "nichols", 4)
    monkeypatch.setenv("LH_MAX_MATRIX", "4")
    with pytest.raises(MatrixCapExceeded, match="above the bound 4"):
        R.dim(3)


def test_matrix_cap_argument(field):
    sp = random_diagonal(field, 2, random.Random(261))
    R = GradedQuotient(sp, "nichols", 6, cap=10)
    with pytest.raises(MatrixCapExceeded):
        R.hilbert_series()
    # the free kind has no relations to build, but its scans walk all words
    free = GradedQuotient(sp, "free", 8, cap=100)
    with pytest.raises(MatrixCapExceeded, match="128"):
        pbw_data(free)
    with pytest.raises(MatrixCapExceeded, match="128"):
        free.basis(7)
    with pytest.raises(MatrixCapExceeded, match="128"):
        verify_factorization(free)
    with pytest.raises(MatrixCapExceeded, match="128"):
        subquotient_series(free, (1,))


@pytest.mark.parametrize("entry,message", [
    (lambda R: subquotient_series(R, (1, 2)), "degree 8 needs 256 rows"),
    (verify_factorization, "degree 7 needs 128 rows"),
    (pbw_data, "degree 7 needs 128 rows"),
], ids=["subquotient_series", "verify_factorization", "pbw_data"])
def test_cap_comes_before_the_lyndon_table(field, monkeypatch, entry, message):
    """The first degree over the cap (for a subquotient, the first multiple
    of |u|) raises before any Lyndon word is enumerated, so a truncation far
    above the cap costs no long enumeration."""
    sp = random_diagonal(field, 2, random.Random(261))
    tables = []
    monkeypatch.setattr(words, "enumerate_lyndon", lambda *a: tables.append(a))
    with pytest.raises(MatrixCapExceeded, match=message):
        entry(GradedQuotient(sp, "free", 40, cap=100))
    assert tables == []


def test_nichols_rows_refuse_a_skipped_degree():
    """D_n is built from D_{n-1} alone, so building degree 3 right after
    degree 1 is refused rather than giving a wrong kernel."""
    R = GradedQuotient(space_from_preset("cartan-A2"), "nichols", 4)
    with pytest.raises(AssertionError, match="degree 3 built after degree 1"):
        R._nichols_rows(3)
    fresh = GradedQuotient(space_from_preset("cartan-A2"), "nichols", 4)
    assert R.hilbert_series() == fresh.hilbert_series()


DEGREE_ENTRY_POINTS = {
    "dim": lambda R, n: R.dim(n),
    "basis": lambda R, n: R.basis(n),
    "graded_data": lambda R, n: R.graded_data(n),
    "project_terms": lambda R, n: R.project_terms({}, n),
    "hilbert_series": lambda R, n: R.hilbert_series(n),
    "pbw_data": lambda R, n: pbw_data(R, n),
    "subquotient_series": lambda R, n: subquotient_series(R, (1,), n),
    "verify_factorization": lambda R, n: verify_factorization(R, n),
    "nonneg_quotient_check": lambda R, n: nonneg_quotient_check(R, (1,), n),
}


@pytest.mark.parametrize("entry", DEGREE_ENTRY_POINTS)
def test_degree_arguments_outside_the_truncation(entry):
    call = DEGREE_ENTRY_POINTS[entry]
    sp = space_from_preset("quantum-plane")
    rel = sp.element({(1, 1): sp.field.one})
    for R in (GradedQuotient(sp, "free", 4), GradedQuotient(sp, "nichols", 4),
              GradedQuotient(sp, "presented", 4, relations=(rel,))):
        for n in (-1, -2):
            with pytest.raises(ValueError) as exc:
                call(R, n)
            assert str(exc.value) == "degree must be nonnegative", (R.kind, n)
        with pytest.raises(ValueError) as exc:
            call(R, 5)
        assert str(exc.value) == "degree 5 exceeds truncation 4", R.kind
        for n in (True, False, 2.0):
            with pytest.raises(ValueError) as exc:
                call(R, n)
            assert str(exc.value) == f"degree must be an integer, got {n!r}", (
                R.kind, n)
        call(R, 4)


def test_run_guarded_agreement():
    series = run_guarded(
        "quantum-plane", 4,
        lambda sp: GradedQuotient(sp, "nichols", 4).hilbert_series())
    assert series.coeffs == (1, 2, 1, 0, 0)


def test_run_guarded_rationals_run_once():
    calls = []

    def compute(sp):
        calls.append(sp.field.char)
        return "done"

    assert run_guarded("quantum-plane(rationals=1)", 3, compute) == "done"
    assert calls == [0]


def test_run_guarded_prime_handling():
    with pytest.raises(ValueError):
        run_guarded("quantum-plane", 3, lambda sp: 0,
                    prime=10007, second_prime=10007)
    assert run_guarded("quantum-plane", 3, lambda sp: 7,
                       prime=13, second_prime=17) == 7
    with pytest.raises(BadPrimeError):
        run_guarded("quantum-plane", 3, lambda sp: sp.field.p)


def test_run_guarded_frees_the_first_space_before_the_second_run():
    """Nothing in a space's cache points back at it, so no cycle keeps the
    first prime's space alive: refcounting frees it before the second run.
    compute reads the characteristic, which the guard ring cannot give, so
    the guard falls back to one run per prime."""
    refs, alive = [], []

    def compute(sp):
        sp.field.char  # splits over the guard ring
        if refs:
            alive.append(refs[0]() is not None)
        refs.append(weakref.ref(sp))
        return pbw_data(GradedQuotient(sp, "nichols", 6))

    enabled = gc.isenabled()
    gc.disable()
    try:
        data = run_guarded("cartan-A2(order=3)", 6, compute)
    finally:
        if enabled:
            gc.enable()
    assert [g.height for g in data.generators] == [3, 3, 3]
    assert alive == [False]


def test_run_guarded_frees_the_first_quotient_and_its_images():
    """The quotient's memos (normal forms, bracket images in R) hold plain
    dicts, so with the collector off the first prime's quotient and space
    are freed by refcounting before the second run starts.  Reading the
    characteristic makes the guard fall back to one run per prime."""
    refs, alive = [], []

    def compute(sp):
        sp.field.char  # splits over the guard ring
        if refs:
            alive.append([ref() is not None for ref in refs[-1]])
        R = GradedQuotient(sp, "nichols", 8)
        result = pbw_data(R), verify_factorization(R)
        assert any(words.is_lyndon(cw) for cw in R._images) and R._nf
        refs.append((weakref.ref(sp), weakref.ref(R)))
        return result

    enabled = gc.isenabled()
    gc.disable()
    try:
        data, rep = run_guarded("cartan-A2(order=3)", 8, compute)
    finally:
        if enabled:
            gc.enable()
    assert [g.height for g in data.generators] == [3, 3, 3] and rep.ok
    assert alive == [[False, False]]
