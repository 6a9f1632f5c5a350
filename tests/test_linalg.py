"""Sparse elimination checked against dense Gaussian elimination on Fractions
and against the two-pass elimination it replaced."""

import random
from fractions import Fraction

import pytest

from lynhopf.freealg import space_from_preset
from lynhopf.linalg import Eliminator, kernel, reduce_mod, rref
from lynhopf.nichols import symmetrizer
from lynhopf.scalars import PairField, PrimeField, PrimeSplit, RationalField

from conftest import random_diagonal

FIELDS = (PrimeField(10007), PrimeField(3), RationalField())


# ---------------------------------------------------- the replaced (oracle) paths

def oracle_rref(field, rows) -> dict:
    """rref with the old back-substitution over all pairs of pivots."""
    elim = Eliminator(field)
    for r in rows:
        elim.insert(dict(r))
    pivots = elim.pivots
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for other_lead, other_row in pivots.items():
            if other_lead >= lead:
                continue
            factor = other_row.get(lead)
            if factor is not None:
                field.axpy(other_row, row, -factor)
    return pivots


def oracle_kernel_list(field, columns: dict) -> list:
    """The old kernel: one unreduced vector per free column of an ascending rref."""
    rows: dict = {}
    for ck in sorted(columns):
        for rk, v in columns[ck].items():
            if v != field.zero:
                rows.setdefault(rk, {})[ck] = v
    pivot_map = oracle_rref(field, (rows[rk] for rk in sorted(rows)))
    out = []
    for ck in sorted(columns):
        if ck in pivot_map:
            continue
        vec = {ck: field.one}
        for lead, row in pivot_map.items():
            val = row.get(ck)
            if val is not None and val != field.zero:
                vec[lead] = field.neg(val)
        out.append(vec)
    return out


def oracle_kernel(field, columns: dict) -> dict:
    """The old two-pass kernel: rref of the old kernel list."""
    return oracle_rref(field, oracle_kernel_list(field, columns))


def random_columns(rng, field, nrows, ncols, density=0.4):
    """Sparse columns of a random matrix; some rows and columns stay empty."""
    dense = random_sparse_rows(rng, nrows, ncols, density)
    return {j: {i: field.from_int(dense[i][j]) for i in range(nrows)
                if field.from_int(dense[i][j]) != field.zero}
            for j in range(ncols)}


def assert_reduced_kernel(field, basis: dict):
    """Each key is its vector's least key, with coefficient 1, and no other
    vector mentions it."""
    for key, vec in basis.items():
        assert min(vec) == key and vec[key] == field.one
        assert all(key not in other for k, other in basis.items() if k != key)


def dense_rank(rows, ncols):
    """Row rank by dense fraction elimination."""
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def random_sparse_rows(rng, nrows, ncols, density=0.4, modulus=None):
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for j in range(ncols):
            if rng.random() < density:
                row[j] = rng.randrange(1, modulus or 20) * rng.choice((1, -1))
        rows.append(row)
    return rows


def as_sparse(field, row):
    out = {}
    for j, x in enumerate(row):
        v = field.from_int(x)
        if v != field.zero:
            out[j] = v
    return out


def test_eliminator_rank_matches_dense():
    rng = random.Random(11)
    for field in (PrimeField(10007), RationalField()):
        for _ in range(40):
            nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
            rows = random_sparse_rows(rng, nrows, ncols)
            elim = Eliminator(field)
            grew = sum(bool(elim.insert(as_sparse(field, r))) for r in rows)
            assert elim.rank == grew == dense_rank(rows, ncols)


def test_insert_consumes_and_contains():
    f = PrimeField(10007)
    elim = Eliminator(f)
    v = {0: f.one, 1: f.from_int(2)}
    assert elim.insert(dict(v))
    assert not elim.insert(dict(v))  # already in the span
    assert elim.contains(dict(v))
    assert not elim.contains({1: f.one})
    assert elim.rank == 1
    # pivot rows are unit-normalized at their lead
    w = {0: f.from_int(3), 2: f.from_int(5)}
    elim.insert(dict(w))
    for lead, row in elim.pivots.items():
        assert row[lead] == f.one
        assert min(row) == lead


def test_rref_full_reduction():
    rng = random.Random(13)
    f = PrimeField(10007)
    for _ in range(30):
        rows = random_sparse_rows(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        pivots = rref(f, (as_sparse(f, r) for r in rows))
        leads = set(pivots)
        for lead, row in pivots.items():
            assert row[lead] == f.one
            # fully reduced: no other pivot key appears in this row
            assert all(k == lead or k not in leads for k in row)


def test_reduce_mod_idempotent_and_linear():
    rng = random.Random(17)
    f = RationalField()
    rows = random_sparse_rows(rng, 6, 8)
    pivots = rref(f, (as_sparse(f, r) for r in rows))
    for _ in range(20):
        v = as_sparse(f, random_sparse_rows(rng, 1, 8)[0])
        red = reduce_mod(f, v, pivots)
        assert reduce_mod(f, red, pivots) == red
        # residual has no support on pivot keys
        assert not set(red) & set(pivots)
        # v - red lies in the row space
        elim = Eliminator(f)
        for r in pivots.values():
            elim.insert(dict(r))
        diff = {k: f.sub(v.get(k, f.zero), red.get(k, f.zero))
                for k in set(v) | set(red)}
        diff = {k: x for k, x in diff.items() if x != f.zero}
        assert elim.contains(diff)


def test_kernel_annihilates_columns():
    rng = random.Random(19)
    for field in (PrimeField(10007), RationalField()):
        for _ in range(25):
            nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
            dense = random_sparse_rows(rng, nrows, ncols)
            columns = {}
            for j in range(ncols):
                col = {i: field.from_int(dense[i][j])
                       for i in range(nrows) if dense[i][j]}
                columns[j] = {i: v for i, v in col.items() if v != field.zero}
            basis = kernel(field, columns)
            # rank-nullity
            assert len(basis) == ncols - dense_rank(dense, ncols)
            for vec in basis.values():
                out: dict = {}
                for ck, coeff in vec.items():
                    for rk, v in columns[ck].items():
                        out[rk] = field.add(out.get(rk, field.zero),
                                            field.mul(coeff, v))
                assert all(x == field.zero for x in out.values())


def test_kernel_basis_is_independent():
    f = PrimeField(10007)
    rng = random.Random(23)
    dense = random_sparse_rows(rng, 3, 6)
    columns = {j: {i: f.from_int(dense[i][j]) for i in range(3)
                   if f.from_int(dense[i][j]) != f.zero} for j in range(6)}
    basis = kernel(f, columns)
    elim = Eliminator(f)
    for vec in basis.values():
        assert elim.insert(dict(vec))


# ------------------------------------------------ one pass against the old paths

@pytest.mark.parametrize("field", FIELDS, ids=("p10007", "p3", "rationals"))
def test_rref_matches_pairwise_back_substitution(field):
    rng = random.Random(29)
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 12), rng.randrange(1, 12)
        rows = [as_sparse(field, r) for r in random_sparse_rows(
            rng, nrows, ncols, density=rng.choice((0.2, 0.5, 0.8)))]
        assert rref(field, rows) == oracle_rref(field, rows)


@pytest.mark.parametrize("field", FIELDS, ids=("p10007", "p3", "rationals"))
def test_kernel_matches_two_pass_oracle(field):
    rng = random.Random(31)
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 12), rng.randrange(1, 12)
        columns = random_columns(rng, field, nrows, ncols,
                                 density=rng.choice((0.2, 0.5, 0.8)))
        basis = kernel(field, columns)
        assert basis == oracle_kernel(field, columns)
        assert_reduced_kernel(field, basis)


def test_kernel_of_zero_and_injective_maps():
    f = PrimeField(10007)
    zero = {j: {} for j in range(4)}
    assert kernel(f, zero) == {j: {j: f.one} for j in range(4)}
    identity = {j: {j: f.from_int(j + 2)} for j in range(4)}
    assert kernel(f, identity) == {}


SYMMETRIZER_CASES = ("cartan-A2", "s3-rack", "random-p10007", "random-p7",
                     "random-p3")


def symmetrizer_case(name):
    """(space, top degree) of one symmetrizer case.  Random q entries over
    F_7 and F_3 are roots of unity, so those kernels are not zero."""
    if name in ("cartan-A2", "s3-rack"):
        return space_from_preset(name), 7 if name == "cartan-A2" else 6
    rng = random.Random(name)
    field = PrimeField(int(name[len("random-p"):]))
    return random_diagonal(field, rng.choice((2, 3)), rng), 5


@pytest.mark.parametrize("name", SYMMETRIZER_CASES)
def test_kernel_matches_two_pass_oracle_on_symmetrizers(name):
    space, top = symmetrizer_case(name)
    field = space.field
    for n in range(2, top + 1):
        cols = symmetrizer(space, n)
        basis = kernel(field, cols)
        assert basis == oracle_kernel(field, cols), n
        assert_reduced_kernel(field, basis)


# ---------------------------------------------------- over the guard ring

def at_prime(p, vec: dict) -> dict:
    return {k: v % p for k, v in vec.items() if v % p}


def random_ring_rows(rng, ring, n_rows, n_keys):
    """Sparse rows whose entries are units of Z/(p1 p2): zero at neither
    prime, as the values stored outside elimination are."""
    units = [x for x in range(1, ring.modulus) if all(x % p for p in ring.primes)]
    return [{k: rng.choice(units) for k in rng.sample(range(n_keys),
                                                      rng.randint(1, n_keys))}
            for _ in range(n_rows)]


def test_ring_elimination_is_both_primes_or_splits():
    """rref, kernel and the Eliminator over Z/(7*11) either signal a split or
    give exactly the results over F_7 and over F_11, entry by entry."""
    rng = random.Random(2202)
    finished = split = 0
    for trial in range(400):
        ring = PairField(7, 11)
        rows = random_ring_rows(rng, ring, rng.randint(1, 5), 5)
        fields = [PrimeField(p) for p in ring.primes]
        try:
            got = rref(ring, rows)
            columns = {i: row for i, row in enumerate(rows)}
            basis = kernel(ring, columns)
            elim = Eliminator(ring)
            inserted = [elim.insert(dict(r)) for r in rows[:-1]]
            member = elim.contains(dict(rows[-1]))
        except PrimeSplit:
            assert ring.split
            split += 1
            continue
        finished += 1
        assert not ring.split
        for fld in fields:
            p = fld.p
            assert {k: at_prime(p, r) for k, r in got.items()} == rref(
                fld, [at_prime(p, r) for r in rows]), (trial, p)
            assert {k: at_prime(p, v) for k, v in basis.items()} == kernel(
                fld, {i: at_prime(p, r) for i, r in enumerate(rows)}), (trial, p)
            elim_p = Eliminator(fld)
            assert inserted == [elim_p.insert(at_prime(p, r)) for r in rows[:-1]]
            assert member == elim_p.contains(at_prime(p, rows[-1]))
            assert elim.rank == elim_p.rank
    assert finished > 100 and split > 20, (finished, split)


def test_ring_rref_and_contains_refuse_split_results():
    """Fill-in zero at one prime only may sit in working rows, but rref does
    not return it and contains does not answer on it."""
    ring = PairField(7, 11)
    # row 2 - row 1 = x1 + 7 x2: over F_7 the x2 entry vanishes
    rows = [{0: 1, 2: 1}, {0: 1, 1: 1, 2: 8}]
    assert rref(PrimeField(7), rows) == {0: {0: 1, 2: 1}, 1: {1: 1}}
    assert rref(PrimeField(11), rows) == {0: {0: 1, 2: 1}, 1: {1: 1, 2: 7}}
    with pytest.raises(PrimeSplit):
        rref(ring, rows)
    assert ring.split
    ring = PairField(7, 11)
    elim = Eliminator(ring)
    assert elim.insert({0: 1, 1: 1})
    # the residual 7 x2 is zero in F_7 only: member at 7, not at 11
    with pytest.raises(PrimeSplit):
        elim.contains({0: 1, 1: 1, 2: 7})
    assert ring.split
    ring = PairField(7, 11)
    elim = Eliminator(ring)
    elim.insert({0: 1, 1: 1})
    assert not elim.contains({0: 1, 2: 1}) and elim.contains({0: 2, 1: 2})
    # an insert whose lead is zero at one prime only signals too
    with pytest.raises(PrimeSplit):
        elim.insert({0: 1, 1: 8})
    assert ring.split


def test_ring_kernel_refuses_an_entry_zero_at_one_prime():
    """Columns filled without the split check may hold p1, zero at p1 only.
    Kept off every lead, it reaches kernel's result, and rref's final check
    is what refuses it: over F_p1 the kernel is x1, over F_p2 x1 - p1 x2."""
    p1, p2 = 10007, 10009
    columns = {"x1": {"r": p1}, "x2": {"r": 1}}
    assert kernel(PrimeField(p1), {"x1": {"r": 0}, "x2": {"r": 1}}) == {
        "x1": {"x1": 1}}
    assert kernel(PrimeField(p2), columns) == {"x1": {"x1": 1, "x2": p2 - p1}}
    ring = PairField(p1, p2)
    with pytest.raises(PrimeSplit):
        kernel(ring, columns)
    assert ring.split


def test_ring_rref_splits_only_at_a_lead_or_on_differing_results():
    """Back substitution reduces without the split check: once forward
    elimination has passed, rref over the ring splits only when the
    results over F_7 and F_11 differ in their supports."""
    rng = random.Random(2203)
    checked = 0
    for trial in range(600):
        ring = PairField(7, 11)
        rows = random_ring_rows(rng, ring, rng.randint(2, 5), 6)
        try:
            elim = Eliminator(ring)
            for r in rows:
                elim.insert(dict(r))
        except PrimeSplit:
            continue  # a lead split: the two primes eliminate differently
        supports = [{k: set(r) for k, r in rref(
            PrimeField(p), [at_prime(p, r) for r in rows]).items()}
            for p in ring.primes]
        try:
            rref(ring, rows)
        except PrimeSplit:
            assert supports[0] != supports[1], trial
            checked += 1
        else:
            assert supports[0] == supports[1], trial
    assert checked > 10, checked
