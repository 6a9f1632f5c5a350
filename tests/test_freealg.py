"""Braided spaces, tensor elements, brackets, coproduct and antipode."""

import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from lynhopf import freealg, linalg, words
from lynhopf.freealg import (PRESET_NAMES, BraidedSpace, TensorSquareElement,
                             antipode, braid_apply, bracket, bracket_element,
                             bracket_word, build_space, coproduct, counit,
                             expand_monotonic_basis, leading_vector,
                             space_from_json, space_from_preset,
                             source_requirements, validate_braiding)
from lynhopf.scalars import (PairField, PrimeField, PrimeSplit, RationalField,
                             next_prime_with, primitive_root)

from conftest import random_diagonal, swap_block_matrix


def qp_space(field, q=None):
    q = field.neg(field.one) if q is None else q
    return BraidedSpace(field, 2, "diagonal",
                        [[q, field.one], [field.one, q]])


# ---------------------------------------------------------------- validation

def test_validate_diagonal(field):
    ok = validate_braiding(field, 2, "diagonal", [[1, 2], [3, 4]])
    assert ok.ok
    bad = validate_braiding(field, 2, "diagonal", [[1, 0], [3, 4]])
    assert not bad.ok and "zero" in bad.message
    with pytest.raises(ValueError):
        BraidedSpace(field, 2, "diagonal", [[1, 0], [3, 4]])
    assert not validate_braiding(field, 2, "diagonal", [[1, 2]]).ok
    assert not validate_braiding(field, 0, "diagonal", []).ok
    assert not validate_braiding(field, 2, "upper", [[1, 2], [3, 4]]).ok


def test_validate_general(field):
    from lynhopf.freealg import _s3_rack_matrix
    assert validate_braiding(field, 3, "general", _s3_rack_matrix(field)).ok
    assert validate_braiding(field, 3, "general", swap_block_matrix(field)).ok
    # breaking one entry of the rack matrix kills the braid equation
    broken = [row[:] for row in _s3_rack_matrix(field)]
    broken[0][0] = field.one
    rep = validate_braiding(field, 3, "general", broken)
    assert not rep.ok and rep.failing_triple is not None
    # a singular matrix is rejected before the braid equation runs
    singular = [[field.zero] * 4 for _ in range(4)]
    rep = validate_braiding(field, 2, "general", singular)
    assert not rep.ok and "singular" in rep.message
    rep = validate_braiding(field, 2, "general", [[field.one] * 3] * 3)
    assert not rep.ok and "d^2 x d^2" in rep.message


def count_calls(monkeypatch, name):
    """Record the calls of freealg.<name> from now on, starting from an empty
    braiding memo."""
    calls = []
    f = getattr(freealg, name)

    def counting(*args):
        calls.append(args)
        return f(*args)

    monkeypatch.setattr(freealg, name, counting)
    freealg._validated_braiding.cache_clear()
    return calls


def test_braid_equation_checked_only_for_general_braidings(field, monkeypatch):
    """Diagonal builds never check; a general braiding is checked on its
    first build in the process and not again, per field."""
    calls = count_calls(monkeypatch, "_check_braid_equation")
    random_diagonal(field, 3, random.Random(5))
    space_from_preset("quantum-plane")
    space_from_preset("cartan-A2(order=3)")
    assert validate_braiding(field, 2, "diagonal", [[1, 2], [3, 4]]).ok
    assert calls == []
    space_from_preset("s3-rack")
    assert len(calls) == 1
    space_from_preset("s3-rack")
    assert validate_braiding(field, 3, "general",
                             freealg._s3_rack_matrix(field)).ok
    assert len(calls) == 1
    space_from_preset("s3-rack(prime=10009)")
    assert len(calls) == 2


@pytest.mark.parametrize("fld,order", [(PrimeField(10007), None),
                                       (PrimeField(10009), 6),
                                       (RationalField(), None)],
                         ids=["p10007", "p10009-sixth-roots", "rationals"])
def test_diagonal_braidings_satisfy_braid_equation(fld, order):
    """Why the diagonal branch skips the check: it can never fail there."""
    rng = random.Random(61)
    if order is None:
        entries = [fld.from_int(rng.choice((-3, -2, -1, 1, 2, 3, 7)))
                   for _ in range(12)]
    else:
        zeta = fld.element_of_order(order)
        entries = [pow(zeta, k, fld.p) for k in range(order)]
    for _ in range(20):
        dim = rng.choice((1, 2, 3))
        q = [[rng.choice(entries) for _ in range(dim)] for _ in range(dim)]
        sp = BraidedSpace(fld, dim, "diagonal", q)
        letters = range(1, dim + 1)
        cmap = {(a, b): {l + r: v for (l, r), v in sp.braid_words((a,), (b,)).items()}
                for a in letters for b in letters}
        assert freealg._check_braid_equation(fld, dim, cmap) is None


def test_space_inverts_general_braiding_once(field, monkeypatch):
    calls = count_calls(monkeypatch, "_invert_cmap")
    random_diagonal(field, 3, random.Random(5))
    space_from_preset("cartan-A2")
    assert calls == []
    sp = BraidedSpace(field, 3, "general", freealg._s3_rack_matrix(field))
    assert len(calls) == 1
    again = space_from_preset("s3-rack")
    assert len(calls) == 1 and again._cmap_inv is sp._cmap_inv
    space_from_preset("s3-rack(prime=10009)")
    assert len(calls) == 2
    # the inverse kept by the space undoes the braiding on every pair
    for ab, image in sp._cmap.items():
        back = {}
        for cd, v in image.items():
            field.axpy(back, sp._cmap_inv[cd], v)
        assert back == {ab: field.one}


def braiding_cases(fld):
    """(dim, kind, data) of valid and failing braidings over fld: s3-rack,
    the two-block swap, a broken rack, a singular matrix and random diagonal
    matrices, some with a zero entry."""
    rack = freealg._s3_rack_matrix(fld)
    broken = [row[:] for row in rack]
    broken[0][0] = fld.one
    cases = [(3, "general", rack), (3, "general", swap_block_matrix(fld)),
             (3, "general", broken),
             (2, "general", [[fld.zero] * 4 for _ in range(4)])]
    rng = random.Random(fld.char + 3)
    for _ in range(12):
        d = rng.choice((1, 2, 3))
        cases.append((d, "diagonal",
                      [[fld.from_int(rng.choice((0, -3, -1, 1, 2, 7, 10008)))
                        for _ in range(d)] for _ in range(d)]))
    return cases


@pytest.mark.parametrize("fld", [PrimeField(10007), PrimeField(10009),
                                 RationalField()],
                         ids=["p10007", "p10009", "rationals"])
def test_memoized_validation_matches_the_uncached_check(fld):
    """The memo gives the reports and maps of a fresh check, and a failing
    braiding raises on every build."""
    uncached = freealg._validated_braiding.__wrapped__
    freealg._validated_braiding.cache_clear()
    cases = braiding_cases(fld)
    assert {uncached(fld, d, kind, tuple(map(tuple, data)))[0].ok
            for d, kind, data in cases} == {True, False}
    for _ in range(2):
        for d, kind, data in cases:
            report, cmap, inv = uncached(fld, d, kind, tuple(map(tuple, data)))
            assert validate_braiding(fld, d, kind, data) == report
            if not report.ok:
                with pytest.raises(ValueError) as exc:
                    BraidedSpace(fld, d, kind, data)
                assert str(exc.value) == f"invalid braiding: {report.message}"
                continue
            sp = BraidedSpace(fld, d, kind, data)
            assert (sp._cmap, sp._cmap_inv) == (cmap, inv)
            assert sp.q == (tuple(map(tuple, data)) if kind == "diagonal"
                            else None)


def test_memoized_maps_survive_brackets_and_coproducts(field):
    """Building every s3-rack bracket up to length 5 and its coproduct
    leaves the shared slot maps as a fresh construction makes them."""
    freealg._validated_braiding.cache_clear()
    sp = space_from_preset("s3-rack")
    for u in words.enumerate_lyndon(3, 5):
        for flavor in ("left", "double"):
            coproduct(bracket(sp, u, flavor).value)
    fresh = freealg._general_cmap(field, 3, freealg._s3_rack_matrix(field))
    assert sp._cmap == fresh
    assert sp._cmap_inv == freealg._invert_cmap(field, 3, fresh)
    assert space_from_preset("s3-rack")._cmap is sp._cmap


def oracle_invert_cmap(field, dim, cmap):
    """The old inverse: rref of the augmented rows [C | I]."""
    rows = []
    pairs = [(a, b) for a in range(1, dim + 1) for b in range(1, dim + 1)]
    for rk in pairs:
        row = {(1, rk): field.one}
        for ck in pairs:
            v = cmap[ck].get(rk)
            if v is not None and v != field.zero:
                row[(0, ck)] = v
        rows.append(row)
    pivots = linalg.rref(field, rows)
    if sorted(pivots) != [(0, pk) for pk in pairs]:
        return None
    inv = {pk: {} for pk in pairs}
    for rk in pairs:
        for key, v in pivots[(0, rk)].items():
            if key[0] == 1:
                inv[key[1]][rk] = v
    return inv


@pytest.mark.parametrize("fld", [PrimeField(10007), PrimeField(3),
                                 RationalField()],
                         ids=["p10007", "p3", "rationals"])
def test_invert_cmap_matches_augmented_oracle(fld):
    from lynhopf.freealg import _general_cmap, _invert_cmap, _s3_rack_matrix
    rng = random.Random(41)
    singular = invertible = 0
    for trial in range(80):
        dim = rng.choice((1, 2, 3))
        size = dim * dim
        density = rng.choice((0.2, 0.5, 0.9))
        dense = [[fld.from_int(rng.randrange(-4, 5))
                  if rng.random() < density else fld.zero
                  for _ in range(size)] for _ in range(size)]
        if trial % 4 == 0 and size > 1:
            # a repeated column makes the matrix singular
            for row in dense:
                row[size - 1] = row[0]
        cmap = _general_cmap(fld, dim, dense)
        inv = _invert_cmap(fld, dim, cmap)
        assert inv == oracle_invert_cmap(fld, dim, cmap)
        if inv is None:
            singular += 1
            continue
        invertible += 1
        for ab, image in cmap.items():
            back = {}
            for cd, v in image.items():
                fld.axpy(back, inv[cd], v)
            assert back == {ab: fld.one}
    assert singular >= 10 and invertible >= 10
    for matrix in (_s3_rack_matrix(fld), swap_block_matrix(fld)):
        cmap = _general_cmap(fld, 3, matrix)
        assert _invert_cmap(fld, 3, cmap) == oracle_invert_cmap(fld, 3, cmap)


# ------------------------------------------------------------------ braiding

def test_braid_words_diagonal_scalars(field):
    sp = random_diagonal(field, 3, random.Random(0))
    u, v = (1, 3), (2,)
    assert sp.braid_words(u, v) == {(v, u): sp.qprod(u, v)}
    assert sp.braid_words(u, v, inverse=True) == {
        (v, u): field.inv(sp.qprod(v, u))}
    assert sp.braid_words((), v) == {(v, ()): field.one}


def test_braid_words_round_trip_general(field):
    sp = space_from_preset("s3-rack")
    rng = random.Random(3)
    fld = sp.field
    for _ in range(15):
        u = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 4)))
        v = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 4)))
        for first_inverse in (False, True):
            acc: dict = {}
            for (l, r), c in sp.braid_words(u, v, first_inverse).items():
                for key, f in sp.braid_words(l, r, not first_inverse).items():
                    val = fld.add(acc.get(key, fld.zero), fld.mul(c, f))
                    if val == fld.zero:
                        acc.pop(key, None)
                    else:
                        acc[key] = val
            assert acc == {(u, v): fld.one}


def test_general_matrix_reproduces_diagonal(field):
    rng = random.Random(4)
    diag = random_diagonal(field, 2, rng)
    dense = [[field.zero] * 4 for _ in range(4)]
    for a in (1, 2):
        for b in (1, 2):
            dense[(b - 1) * 2 + (a - 1)][(a - 1) * 2 + (b - 1)] = diag.q[a - 1][b - 1]
    gen = BraidedSpace(field, 2, "general", dense)
    assert not gen.is_diagonal
    for _ in range(20):
        u = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(0, 4)))
        v = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(0, 4)))
        for inv in (False, True):
            assert gen.braid_words(u, v, inv) == diag.braid_words(u, v, inv)


def test_braid_apply_needs_homogeneous(field):
    sp = qp_space(field)
    x = sp.generator(1)
    mixed = x + sp.unit()
    with pytest.raises(ValueError):
        braid_apply(mixed, x)
    out = braid_apply(x, sp.generator(2))
    assert out.terms == {((2,), (1,)): sp.q[0][1]}


def test_element_signs_and_errors(field):
    sp = qp_space(field)
    x = sp.generator(1) + sp.generator(2)
    assert -x == x.scale(field.neg(field.one)) and x + -x == sp.zero()
    assert bool(x) and not bool(sp.zero())
    with pytest.raises(ValueError, match="outside 1..2"):
        sp.generator(0)
    with pytest.raises(ValueError, match="different braided spaces"):
        x + qp_space(field).generator(1)
    for bad in (sp.zero(), x + sp.unit()):
        with pytest.raises(ValueError, match="zero or inhomogeneous"):
            bad.degree()


def test_qprod_requires_diagonal():
    sp = space_from_preset("s3-rack")
    with pytest.raises(ValueError):
        sp.qprod((1,), (2,))


# ------------------------------------------------------------------ brackets

def test_bracket_degree_two(field):
    sp = random_diagonal(field, 2, random.Random(8))
    q21 = sp.q[1][0]
    left = bracket(sp, (1, 2)).value
    assert left.terms == {(1, 2): field.one,
                          (2, 1): field.neg(field.inv(q21))}
    dbl = bracket(sp, (1, 2), flavor="double").value
    assert dbl.terms == {(1, 2): field.one, (2, 1): field.neg(sp.q[0][1])}
    assert bracket(sp, (1,)).value == sp.generator(1)


def test_bracket_rejects_non_lyndon(field):
    sp = qp_space(field)
    with pytest.raises(ValueError):
        bracket(sp, (2, 1))
    with pytest.raises(ValueError):
        bracket(sp, (1, 2), flavor="right")
    with pytest.raises(ValueError):
        bracket(sp, (1, 3))  # letter outside alphabet


def test_bracket_follows_shirshov_recursion(field):
    sp = random_diagonal(field, 2, random.Random(12))
    for u in words.enumerate_lyndon(2, 5):
        if len(u) < 2:
            continue
        v, w = words.shirshov(u)
        a, b = bracket(sp, v).value, bracket(sp, w).value
        # rebuild the twist m(c^{-1}(a ox b)) from braid_words directly
        twist: dict = {}
        for wa, ca in a.terms.items():
            for wb, cb in b.terms.items():
                for (l, r), f in sp.braid_words(wa, wb, True).items():
                    key = l + r
                    val = field.add(twist.get(key, field.zero),
                                    field.mul(field.mul(ca, cb), f))
                    if val == field.zero:
                        twist.pop(key, None)
                    else:
                        twist[key] = val
        want = (a * b) - sp.element(twist)
        assert bracket(sp, u).value == want


def test_bracket_triangular(field):
    """[u] = x_u + lex-larger words of the same degree, coefficient 1."""
    rng = random.Random(21)
    for d in (2, 3):
        sp = random_diagonal(field, d, rng)
        for u in words.enumerate_lyndon(d, 5):
            val = bracket(sp, u).value
            assert val.is_homogeneous() and val.degree() == len(u)
            assert leading_vector(val) == (u, field.one)
            assert all(w >= u for w in val.terms)


def test_bracket_word_and_element(field):
    sp = random_diagonal(field, 2, random.Random(31))
    x2x1 = bracket_word(sp, ((2,), (1,)))
    assert x2x1.terms == {(2, 1): field.one}
    with pytest.raises(ValueError):
        bracket_word(sp, ((1,), (2,)))  # not monotonic
    assert bracket_word(sp, ()) == sp.unit()
    with pytest.raises(ValueError, match="zero element"):
        leading_vector(sp.zero())
    w = (1, 2, 1, 1, 2)
    assert bracket_element(sp, w) == bracket_word(sp, words.cfl_factorize(w))
    lead, c = leading_vector(bracket_element(sp, w))
    assert (lead, c) == (w, field.one)


def test_shirshov_product_leads_to_bracket(field):
    """For the Shirshov split u = vw, [v][w] has leading vector (u, 1)."""
    sp = random_diagonal(field, 3, random.Random(41))
    for u in words.enumerate_lyndon(3, 4):
        if len(u) < 2:
            continue
        v, w = words.shirshov(u)
        prod = bracket(sp, v).value * bracket(sp, w).value
        assert leading_vector(prod) == (u, field.one)


# ------------------------------------------------- diagonal twist, products

def oracle_m_braid(space, a, b, inverse):
    """m(c^{+-1}(a ox b)) of term dicts, braiding every term pair on its own."""
    left = {((), w): c for w, c in a.items()}
    right = {(w, ()): c for w, c in b.items()}
    return space.element({l + r: c for (l, r), c in freealg._braided_mul(
        space, left, right, inverse).items()}).terms


def oracle_mul(x, y):
    """Concatenation product accumulated term pair by term pair."""
    fld = x.space.field
    out: dict = {}
    for wa, ca in x.terms.items():
        fld.axpy(out, {wa + wb: cb for wb, cb in y.terms.items()}, ca)
    return x.space.element(out)


def twist_spaces(d):
    """Seeded diagonal spaces over F_p and Q, generic or with roots of unity."""
    fp, qq = PrimeField(10009), RationalField()
    cube = [fp.element_of_order(3) ** k % fp.p for k in range(3)]
    rationals = [Fraction(v) for v in ("2", "-1", "1/3", "-3/2", "5", "1/7")]
    rng = random.Random(f"twist/{d}")
    return [random_diagonal(fp, d, rng),
            random_diagonal(fp, d, rng, cube + [fp.neg(c) for c in cube]),
            random_diagonal(qq, d, rng, rationals),
            random_diagonal(qq, d, rng, [Fraction(1), Fraction(-1)])]


@pytest.mark.parametrize("d", (2, 3))
def test_diagonal_twist_matches_term_pair_oracle(d, monkeypatch):
    """Brackets, bracket words, bracketings and antipodes built with one
    scalar per twist equal those built by braiding every term pair."""
    n = 6
    lyndon = words.enumerate_lyndon(d, n)
    sws = [sw for k in range(1, n + 1)
           for sw in words.monotonic_superwords(lyndon, k)]
    for sp in twist_spaces(d):
        def build():
            out = []
            for flavor in ("left", "double"):
                vals = [bracket(sp, u, flavor).value for u in lyndon]
                vals += [bracket_word(sp, sw, flavor) for sw in sws]
                out += vals + [antipode(x) for x in vals]
                out += [bracket_element(sp, words.concat(sw), flavor)
                        for sw in sws]
            return out

        with monkeypatch.context() as m:
            m.setattr(freealg, "_m_braid", oracle_m_braid)
            want = build()
        sp._cache.clear()
        got = build()
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert x == y


@pytest.mark.parametrize("fld", (PrimeField(10007), RationalField()))
def test_homogeneous_product_matches_pair_by_pair_sum(fld):
    rng = random.Random(61)
    sp = BraidedSpace(fld, 3, "diagonal", [[fld.one] * 3] * 3)

    def rand_element(lengths):
        return sp.element({
            tuple(rng.randrange(1, 4) for _ in range(rng.choice(lengths))):
            fld.from_int(rng.randrange(1, 50)) for _ in range(rng.randrange(0, 9))})

    for _ in range(200):
        x = rand_element([rng.randrange(0, 4)])
        y = rand_element(range(0, 4))
        assert x.is_homogeneous()
        assert x * y == oracle_mul(x, y)
        z = rand_element(range(0, 4))
        assert z * y == oracle_mul(z, y)


def test_inhomogeneous_product_collects_colliding_words(field):
    sp = random_diagonal(field, 3, random.Random(62))
    x1, x2, x3 = (sp.generator(i) for i in (1, 2, 3))
    prod = (x1 + x1 * x2) * (x2 * x3 + x3)
    two = field.from_int(2)
    assert prod.terms == {(1, 2, 3): two, (1, 3): field.one,
                          (1, 2, 2, 3): field.one}


def test_diagonal_bracket_takes_one_qprod_per_bracket(field, monkeypatch):
    calls = []
    qprod = BraidedSpace.qprod

    def counted(self, u, v):
        calls.append((u, v))
        return qprod(self, u, v)

    monkeypatch.setattr(BraidedSpace, "qprod", counted)
    sp = random_diagonal(field, 3, random.Random(63))
    built = 0
    for flavor in ("left", "double"):
        for u in words.enumerate_lyndon(3, 6):
            bracket(sp, u, flavor)
            built += len(u) > 1
    assert 0 < len(calls) <= built


# ----------------------------------------------------------------- expansion

def test_expand_monotonic_basis_round_trip(field):
    rng = random.Random(51)
    sp = random_diagonal(field, 2, rng)
    for n in range(1, 6):
        for _ in range(5):
            terms = {}
            pool = list(words_of(2, n))
            for w in rng.sample(pool, min(3, len(pool))):
                terms[w] = field.from_int(rng.randrange(1, field.p))
            x = sp.element(terms)
            coords = expand_monotonic_basis(x)
            back = sp.zero()
            for sw, c in coords.items():
                back = back + bracket_word(sp, sw).scale(c)
            assert back == x
            for sw in coords:
                assert words.validate_superword(sw, monotonic=True) == sw


def words_of(d, n):
    import itertools
    return itertools.product(*(range(1, d + 1) for _ in range(n)))


def test_expand_known_coordinates(field):
    sp = random_diagonal(field, 2, random.Random(61))
    q21 = sp.q[1][0]
    x = sp.element({(1, 2): field.one})
    assert expand_monotonic_basis(x) == {((1, 2),): field.one,
                                         ((2,), (1,)): field.inv(q21)}
    sw = ((1, 2), (1,))
    assert expand_monotonic_basis(bracket_word(sp, sw)) == {sw: field.one}
    with pytest.raises(ValueError):
        expand_monotonic_basis(sp.generator(1) + sp.unit())


# ----------------------------------------------------- coproduct and antipode

def test_coproduct_generators_primitive(field):
    sp = qp_space(field)
    d = coproduct(sp.generator(1))
    assert d.terms == {((1,), ()): field.one, ((), (1,)): field.one}
    assert coproduct(sp.unit()).terms == {((), ()): field.one}


def test_coproduct_is_algebra_map(field):
    rng = random.Random(71)
    for sp in (random_diagonal(field, 2, rng), space_from_preset("s3-rack")):
        fld = sp.field
        for _ in range(6):
            wa = tuple(rng.randrange(1, sp.dim + 1)
                       for _ in range(rng.randrange(0, 3)))
            wb = tuple(rng.randrange(1, sp.dim + 1)
                       for _ in range(rng.randrange(0, 3)))
            x = sp.element({wa: fld.one})
            y = sp.element({wb: fld.one})
            assert coproduct(x * y) == coproduct(x) * coproduct(y)


def test_coproduct_counit_law(field):
    """(eps ox id) Delta == id == (id ox eps) Delta."""
    rng = random.Random(81)
    sp = random_diagonal(field, 3, rng)
    for _ in range(10):
        w = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 5)))
        x = sp.element({w: field.one})
        left = sp.zero()
        right = sp.zero()
        for (wl, wr), c in coproduct(x).terms.items():
            if wl == ():
                right = right + sp.element({wr: c})
            if wr == ():
                left = left + sp.element({wl: c})
        assert left == x and right == x
    assert counit(sp.unit()) == field.one
    assert counit(sp.generator(1)) == field.zero


def test_coproduct_of_degree_two_bracket(field):
    sp = random_diagonal(field, 2, random.Random(91))
    q12, q21 = sp.q[0][1], sp.q[1][0]
    val = bracket(sp, (1, 2)).value
    d = coproduct(val)
    mid = field.sub(q12, field.inv(q21))
    want = {}
    for (wl, wr), c in TensorSquareElement.from_pair(val, sp.unit()).terms.items():
        want[(wl, wr)] = c
    for (wl, wr), c in TensorSquareElement.from_pair(sp.unit(), val).terms.items():
        want[(wl, wr)] = field.add(want.get((wl, wr), field.zero), c)
    if mid != field.zero:
        want[((2,), (1,))] = mid
    assert d.terms == want


def test_antipode_identity(field):
    """m (S ox id) Delta == unit eps == m (id ox S) Delta."""
    for sp in (random_diagonal(field, 2, random.Random(101)),
               space_from_preset("s3-rack")):
        fld = sp.field
        rng = random.Random(7)
        for _ in range(8):
            w = tuple(rng.randrange(1, sp.dim + 1)
                      for _ in range(rng.randrange(0, 5)))
            x = sp.element({w: fld.one})
            left = sp.zero()
            right = sp.zero()
            for (wl, wr), c in coproduct(x).terms.items():
                left = left + (antipode(sp.element({wl: fld.one}))
                               * sp.element({wr: fld.one})).scale(c)
                right = right + (sp.element({wl: fld.one})
                                 * antipode(sp.element({wr: fld.one}))).scale(c)
            want = sp.unit().scale(counit(x))
            assert left == want and right == want


def test_antipode_negates_double_bracket(field):
    """S(bracket(u)) == -double_bracket(u) for every Lyndon word u.

    S is a morphism for the braiding, so (S ox S) c == c (S ox S); applying S
    to the bracket recursion swaps the twist flavor and pulls out one -1 per
    letter and one -1 per twist, a uniform -1 overall.
    """
    for sp in (random_diagonal(field, 3, random.Random(131)),
               space_from_preset("s3-rack")):
        minus = sp.field.neg(sp.field.one)
        for u in words.enumerate_lyndon(sp.dim, 4):
            lhs = antipode(bracket(sp, u, "left").value)
            assert lhs == bracket(sp, u, "double").value.scale(minus)


def test_antipode_closed_form_diagonal(field):
    """S(x_w) = (-1)^n (prod_{i<j} q_{w_i w_j}) x_reversed(w) for diagonal c."""
    rng = random.Random(111)
    sp = random_diagonal(field, 3, rng)
    for _ in range(15):
        w = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 6)))
        factor = field.one
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                factor = field.mul(factor, sp.q[w[i] - 1][w[j] - 1])
        sign = field.one if len(w) % 2 == 0 else field.neg(field.one)
        want = sp.element({tuple(reversed(w)): field.mul(sign, factor)})
        assert antipode(sp.element({w: field.one})) == want


# ------------------------------------------------------------------- blocks

def test_component_partition_diagonal(field):
    sp = random_diagonal(field, 3, random.Random(121))
    assert sp.component_partition() == ((1,), (2,), (3,))


def test_component_partition_rack():
    sp = space_from_preset("s3-rack")
    assert sp.component_partition() == ((1, 2, 3),)


def test_component_partition_mixed_blocks(field):
    sp = BraidedSpace(field, 3, "general", swap_block_matrix(field))
    assert sp.component_partition() == ((1, 2), (3,))


# ------------------------------------------------------------ per-space cache

CACHE_SPACES = ("cartan-A2(order=3)", "s3-rack")


def mixed_workload(sp):
    """Brackets in both flavors of every Lyndon word up to length 4, their
    antipodes and coproducts, one bracketing and the block partition."""
    for u in words.enumerate_lyndon(sp.dim, 4):
        for flavor in ("left", "double"):
            x = bracket(sp, u, flavor).value
            antipode(x)
            coproduct(x)
    bracket_element(sp, (2, 1, 1, 2))
    sp.component_partition()


@pytest.mark.parametrize("preset", CACHE_SPACES)
def test_cache_keys_name_their_kind(preset):
    """Every cache key is a tuple led by its kind, the layout the bench
    counts entries by; a repeated build adds no entry."""
    sp = build_space(preset)
    mixed_workload(sp)
    assert {type(k) for k in sp._cache} == {tuple}
    assert {k[0] for k in sp._cache} == {"br", "bw", "cop", "anti", "components"}
    size = len(sp._cache)
    before = bracket(sp, (1, 1, 2), "double").value
    assert bracket(sp, (1, 1, 2), "double").value == before
    assert len(sp._cache) == size


def test_space_is_freed_without_the_cycle_collector():
    """Cached values are term dicts that never point back at their space, so
    refcounting alone frees a space once its last user drops it."""
    def built(preset):
        sp = build_space(preset)
        mixed_workload(sp)
        return weakref.ref(sp)

    enabled = gc.isenabled()
    gc.disable()
    try:
        refs = [built(preset) for preset in CACHE_SPACES]
        freed = [ref() is None for ref in refs]
    finally:
        if enabled:
            gc.enable()
    assert freed == [True, True]


def test_public_brackets_do_not_share_the_cache():
    """bracket, bracket_word and bracket_element wrap copies of the memoized
    term dicts: writing into a result changes no later bracket."""
    sp = space_from_preset("cartan-A2")
    true = bracket(space_from_preset("cartan-A2"), (1, 2)).value.terms
    assert true == {(1, 2): 1, (2, 1): sp.field.neg(sp.field.inv(sp.q[1][0]))}
    bracket(sp, (1, 2)).value.terms[(1, 2)] = 5
    bracket_word(sp, ((1, 2),)).terms[(2, 1)] = 7
    bracket_element(sp, (1, 2)).terms.clear()
    assert bracket(sp, (1, 2)).value.terms == true
    assert bracket_word(sp, ((1, 2),)).terms == true
    assert bracket_element(sp, (1, 2)).terms == true


def test_each_build_gets_its_own_empty_cache():
    for preset in CACHE_SPACES:
        first = build_space(preset)
        mixed_workload(first)
        second = build_space(preset)
        assert second._cache == {} and second._cache is not first._cache
        assert first._cache and second is not first


# ----------------------------------------------------------- (de)serialization

def test_space_json_round_trip(field):
    for sp in (random_diagonal(field, 2, random.Random(131)),
               space_from_preset("s3-rack"),
               BraidedSpace(field, 3, "general", swap_block_matrix(field))):
        back = space_from_json(sp.to_json())
        assert back.dim == sp.dim and back.field == sp.field
        assert back.q == sp.q and back._cmap == sp._cmap
    with pytest.raises(ValueError):
        space_from_json({"dim": 2, "braiding": {}})
    with pytest.raises(ValueError):
        space_from_json([1, 2])
    with pytest.raises(ValueError, match="'diagonal' or 'general'"):
        space_from_json({"field": {"prime": 10007}, "dim": 1,
                         "braiding": {"upper": [["1"]]}})


def test_space_json_root_orders(field):
    obj = {"field": {"prime": 10007}, "dim": 2,
           "braiding": {"diagonal": [["1", "1"], ["1", "1"]]},
           "root_orders": [3]}
    with pytest.raises(ValueError):
        space_from_json(obj)  # 3 does not divide 10006
    assert space_from_json(obj, prime=10009).field.p == 10009
    assert source_requirements(obj)[0] == (3,)


def test_element_json_round_trip(field):
    sp = random_diagonal(field, 2, random.Random(141))
    x = bracket(sp, (1, 1, 2)).value + sp.unit().scale(field.from_int(5))
    from lynhopf.freealg import TensorElement
    assert TensorElement.from_json(sp, x.to_json()) == x


# ------------------------------------------------------------------- presets

def test_preset_quantum_plane_default():
    sp = space_from_preset("quantum-plane")
    f = sp.field
    assert f.p == 10007
    assert sp.q == ((f.neg(f.one), f.one), (f.one, f.neg(f.one)))
    sp2 = space_from_preset("quantum-plane(q=2)")
    assert sp2.q[0][0] == sp2.field.from_int(2)


def test_preset_cartan_variants():
    generic = space_from_preset("cartan-A2")
    f = generic.field
    g = f.from_int(primitive_root(f.p))
    assert generic.q == ((g, f.inv(g)), (f.one, g))
    ord3 = space_from_preset("cartan-A2(order=3)")
    assert ord3.field.p == 10009
    assert ord3.field.multiplicative_order(ord3.q[0][0]) == 3
    assert ord3.q[0][1] == ord3.field.inv(ord3.q[0][0])
    rat = space_from_preset("cartan-A2(rationals=1)")
    assert isinstance(rat.field, RationalField)
    assert rat.q[0][0] == 2


def test_preset_prime_choices():
    assert space_from_preset("quantum-plane(prime=101)").field.p == 101
    assert space_from_preset("quantum-plane", prime=13).field.p == 13
    with pytest.raises(ValueError):
        space_from_preset("cartan-A2(order=3)", prime=10007)
    with pytest.raises(ValueError):
        space_from_preset("cartan-A2", trunc=6000)  # generic order too small
    with pytest.raises(ValueError):
        space_from_preset("cartan-A2(order=3,rationals=1)")
    assert isinstance(space_from_preset("quantum-plane(rationals=1)").field,
                      RationalField)


def test_preset_errors():
    with pytest.raises(ValueError):
        space_from_preset("heisenberg")
    with pytest.raises(ValueError):
        space_from_preset("quantum-plane(q=2")
    with pytest.raises(ValueError):
        space_from_preset("quantum-plane(foo)")
    with pytest.raises(ValueError):
        space_from_preset("quantum-plane(q=0)")


def test_build_space_dispatch(field):
    sp = build_space("s3-rack")
    assert sp.dim == 3
    obj = {"field": {"rationals": True}, "dim": 1,
           "braiding": {"diagonal": [["1"]]}}
    sp2 = build_space(obj)
    assert isinstance(sp2.field, RationalField)
    orders, units = source_requirements("cartan-A2(order=3)")
    assert orders == (3,)
    orders, units = source_requirements(obj)
    assert units == (1,)


def oracle_preset_requirements(name, params):
    """The per-preset branches that the preset table replaced."""
    if name == "quantum-plane":
        q = params.get("q", "-1")
        return (), (Fraction(q),)
    if name == "cartan-A2":
        if "order" in params:
            return (int(params["order"]),), ()
        if "q" in params:
            return (), (Fraction(params["q"]),)
        return (), ()
    if name == "s3-rack":
        return (), ()
    raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")


def oracle_space_from_preset(text, prime=None, trunc=None):
    """The per-preset space build that the preset table replaced."""
    name, params = freealg._parse_preset(text)
    orders, units = oracle_preset_requirements(name, params)
    if params.get("rationals"):
        field = RationalField()
    else:
        if prime is None and "prime" in params:
            prime = int(params["prime"])
        if prime is None:
            prime = next_prime_with(freealg.DEFAULT_PRIME, orders, units)
        field = PrimeField(prime)
        for m in orders:
            if (field.p - 1) % m != 0:
                raise ValueError(f"F_{field.p} has no element of order {m}")
        for u in units:
            if u.numerator % field.p == 0 or u.denominator % field.p == 0:
                raise ValueError(f"preset value {u} is not a unit mod {field.p}")

    def generic_q():
        if field.char == 0:
            return Fraction(2)
        g = primitive_root(field.p)
        if trunc is not None and field.p - 1 <= 2 * trunc:
            raise ValueError(
                f"generic parameter needs order > {2 * trunc}, "
                f"but F_{field.p}^* has order {field.p - 1}")
        return g

    def chosen_q():
        if "q" in params:
            return field.parse(params["q"])
        if "order" in params:
            m = int(params["order"])
            if field.char == 0:
                if m == 1:
                    return field.one
                if m == 2:
                    return field.neg(field.one)
                raise ValueError(f"no rational root of unity of order {m}")
            return field.element_of_order(m)
        return field.from_int(generic_q()) if field.char else generic_q()

    if name == "quantum-plane":
        q = chosen_q() if ("q" in params or "order" in params) else field.neg(field.one)
        if q == field.zero:
            raise ValueError("quantum-plane parameter q must be nonzero")
        return BraidedSpace(field, 2, "diagonal", [[q, field.one], [field.one, q]])
    if name == "cartan-A2":
        q = chosen_q()
        if q == field.zero:
            raise ValueError("cartan-A2 parameter q must be nonzero")
        return BraidedSpace(field, 2, "diagonal", [[q, field.inv(q)], [field.one, q]])
    return BraidedSpace(field, 3, "general", freealg._s3_rack_matrix(field))


def preset_texts():
    """Every preset with q=, order=, prime= and rationals=1 in combination,
    except the texts whose meaning the table changed on purpose (tested
    below): order= on quantum-plane, and q= or order= on s3-rack."""
    for name in PRESET_NAMES:
        for q_or_order in ([], *([("q", v)] for v in ("2", "-1", "0", "1/3")),
                           *([("order", v)] for v in ("2", "3", "5"))):
            if q_or_order and (name == "s3-rack" or (
                    name == "quantum-plane" and q_or_order[0][0] == "order")):
                continue
            for extra in itertools.product(([], [("prime", "13")],
                                            [("prime", "10009")]),
                                           ([], [("rationals", "1")])):
                params = q_or_order + extra[0] + extra[1]
                body = ",".join(f"{k}={v}" for k, v in params)
                yield f"{name}({body})" if body else name


def _outcome(build, text, prime, trunc):
    try:
        return build(text, prime=prime, trunc=trunc)
    except (ValueError, ZeroDivisionError) as exc:
        return exc


def test_preset_table_matches_per_preset_oracle():
    accepted = rejected = 0
    for text in preset_texts():
        name, params = freealg._parse_preset(text)
        assert source_requirements(text) == oracle_preset_requirements(name, params)
        for prime, trunc in itertools.product((None, 13, 10009), (None, 6, 6000)):
            want = _outcome(oracle_space_from_preset, text, prime, trunc)
            got = _outcome(space_from_preset, text, prime, trunc)
            if isinstance(want, Exception):
                assert (type(got), str(got)) == (type(want), str(want)), text
                rejected += 1
                continue
            assert (got.field, got.dim, got.kind, got.to_json()) == (
                want.field, want.dim, want.kind, want.to_json()), text
            accepted += 1
    assert accepted > 300 and rejected > 100


def test_preset_names_come_from_the_table():
    assert PRESET_NAMES == tuple(freealg._PRESETS)
    assert PRESET_NAMES == ("quantum-plane", "cartan-A2", "s3-rack")


def test_quantum_plane_order_picks_a_root_of_unity():
    """order= used to pick a prime for q = -1 and then fail to find q."""
    sp = space_from_preset("quantum-plane(order=3)")
    assert sp.field.p == 10009
    assert sp.field.multiplicative_order(sp.q[0][0]) == 3
    assert source_requirements("quantum-plane(order=3)") == ((3,), ())
    assert space_from_preset("quantum-plane(order=2,rationals=1)").q[0][0] == -1


PRESET_PARAMETER_ERRORS = {
    "cartan-A2(order=3,q=2)": "preset 'cartan-A2' takes q= or order=, not both",
    "quantum-plane(q=2,order=2)":
        "preset 'quantum-plane' takes q= or order=, not both",
    "cartan-A2(oder=3)": "preset 'cartan-A2' takes no parameter 'oder'; "
                         "known: q, order, prime, rationals",
    "s3-rack(q=3)": "preset 's3-rack' takes no parameter 'q'; "
                    "known: prime, rationals",
    "s3-rack(order=3,prime=13)": "preset 's3-rack' takes no parameter "
                                 "'order'; known: prime, rationals",
    "quantum-plane(rationals=2)": "preset 'quantum-plane' takes rationals=0 "
                                  "or rationals=1, not '2'",
    "cartan-A2(rationals=)": "preset 'cartan-A2' takes rationals=0 or "
                             "rationals=1, not ''",
    "s3-rack(rationals=true)": "preset 's3-rack' takes rationals=0 or "
                               "rationals=1, not 'true'",
    "cartan-A2(q=2,q=3)": "preset 'cartan-A2' repeats parameter 'q'",
    "quantum-plane(prime=13, prime=13)":
        "preset 'quantum-plane' repeats parameter 'prime'",
    "s3-rack(rationals=1,rationals=0)":
        "preset 's3-rack' repeats parameter 'rationals'",
    "cartan-A2(order=0)": "preset 'cartan-A2' takes order=<positive "
                          "integer>, not '0'",
    "quantum-plane(order=-3)": "preset 'quantum-plane' takes "
                               "order=<positive integer>, not '-3'",
    "cartan-A2(order=abc)": "preset 'cartan-A2' takes order=<positive "
                            "integer>, not 'abc'",
}


def test_preset_rationals_flag_is_zero_or_one():
    """rationals=0 used to build over Q, like any non-empty value."""
    for name in PRESET_NAMES:
        assert space_from_preset(f"{name}(rationals=0)").field == \
            space_from_preset(name).field
        assert isinstance(space_from_preset(f"{name}(rationals=1)").field,
                          RationalField)
    assert space_from_preset("quantum-plane(rationals=0,prime=13)").field.p == 13
    assert source_requirements("cartan-A2(order=3,rationals=0)") == ((3,), ())


@pytest.mark.parametrize("text", sorted(PRESET_PARAMETER_ERRORS))
def test_preset_rejects_unknown_and_conflicting_parameters(text):
    """These texts were accepted with a parameter silently dropped or
    misread."""
    for read in (space_from_preset, source_requirements):
        with pytest.raises(ValueError) as exc:
            read(text)
        assert str(exc.value) == PRESET_PARAMETER_ERRORS[text]


# ---------------------------------------------------------------- guard ring

def test_fused_space_is_both_prime_spaces():
    """Braiding, brackets and coproducts over the fused space reduce to
    those of each prime's space, and building it validates nothing."""
    for source, p1, p2 in [("cartan-A2", 10007, 10009),
                           ("cartan-A2(order=3)", 10009, 10039),
                           ("s3-rack", 10007, 10009), ("quantum-plane", 7, 11)]:
        a, b = build_space(source, prime=p1), build_space(source, prime=p2)
        ring = PairField(p1, p2)
        checks = freealg._validated_braiding.cache_info()
        fused = freealg.fused_space(ring, a, b)
        after = freealg._validated_braiding.cache_info()
        assert (after.hits, after.misses) == (checks.hits, checks.misses)
        assert (fused.field, fused.dim, fused.kind) == (ring, a.dim, a.kind)
        assert fused._cache == {}

        def parts(terms):
            return [{k: v % p for k, v in terms.items() if v % p} for p in (p1, p2)]

        ws = [w for n in (1, 2) for w in itertools.product(range(1, a.dim + 1), repeat=n)]
        for u in ws:
            for v in ws:
                for inverse in (False, True):
                    assert parts(fused.braid_words(u, v, inverse)) == [
                        a.braid_words(u, v, inverse), b.braid_words(u, v, inverse)]
        for u in words.enumerate_lyndon(a.dim, 4):
            for flavor in ("left", "double"):
                assert parts(bracket(fused, u, flavor).value.terms) == [
                    bracket(sp, u, flavor).value.terms for sp in (a, b)]
            assert parts(coproduct(bracket(fused, u).value).terms) == [
                coproduct(bracket(sp, u).value).terms for sp in (a, b)]
        assert not ring.split


def test_fused_space_splits_on_braiding_supports_that_differ():
    a, b = build_space("s3-rack", prime=10007), build_space("s3-rack", prime=10009)
    b._cmap = {k: dict(v) for k, v in b._cmap.items()}
    b._cmap[(1, 2)][(2, 2)] = 5  # an entry that is zero mod 10007 only
    ring = PairField(10007, 10009)
    with pytest.raises(PrimeSplit):
        freealg.fused_space(ring, a, b)
    assert ring.split
