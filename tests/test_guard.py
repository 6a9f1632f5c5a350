"""The two-prime guard as one run over Z/(p1 p2), checked against the two
runs it replaces: results, or exception type and message, must be equal."""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from lynhopf import cli, nichols, words
from lynhopf.freealg import TensorElement, build_space, source_requirements
from lynhopf.nichols import (BadPrimeError, GradedQuotient, pbw_data,
                             run_guarded, subquotient_series,
                             verify_factorization)
from lynhopf.scalars import PrimeSplit, next_prime_with

from conftest import oracle_nonneg_quotient_check


def two_run_guard(source, trunc, compute, prime=None, second_prime=None):
    """The guard as one run per prime, compared: the oracle of run_guarded."""
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
    first = compute(space)
    del space
    second = compute(other)
    if first != second:
        raise BadPrimeError(
            f"results differ between F_{p1} and F_{second_prime}; "
            f"at least one prime loses rank")
    return first


def outcome(guard, *args, **kwargs):
    try:
        return "value", guard(*args, **kwargs)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def counted(compute, calls):
    def wrapped(space):
        calls.append(type(space.field).__name__)
        return compute(space)
    return wrapped


def quotient(kind, trunc, relations=()):
    """sp -> GradedQuotient, with the relations (JSON elements) read over
    sp's field, as the CLI reads them."""
    def build(sp):
        rels = tuple(TensorElement.from_json(sp, r) for r in relations)
        return GradedQuotient(sp, kind, trunc, relations=rels)
    return build


COMPUTES = {
    "dims": lambda R: R.hilbert_series().coeffs,
    "pbw": pbw_data,
    "factorize": verify_factorization,
    "subquotient": lambda R: subquotient_series(R, (1, 2)),
}


def element(*terms):
    return {"terms": [{"word": w, "coeff": c} for w, c in terms]}


# cartan-A2(order=3)'s braiding as residues mod 10009: at the second guard
# prime the literals are no cube roots of unity
RESIDUE_A2 = {"field": {"prime": 10009}, "dim": 2, "root_orders": [3],
              "braiding": {"diagonal": [["8964", "1044"], ["1", "8964"]]}}
# cartan-A2 at q = -1 conjugated by g ox g, g = [[1, 1], [0, 1]]
CONJUGATED_A2 = {"field": {"prime": 10007}, "dim": 2, "braiding": {"general": [
    ["-1", "0", "2", "-2"], ["0", "0", "1", "-2"], ["0", "-1", "0", "0"],
    ["0", "0", "0", "-1"]]}}
COMMUTE = [element(("12", "1"), ("21", "-1"))]
QP_RELATIONS = [element(("11", "1")), element(("22", "1"))] + COMMUTE
NON_COIDEAL = [element(("1212", "1"), ("2121", "1"))]
# x1x1 appears twice, with coefficients summing to 10007: it cancels mod
# 10007 only
CANCELS_AT_ONE_PRIME = [element(("12", "1"), ("21", "-3"), ("11", "10006"),
                                ("11", "1"))]

CASES = [
    # (source, trunc, kind, relations, compute names, prime, second prime)
    ("quantum-plane", 6, "nichols", (), "dims pbw factorize subquotient", None, None),
    ("quantum-plane(order=3)", 8, "nichols", (), "dims pbw factorize", None, None),
    ("quantum-plane(q=3)", 6, "nichols", (), "dims pbw factorize", None, None),
    ("cartan-A2", 8, "nichols", (), "dims pbw factorize subquotient", None, None),
    ("cartan-A2(order=3)", 10, "nichols", (), "dims pbw factorize subquotient", None, None),
    ("cartan-A2(order=4)", 9, "nichols", (), "dims pbw factorize", None, None),
    ("cartan-A2", 8, "free", (), "dims pbw factorize", None, None),
    ("s3-rack", 6, "nichols", (), "dims factorize pbw", None, None),
    ("s3-rack(prime=10009)", 5, "nichols", (), "dims factorize", None, None),
    (CONJUGATED_A2, 6, "nichols", (), "dims factorize", None, None),
    (CONJUGATED_A2, 6, "nichols", (), "dims factorize", 3, 5),
    (RESIDUE_A2, 6, "nichols", (), "dims pbw factorize", None, None),
    ("quantum-plane(q=2)", 6, "nichols", (), "dims pbw factorize", 7, 11),
    ("quantum-plane(q=2)", 6, "nichols", (), "dims pbw", 11, 7),
    ("quantum-plane(q=1)", 6, "nichols", (), "dims factorize", 3, 5),
    ("quantum-plane", 6, "nichols", (), "dims factorize", 2, 3),
    ("cartan-A2(q=3)", 6, "nichols", (), "dims pbw", 13, 11),
    ("cartan-A2(order=3)", 7, "nichols", (), "dims pbw", 13, 7),
    ("quantum-plane", 5, "presented", QP_RELATIONS, "dims pbw factorize", None, None),
    ("quantum-plane", 5, "presented", NON_COIDEAL, "dims", None, None),
    ("quantum-plane(q=3)", 7, "presented", COMMUTE, "dims pbw factorize", None, None),
    ("quantum-plane(q=3)", 5, "presented", CANCELS_AT_ONE_PRIME, "dims", None, None),
    ("quantum-plane(q=3)", 5, "presented", CANCELS_AT_ONE_PRIME, "dims", 10009, 10007),
    ("cartan-A2", 16, "nichols", (), "dims", None, None),  # above the matrix cap
    ("s3-rack", 4, "nichols", (), "pbw", None, None),  # not implemented
]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_fused_guard_matches_the_two_run_oracle(case):
    source, trunc, kind, rels, names, prime, second = CASES[case]
    build = quotient(kind, trunc, rels)
    for name in names.split():
        compute = COMPUTES[name]
        got = outcome(run_guarded, source, trunc, lambda sp: compute(build(sp)),
                      prime=prime, second_prime=second)
        want = outcome(two_run_guard, source, trunc, lambda sp: compute(build(sp)),
                       prime=prime, second_prime=second)
        assert got == want, (name, got, want)


def test_fused_guard_matches_the_oracle_on_known_disagreements():
    """The cases a prime loses rank in still raise the guard's error."""
    for source, prime, second in [(RESIDUE_A2, None, None),
                                  ("quantum-plane(q=2)", 7, 11),
                                  ("cartan-A2(q=3)", 13, 11)]:
        got = outcome(run_guarded, source, 6, lambda sp: COMPUTES["dims"](
            GradedQuotient(sp, "nichols", 6)), prime=prime, second_prime=second)
        assert got[0] is BadPrimeError, (source, got)


def random_presented_source(rng):
    """A seeded diagonal JSON space with relations: x_i^2 where q_ii = -1 and
    x_i x_j - q_ij x_j x_i where q_ij q_ji = 1 (both primitive, so they
    generate a coideal), and now and then a random relation that need not."""
    d = rng.choice((2, 3))
    q = [["0"] * d for _ in range(d)]
    rels = []
    for i in range(d):
        q[i][i] = "-1" if rng.random() < 0.6 else str(rng.randint(2, 40))
        if q[i][i] == "-1":
            rels.append(element((str(i + 1) * 2, "1")))
    for i in range(d):
        for j in range(i + 1, d):
            a = Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
            if rng.random() < 0.5:
                q[i][j], q[j][i] = str(a), str(1 / a)
                rels.append(element((f"{i + 1}{j + 1}", "1"),
                                    (f"{j + 1}{i + 1}", str(-a))))
            else:
                q[i][j], q[j][i] = str(a), str(rng.randint(2, 40))
    if rng.random() < 0.2 or not rels:
        word = "".join(str(rng.randint(1, d)) for _ in range(rng.randint(2, 3)))
        rels.append(element((word, str(rng.randint(1, 20)))))
    source = {"field": {"prime": 10007}, "dim": d, "braiding": {"diagonal": q}}
    return source, rels, 5 if d == 2 else 4


def test_fused_guard_matches_the_oracle_on_random_spaces_with_relations():
    """Seeded spaces, presented by their relations and as Nichols quotients.
    No value they keep splits, so every run is one fused call; elimination
    fill-in that is zero at one prime only does not count (checking it too
    sends some of the Nichols runs to the fallback)."""
    rng = random.Random(2201)
    outcomes = set()
    for _ in range(24):
        source, rels, trunc = random_presented_source(rng)
        for kind, top in (("presented", trunc), ("nichols", trunc + 1)):
            build = quotient(kind, top, rels if kind == "presented" else ())
            for name in ("dims", "factorize", "pbw"):
                calls = []
                compute = COMPUTES[name]
                got = outcome(run_guarded, source, top,
                              counted(lambda sp: compute(build(sp)), calls))
                want = outcome(two_run_guard, source, top,
                               lambda sp: compute(build(sp)))
                assert got == want, (source, rels, kind, name)
                assert calls == ["PairField"], (source, rels, kind, name)
                outcomes.add(got[0])
    assert outcomes == {"value", ValueError}  # some relations are no coideal


def free_d3_source(rng):
    q = [[str(rng.randrange(1, 10007)) for _ in range(3)] for _ in range(3)]
    return {"field": {"prime": 10007}, "dim": 3, "braiding": {"diagonal": q}}


def test_bench_shaped_jobs_compute_once(tmp_path, monkeypatch):
    """The benchmark's dims, factorize and pbw jobs finish in the fused run:
    compute is called once, over the guard ring, and the CLI prints what
    the two-run guard prints."""
    space = tmp_path / "free3.json"
    space.write_text(json.dumps(free_d3_source(random.Random(22))))
    jobs = [
        ["dims", "--space", "preset:cartan-A2", "--trunc", "10"],
        ["dims", "--space", "preset:s3-rack", "--trunc", "7"],
        ["factorize", "--kind", "free", "--space", str(space), "--trunc", "7"],
        ["factorize", "--space", "preset:cartan-A2(order=3)", "--trunc", "10"],
        ["pbw", "--kind", "free", "--space", str(space), "--trunc", "8"],
        ["pbw", "--space", "preset:cartan-A2(order=3)", "--trunc", "10"],
    ]

    def cli_out(guard, argv):
        monkeypatch.setattr(cli, "run_guarded", guard)
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["nichols", *argv])
        return code, out.getvalue()

    for argv in jobs:
        calls = []

        def counting(source, trunc, compute, **kwargs):
            return run_guarded(source, trunc, counted(compute, calls), **kwargs)

        got = cli_out(counting, argv)
        assert calls == ["PairField"], argv
        assert got == cli_out(two_run_guard, argv) and got[0] == 0, argv


@pytest.mark.parametrize("trunc", [14, 15, 16])
@pytest.mark.parametrize("source", ["cartan-A2", "cartan-A2(q=5)"])
def test_generic_cartan_a2_stays_fused_from_trunc_14(source, trunc):
    """Some Nichols column entry of these degrees is zero at one guard prime
    only, for the generic q (a primitive root at each prime) and for q = 5
    alike.  Columns are fill-in, not kept values: compute runs once, over
    the guard ring, and returns what the two-run guard returns."""
    cap = 2 ** trunc if 2 ** trunc > nichols.DEFAULT_MATRIX_CAP else None
    for name in ("dims", "pbw", "factorize"):
        calls = []

        def compute(sp):
            return COMPUTES[name](GradedQuotient(sp, "nichols", trunc, cap=cap))

        got = run_guarded(source, trunc, counted(compute, calls))
        assert calls == ["PairField"], name
        assert got == two_run_guard(source, trunc, compute), name


@pytest.mark.parametrize("source, word", [
    ("quantum-plane", (1,)), ("cartan-A2(order=3)", (1,)),
    ("cartan-A2(order=3)", (1, 2)), ("cartan-A2", (1,))])
def test_nonneg_quotient_check_stays_fused(source, word):
    """The rank-one series is the Nichols quotient of a one-letter space,
    which the guard ring computes at both primes at once: compute runs
    once, over the guard ring, and returns the two-run guard's report."""
    def compute(sp):
        return nichols.nonneg_quotient_check(GradedQuotient(sp, "nichols", 8), word)

    calls = []
    got = run_guarded(source, 8, counted(compute, calls))
    assert calls == ["PairField"]
    assert got == two_run_guard(source, 8, compute) and got.ok


def test_guarded_checks_leave_the_braiding_memo_alone(monkeypatch):
    """The guard ring compares by identity, so the one-letter space of each
    guarded nonneg_quotient_check would add a braiding memo entry that is
    never hit again.  More such checks than the memo holds leave its size
    unchanged, and a memoized preset still skips the braid-equation check."""
    from lynhopf import freealg
    checks = []
    check = freealg._check_braid_equation
    monkeypatch.setattr(freealg, "_check_braid_equation",
                        lambda *args: checks.append(args) or check(*args))

    def compute(sp):
        return nichols.nonneg_quotient_check(GradedQuotient(sp, "nichols", 6), (1,))

    freealg._validated_braiding.cache_clear()
    build_space("s3-rack")
    run_guarded("cartan-A2(order=3)", 6, compute)
    memo = freealg._validated_braiding.cache_info()
    for _ in range(memo.maxsize + 6):
        assert run_guarded("cartan-A2(order=3)", 6, compute).ok
    assert freealg._validated_braiding.cache_info().currsize == memo.currsize == 3
    checks.clear()
    build_space("s3-rack")
    assert checks == []


@pytest.mark.parametrize("source", [
    "quantum-plane", "quantum-plane(order=5)", "cartan-A2", "cartan-A2(order=3)",
    "cartan-A2(order=4)", "cartan-A2(order=6)"])
def test_guarded_nonneg_quotient_check_matches_the_q_integer_oracle(source):
    """Over the guard ring, the reports for every Lyndon word of length <= 3
    are those the q-integer oracle gives at each prime."""
    def checks(check):
        def compute(sp):
            R = GradedQuotient(sp, "nichols", 10)
            return tuple(check(R, u) for u in words.enumerate_lyndon(2, 3))
        return compute

    got = run_guarded(source, 10, checks(nichols.nonneg_quotient_check))
    assert got == two_run_guard(source, 10, checks(oracle_nonneg_quotient_check))


def test_a_q_integer_zero_at_one_prime_splits_the_guard():
    """q = 2 on one letter: [3]_2 = 7 vanishes mod 7 but not mod 11, so the
    fused run splits, each prime runs alone, and their reports differ."""
    source = {"field": {"prime": 11}, "dim": 1,
              "braiding": {"diagonal": [["2"]]}}

    def compute(sp):
        return nichols.nonneg_quotient_check(GradedQuotient(sp, "nichols", 4), (1,))

    calls = []
    got = outcome(run_guarded, source, 4, counted(compute, calls), second_prime=7)
    assert calls == ["PairField", "PrimeField", "PrimeField"]
    assert got == outcome(two_run_guard, source, 4, compute, second_prime=7)
    assert got[0] is BadPrimeError


def test_a_compute_that_swallows_the_split_still_falls_back():
    """The ring records a split on itself: a compute that catches PrimeSplit
    and returns, or raises something else, is run again at each prime."""
    calls = []

    def swallowing(sp):
        calls.append(type(sp.field).__name__)
        try:
            return sp.field.p % 2
        except PrimeSplit:
            return "swallowed"

    def reraising(sp):
        calls.append(type(sp.field).__name__)
        try:
            return sp.field.char % 2
        except PrimeSplit:
            raise ValueError("not at the primes") from None

    for compute in (swallowing, reraising):
        calls.clear()
        assert run_guarded("quantum-plane", 3, compute) == 1
        assert calls == ["PairField", "PrimeField", "PrimeField"]


def test_the_split_signal_is_no_library_error():
    """No handler of ValueError, RuntimeError, ArithmeticError, KeyError or
    OSError, as the CLI and the library use them, can catch it."""
    for base in (ValueError, RuntimeError, ArithmeticError, KeyError, OSError):
        assert not issubclass(PrimeSplit, base)
    assert issubclass(PrimeSplit, Exception)


def test_an_error_of_both_primes_raises_from_the_fused_run():
    """An error raised at both primes alike is raised by the one fused run,
    without the fallback."""
    calls = []
    with pytest.raises(RuntimeError, match="degree 2: boom"):
        def compute(sp):
            calls.append(type(sp.field).__name__)
            if GradedQuotient(sp, "nichols", 4).dim(2) == 1:
                raise RuntimeError("degree 2: boom")
        run_guarded("quantum-plane", 4, compute)
    assert calls == ["PairField"]
    calls.clear()
    with pytest.raises(nichols.MatrixCapExceeded):
        run_guarded("s3-rack", 10, counted(
            lambda sp: GradedQuotient(sp, "nichols", 10).dim(10), calls))
    assert calls == ["PairField"]
