"""The runtime stays pure standard library, keeps only the listed
process-wide memos and per-quotient state, only freealg reads the internals
of a space, only run_guarded reads the whole field in nichols, and the
names the bench tracer wraps exist."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lynhopf"


def imported_modules(path: Path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    allowed = set(sys.stdlib_module_names) | {"lynhopf"}
    outside = {(p.name, name) for p in files for name in imported_modules(p)
               if name not in allowed}
    assert outside == set()


def memo_decorated(path: Path):
    """Names of the functions in one source file that carry a process-wide
    memo: functools.lru_cache, functools.cache or scalars._int_memo, bare,
    called or through a module attribute."""
    memos = {"lru_cache", "cache", "_int_memo"}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "attr", getattr(target, "id", None))
                if name in memos:
                    yield node.name


def test_process_wide_memos_are_the_listed_ones():
    """Every memo that outlives a call is listed here: each had hits on the
    bench's traffic.  State a scan needs lives on its quotient instead."""
    found = sorted(name for p in sorted(SRC.glob("*.py"))
                   for name in memo_decorated(p))
    assert found == sorted(["_validated_braiding", "build_parser", "is_prime",
                            "primitive_root", "next_prime_with"])


def test_nichols_builds_the_listed_spans():
    """One elimination loop per scan: _scan serves the subquotient sweep and
    the hard-letter walk, and pbw_data keeps its own.  A second copy of the
    row/step loop would build an Eliminator somewhere else."""
    tree = ast.parse((SRC / "nichols.py").read_text(encoding="utf-8"))
    builders = {top.name for top in tree.body
                if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                for node in ast.walk(top) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "Eliminator"}
    assert builders == {"_scan", "pbw_data"}


def test_nichols_enumerates_lyndon_words_in_one_place():
    """Every scan reads the one lex-ordered list of _lyndon_words.  A second
    enumeration path would name words.enumerate_lyndon somewhere else: in
    another function, or in a module-level import."""
    tree = ast.parse((SRC / "nichols.py").read_text(encoding="utf-8"))
    places = {getattr(top, "name", "<module>") for top in tree.body
              for node in ast.walk(top)
              if getattr(node, "attr", None) == "enumerate_lyndon"
              or getattr(node, "id", None) == "enumerate_lyndon"
              or isinstance(node, ast.alias) and node.name == "enumerate_lyndon"}
    assert places == {"_lyndon_words"}


def test_quotients_keep_the_listed_state():
    """Every memo a scan needs lives on its quotient; these are all of them,
    for each kind of quotient."""
    from lynhopf.freealg import space_from_preset
    from lynhopf.nichols import GradedQuotient

    sp = space_from_preset("quantum-plane")
    rel = sp.element({(1, 2): sp.field.one, (2, 1): sp.field.neg(sp.field.one)})
    quotients = (GradedQuotient(sp, "nichols", 3), GradedQuotient(sp, "free", 3),
                 GradedQuotient(sp, "presented", 3, relations=(rel,)))
    for R in quotients:
        assert sorted(vars(R)) == sorted([
            "space", "kind", "trunc", "relations", "cap", "_rows", "_dims",
            "_basis", "_nf", "_images", "_derivation"]), R.kind


def test_bench_tracer_names_resolve():
    """bench/tracing.py wraps these by name; the test suite does not run the
    bench, so a rename would otherwise surface only in a traced bench run."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.FUNCTIONS and tracing.METHODS
    for mod, attr, *_ in tracing.FUNCTIONS:
        assert hasattr(importlib.import_module(f"lynhopf.{mod}"), attr), attr
    for mod, cls, meth, *_ in tracing.METHODS:
        owner = getattr(importlib.import_module(f"lynhopf.{mod}"), cls)
        assert meth in vars(owner), (cls, meth)


def test_only_freealg_reads_the_space_internals():
    """A space's braiding map, its inverse and its memo belong to freealg;
    every other module braids through BraidedSpace.braid_words."""
    private = {"_cmap", "_cmap_inv", "_cache"}
    readers = {(p.name, node.attr) for p in sorted(SRC.glob("*.py"))
               if p.name != "freealg.py"
               for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr in private}
    assert readers == set()


def test_only_run_guarded_reads_the_whole_field_in_nichols():
    """The guard ring Z/(p1 p2) has no componentwise answer to these reads
    and splits the fused run on each, so in nichols only run_guarded, which
    picks the primes, makes them; every other value comes from field sums
    and products."""
    whole = {"char", "p", "format", "to_json", "multiplicative_order",
             "element_of_order"}
    tree = ast.parse((SRC / "nichols.py").read_text(encoding="utf-8"))
    readers = {(getattr(top, "name", None), node.attr) for top in tree.body
               if getattr(top, "name", None) != "run_guarded"
               for node in ast.walk(top)
               if isinstance(node, ast.Attribute) and node.attr in whole}
    assert readers == set()
