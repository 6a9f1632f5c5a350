"""Per-layer tracing for the benchmark, done from outside the library.

A `Tracer` wraps the entry points of each lynhopf module (a layer) while it
is installed.  Coarse entry points record a span each: name, start, end,
parent span, job id, degree and prime.  Entry points called hundreds of
thousands of times (elimination, brackets) are aggregated per name instead
of stored, but they still count as children of the enclosing span, so self
times stay exact.  `rref` does its forward elimination through
`Eliminator.insert`; those inserts are aggregated apart from the others
(under `linalg.insert.in_rref`), so the insert metrics cover the scans alone
and `linalg.rref_s` covers both halves of `rref`.  Functions called millions
of times (field operations,
`cfl_factorize`, `braid_words`) are not wrapped at all: `profile_counts`
counts them in a separate cProfile pass, whose call counts repeat exactly.

Wrappers replace every module attribute that is the original function, so
names imported with `from .linalg import rref` (as `nichols` and `cli` do)
are traced as well.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import time

CACHE_KINDS = ("sym", "br", "bw", "cfl_table", "blbr", "blbw", "cop", "anti")

# (module, attribute, span name, stored?) for module-level functions.
FUNCTIONS = (
    ("cli", "main", "cli.main", True),
    ("cli", "build_parser", "cli.build_parser", True),
    ("nichols", "run_guarded", "nichols.run_guarded", True),
    ("nichols", "symmetrizer", "nichols.symmetrizer", True),
    ("nichols", "subquotient_series", "nichols.subquotient", True),
    ("nichols", "pbw_data", "nichols.pbw", True),
    ("nichols", "verify_factorization", "nichols.verify_factorization", True),
    ("nichols", "_block_bracket", "freealg.bracket", False),
    ("nichols", "_block_bracket_word", "freealg.bracket", False),
    ("linalg", "kernel", "linalg.kernel", True),
    ("linalg", "rref", "linalg.rref", True),
    ("linalg", "reduce_mod", "linalg.reduce_mod", False),
    ("freealg", "build_space", "freealg.build_space", True),
    ("freealg", "bracket", "freealg.bracket", False),
    ("freealg", "bracket_element", "freealg.bracket", False),
    ("freealg", "_bracket_value", "freealg.bracket", False),
    ("freealg", "_bracket_word_value", "freealg.bracket", False),
    ("freealg", "_m_braid", "freealg.bracket", False),
    ("freealg", "coproduct", "freealg.coproduct", True),
    ("freealg", "antipode", "freealg.antipode", True),
    ("freealg", "expand_monotonic_basis", "freealg.expand", True),
    ("scalars", "next_prime_with", "scalars.prime_search", True),
    ("series", "lyndon_identity_check", "series.lyndon_identity", True),
)

# (module, class, method, span name, stored?)
METHODS = (
    ("nichols", "GradedQuotient", "_ensure", "nichols.ensure", True),
    ("linalg", "Eliminator", "insert", "linalg.insert", False),
    ("linalg", "Eliminator", "contains", "linalg.contains", False),
)


def _degree_prime(name, args):
    """Degree and prime of a stage span, read from its arguments."""
    if name == "nichols.ensure":
        return args[1], args[0].space.field.char
    if name == "nichols.symmetrizer":
        return args[1], args[0].field.char
    if name in ("nichols.subquotient", "nichols.pbw",
                "nichols.verify_factorization"):
        deg = len(args[1]) if name == "nichols.subquotient" else args[0].trunc
        return deg, args[0].space.field.char
    if name in ("linalg.kernel", "linalg.rref"):
        return None, args[0].char
    return None, None


class Tracer:
    """Spans and per-name aggregates of one traced pass, kept in memory."""

    def __init__(self, lh):
        self.lh = lh
        self.spans: list = []
        self.agg: dict = {}        # name -> [calls, total_s, self_s]
        self.counts: dict = {}
        self.guard: list = []      # per guarded call: primes and seconds
        self.spaces: list = []     # spaces built during the current job
        self.cache_entries: list = []  # per space: job, prime, entries per kind
        self.job = None
        self.active = False
        self.rref_depth = 0        # > 0 while a traced rref is running
        self._stack: list = []     # [start, child_s, span index or None]
        self._saved: list = []

    # ------------------------------------------------------------ recording

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _enter(self, stored, name, degree=None, prime=None):
        idx = None
        if stored:
            parent = next((f[2] for f in reversed(self._stack)
                           if f[2] is not None), None)
            idx = len(self.spans)
            self.spans.append({"id": idx, "parent": parent, "name": name,
                               "job": self.job, "degree": degree,
                               "prime": prime})
        self._stack.append([time.perf_counter(), 0.0, idx])

    def _exit(self, name):
        start, child, idx = self._stack.pop()
        end = time.perf_counter()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        a = self.agg.setdefault(name, [0, 0.0, 0.0])
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        if idx is not None:
            self.spans[idx].update(start=start, end=end, self_s=dur - child)

    def _wrap(self, name, fn, stored):
        tracer = self
        if not stored:
            return self._wrap_aggregated(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(True, name, *_degree_prime(name, args))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(name)
            tracer._observe(name, out)
            return out

        return wrapper

    def _wrap_aggregated(self, name, fn):
        """The _enter/_exit bookkeeping inlined, for the hottest entry points."""
        tracer = self
        stack = self._stack
        own = self.agg.setdefault(name, [0, 0.0, 0.0])
        in_rref = self.agg.setdefault(name + ".in_rref", [0, 0.0, 0.0])
        clock = time.perf_counter
        count_useful = name == "linalg.insert"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            agg = in_rref if tracer.rref_depth else own
            frame = [clock(), 0.0, None]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
            if count_useful and out and not tracer.rref_depth:
                tracer.count("insert_useful")
            return out

        return wrapper

    def _observe(self, name, out):
        if name == "linalg.rref":
            self.count("rank", len(out))
        elif name == "freealg.build_space":
            self.spaces.append(out)

    # ------------------------------------------------------------ special cases

    def _wrap_rref(self, fn):
        tracer = self
        traced = self._wrap("linalg.rref", fn, True)

        @functools.wraps(fn)
        def wrapper(field, rows):
            if not tracer.active:
                return fn(field, rows)

            def counted():
                for r in rows:
                    tracer.count("rref_rows")
                    yield r

            tracer.rref_depth += 1
            try:
                return traced(field, counted())
            finally:
                tracer.rref_depth -= 1

        return wrapper

    def _wrap_superwords(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen

            def counted():
                for sw in gen:
                    tracer.count("superwords")
                    yield sw

            return counted()

        return wrapper

    def _wrap_guard(self, fn):
        """Time each prime of the two-prime guard as its own span."""
        tracer = self
        traced = self._wrap("nichols.run_guarded", fn, True)

        @functools.wraps(fn)
        def wrapper(source, trunc, compute, *args, **kwargs):
            if not tracer.active:
                return fn(source, trunc, compute, *args, **kwargs)
            record = {"job": tracer.job, "primes": [], "seconds": []}
            tracer.guard.append(record)

            def timed(space):
                prime = space.field.char
                tracer._enter(True, "nichols.guard.prime", None, prime)
                t0 = time.perf_counter()
                try:
                    return compute(space)
                finally:
                    record["seconds"].append(time.perf_counter() - t0)
                    record["primes"].append(prime)
                    if len(record["seconds"]) == 2:
                        record["second_share"] = (
                            record["seconds"][1] / sum(record["seconds"]))
                    tracer._exit("nichols.guard.prime")

            return traced(source, trunc, timed, *args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ install

    def _replace(self, original, wrapper):
        """Point every lynhopf module attribute holding `original` at wrapper."""
        for mod in self.lh.modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def install(self):
        lh = self.lh
        for modname, attr, name, stored in FUNCTIONS:
            fn = getattr(getattr(lh, modname), attr)
            if name == "linalg.rref":
                wrapper = self._wrap_rref(fn)
            elif name == "nichols.run_guarded":
                wrapper = self._wrap_guard(fn)
            else:
                wrapper = self._wrap(name, fn, stored)
            self._replace(fn, wrapper)
        sw = lh.words.monotonic_superwords
        self._replace(sw, self._wrap_superwords(sw))
        for modname, cls_name, meth, name, stored in METHODS:
            cls = getattr(getattr(lh, modname), cls_name)
            fn = vars(cls)[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(name, fn, stored))
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved.clear()

    # ------------------------------------------------------------ jobs

    def end_job(self):
        """Read the cache of every space the job built, from outside."""
        for space in self.spaces:
            entries = {k: 0 for k in CACHE_KINDS}
            for key, val in space._cache.items():
                kind = key[0] if isinstance(key, tuple) else key
                if kind in entries:
                    entries[kind] += 1
                if kind == "sym":
                    self.count("symmetrizer_nnz", sum(len(c) for c in val.values()))
            self.cache_entries.append(
                {"job": self.job, "prime": space.field.char, **entries})
        self.spaces = []

    # ------------------------------------------------------------ metrics

    def self_s(self, *names):
        return sum(self.agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    def total_s(self, name):
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name):
        return self.agg.get(name, (0, 0.0, 0.0))[0]

    def layer_metrics(self) -> dict:
        c = self.counts.get
        first = sum(r["seconds"][0] for r in self.guard if r["seconds"])
        second = sum(r["seconds"][1] for r in self.guard if len(r["seconds"]) > 1)
        inserts = self.calls("linalg.insert")
        out = {
            "cli.self_s": (self.self_s("cli.main", "cli.build_parser"), "s"),
            "nichols.guard.first_s": (first, "s"),
            "nichols.guard.second_s": (second, "s"),
            "nichols.guard.second_share": (
                second / (first + second) if first + second else 0.0, "ratio"),
            "nichols.ensure_s": (self.self_s("nichols.ensure"), "s"),
            "nichols.symmetrizer_s": (self.self_s("nichols.symmetrizer"), "s"),
            "nichols.symmetrizer_nnz": (c("symmetrizer_nnz", 0), "count"),
            "nichols.subquotient_s": (self.self_s("nichols.subquotient"), "s"),
            "nichols.subquotient_calls": (self.calls("nichols.subquotient"), "count"),
            "nichols.pbw_s": (self.self_s("nichols.pbw"), "s"),
            "linalg.kernel_s": (self.self_s("linalg.kernel"), "s"),
            "linalg.rref_s": (self.total_s("linalg.rref"), "s"),
            "linalg.rref_rows": (c("rref_rows", 0), "count"),
            "linalg.rank": (c("rank", 0), "count"),
            "linalg.rref_insert_calls": (
                self.calls("linalg.insert.in_rref"), "count"),
            "linalg.eliminator_s": (
                self.self_s("linalg.insert", "linalg.contains"), "s"),
            "linalg.insert_calls": (inserts, "count"),
            "linalg.insert_useful_ratio": (
                c("insert_useful", 0) / inserts if inserts else 0.0, "ratio"),
            "linalg.contains_calls": (self.calls("linalg.contains"), "count"),
            "linalg.reduce_mod_calls": (self.calls("linalg.reduce_mod"), "count"),
            "linalg.reduce_mod_s": (self.self_s("linalg.reduce_mod"), "s"),
            "freealg.bracket_s": (self.self_s("freealg.bracket"), "s"),
            "freealg.coproduct_s": (self.self_s("freealg.coproduct"), "s"),
            "freealg.antipode_s": (self.self_s("freealg.antipode"), "s"),
            "freealg.expand_s": (self.self_s("freealg.expand"), "s"),
            "freealg.build_space_s": (self.self_s("freealg.build_space"), "s"),
            "freealg.cache_entries": (max(
                (sum(e[k] for k in CACHE_KINDS) for e in self.cache_entries),
                default=0), "count"),
            "scalars.prime_search_s": (self.self_s("scalars.prime_search"), "s"),
            "words.superwords": (c("superwords", 0), "count"),
            "series.lyndon_identity_s": (self.self_s("series.lyndon_identity"), "s"),
        }
        for kind in CACHE_KINDS:
            out[f"freealg.cache_entries.{kind}"] = (
                max((e[kind] for e in self.cache_entries), default=0), "count")
        return out


def profile_counts(run_pass) -> dict:
    """Call counts of the hottest functions, from one pass under cProfile."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run_pass()
    finally:
        prof.disable()
    field_ops = cfl = braid = 0
    for (path, _line, func), row in pstats.Stats(prof).stats.items():
        calls = row[1]
        path = path.replace("\\", "/")
        if path.endswith("lynhopf/scalars.py") and func in (
                "add", "sub", "mul", "inv", "neg"):
            field_ops += calls
        elif path.endswith("lynhopf/words.py") and func == "cfl_factorize":
            cfl += calls
        elif path.endswith("lynhopf/freealg.py") and func == "braid_words":
            braid += calls
    return {"scalars.field_ops": (field_ops, "count"),
            "words.cfl_factorize_calls": (cfl, "count"),
            "freealg.braid_words_calls": (braid, "count")}
