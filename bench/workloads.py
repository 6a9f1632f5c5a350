"""Workload inputs, job lists and known-answer checks for the benchmark.

Everything here is derived from a seed and from closed forms, never from the
library under test: the random diagonal spaces, the session request stream
and the expected answers are all computed by the benchmark itself.  The
library only ever sees the generated JSON files and the CLI arguments.

Workloads (names are fixed; later changes cite them):

- dims: `nichols dims` through `cli.main`; relation building dominates.
- factorize: `nichols factorize`; the per-Lyndon-word subquotient scans.
- pbw: `nichols pbw`; membership tests and restricted super-words.
- session: a seeded stream of small requests through the Python API.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("dims", "factorize", "pbw", "session")

PRIME = 10007           # field of the generated random diagonal spaces
FREE_DIM = 3            # alphabet size of the generated random spaces
SESSION_PER_KIND = 30   # requests of each kind in one pass of the stream
SESSION_MIN_CALLS = 1000  # requests per run, so ten samples lie beyond p99

# Workloads whose times are scaled to the speed of a fixed reference
# computation run between their calls (worker.reference).  The session's
# requests are small and run from the processor's caches, as the reference
# does, and their time follows the shared host's speed, which drifts by up
# to half over minutes: over ten seeded runs the spread of the session's
# pass time fell from 0.32 to 0.05 of its median when scaled.  The CLI jobs
# build heaps of 40-120 MB and slow by about a quarter as much as the
# reference does, so scaling them by it added spread (dims: 0.11 to 0.17-0.27);
# their times are reported as measured.
REFERENCE_SCALED = ("session",)

# Truncations per job: the full benchmark, and a tiny smoke size.
SIZES = {
    "full": {"dims_a2": 10, "dims_rack": 7, "fact_free": 7, "fact_a2o3": 10,
             "pbw_free": 8, "pbw_a2o3": 10},
    "smoke": {"dims_a2": 5, "dims_rack": 4, "fact_free": 3, "fact_a2o3": 6,
              "pbw_free": 3, "pbw_a2o3": 6},
}


# ---------------------------------------------------------------- combinatorics
#
# Small independent reimplementations used only to state expected answers.

def is_lyndon(w) -> bool:
    """Nonempty and strictly smaller than each of its proper suffixes."""
    w = tuple(w)
    return bool(w) and all(w < w[i:] for i in range(1, len(w)))


def lyndon_words(d: int, n: int) -> list:
    """Every Lyndon word of length 1..n over 1..d, in lexicographic order."""
    out = []
    w = [1]
    while w:
        out.append(tuple(w))
        m = len(w)
        while len(w) < n:
            w.append(w[len(w) - m])
        while w and w[-1] == d:
            w.pop()
        if w:
            w[-1] += 1
    return out


def series_mul(a: list, b: list) -> list:
    n = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def poly(coeffs: dict, trunc: int) -> list:
    """Truncated series with the given {exponent: coefficient}."""
    return [coeffs.get(k, 0) for k in range(trunc + 1)]


def geometric(step: int, trunc: int, height: int | None = None) -> list:
    """1/(1 - t^step), or (1 - t^(step*height))/(1 - t^step), truncated."""
    top = trunc // step if height is None else min(height - 1, trunc // step)
    return poly({k * step: 1 for k in range(top + 1)}, trunc)


def nichols_series(preset: str, trunc: int) -> list:
    """Closed-form Hilbert series of the bundled Nichols presets."""
    if preset == "cartan-A2":              # 1/((1-t)^2 (1-t^2))
        return [sum(n - 2 * k + 1 for k in range(n // 2 + 1))
                for n in range(trunc + 1)]
    if preset == "cartan-A2(order=3)":     # (1+t+t^2)^2 (1+t^2+t^4)
        s = geometric(1, trunc, 3)
        return series_mul(series_mul(s, s), geometric(2, trunc, 3))
    if preset == "quantum-plane":          # (1+t)^2
        return poly({0: 1, 1: 2, 2: 1}, trunc)
    if preset == "s3-rack":                # dimension 12, top degree 4
        return poly({0: 1, 1: 3, 2: 4, 3: 3, 4: 1}, trunc)
    raise ValueError(f"no closed form for {preset}")


def subquotient_closed_form(preset: str, u: tuple, trunc: int) -> list:
    """Subquotient series of a Lyndon word in the rank-two Cartan presets.

    The PBW generators are 1, 12 and 2 (roots of A2); every other Lyndon
    word gives the series 1.  At order 3 each generator has height 3.
    """
    if u not in ((1,), (1, 2), (2,)):
        return poly({0: 1}, trunc)
    height = 3 if preset == "cartan-A2(order=3)" else None
    return geometric(len(u), trunc, height)


def fmt(w) -> str:
    return "".join(str(a) for a in w)


# ---------------------------------------------------------------- inputs

def random_diagonal_space(rng: random.Random, d: int) -> dict:
    """Diagonal braiding with q_ij uniform in F_p^*, as a JSON space."""
    q = [[str(rng.randrange(1, PRIME)) for _ in range(d)] for _ in range(d)]
    return {"field": {"prime": PRIME}, "dim": d, "braiding": {"diagonal": q}}


def _random_word(rng, d, n):
    return tuple(rng.randint(1, d) for _ in range(n))


def _random_lyndon(rng, d, n):
    """A random Lyndon word of length exactly n (least rotation of a word)."""
    while True:
        w = _random_word(rng, d, n)
        w = min(w[i:] + w[:i] for i in range(n))
        if is_lyndon(w):
            return w


_PRESET_DIMS = {"cartan-A2": 2, "quantum-plane": 2, "s3-rack": 3,
                "cartan-A2(order=3)": 2}
_BRACKET_PRESETS = ("cartan-A2", "quantum-plane", "s3-rack")
_DIAGONAL_PRESETS = ("cartan-A2", "quantum-plane", "cartan-A2(order=3)")

# Size parameters of each request kind.  Every pass of the stream holds the
# same number of requests of each kind and cycles through these sizes, so the
# cost of a pass hardly depends on the seed; the seed picks the letters, the
# coefficients and the order of the requests.  Quotient requests stay at low
# degree (about a millisecond each) so that elimination does little here.
# The mix is an assumption, not measured use: nothing records how often a
# user sends each kind or at what size, so each kind gets one equal weight
# and sizes a small query would have.  The session table reports each kind's
# share of the call time, which shows what the latency metrics are made of.
SHAPES = {
    "cfl": [(d, n) for d in (2, 3, 4) for n in (40, 80, 120, 160, 200)],
    "shirshov": [(d, n) for d in (2, 3, 4) for n in (40, 80, 120, 160, 200)],
    "lyndon": [(2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (3, 5)],
    "bracket": [(p, f, n) for p in _BRACKET_PRESETS for f in ("left", "double")
                for n in range(1, 6)],
    "bracket_element": [(p, f, n) for p in _BRACKET_PRESETS
                        for f in ("left", "double") for n in range(1, 6)],
    "expand": [(p, deg, k) for p in _DIAGONAL_PRESETS
               for deg, k in ((2, 1), (3, 2), (3, 3), (4, 2), (4, 4))],
    "hopf": [(p, degs) for p in _BRACKET_PRESETS
             for degs in ((0, 1), (1, 2), (0, 2, 3), (1, 2, 3, 3), (3, 3))],
    "identity": [(2, 6), (2, 8), (2, 10), (2, 12), (3, 5), (3, 6), (3, 7),
                 (3, 8), (4, 5), (4, 6)],
    "hilbert": [("quantum-plane", 3), ("quantum-plane", 4), ("cartan-A2", 3),
                ("cartan-A2", 4), ("cartan-A2", 5), ("cartan-A2(order=3)", 3),
                ("cartan-A2(order=3)", 4), ("cartan-A2(order=3)", 5),
                ("s3-rack", 2), ("s3-rack", 3)],
    "subquotient": [(p, n, t) for p in ("cartan-A2", "cartan-A2(order=3)")
                    for n, t in ((1, 3), (1, 4), (2, 4), (3, 3), (3, 4))],
}


def _terms(rng, d, degrees):
    out = {fmt(_random_word(rng, d, n)): str(rng.randint(1, 1000)) for n in degrees}
    return [{"word": w, "coeff": c} for w, c in sorted(out.items())]


def session_request(rng: random.Random, kind: str, shape: tuple) -> dict:
    """One small request of the given kind and size."""
    if kind in ("cfl", "shirshov"):
        d, n = shape
        w = _random_word(rng, d, n) if kind == "cfl" else _random_lyndon(rng, d, n)
        return {"kind": kind, "word": fmt(w)}
    if kind in ("lyndon", "identity"):
        d, n = shape
        return {"kind": kind, "d": d, ("n" if kind == "lyndon" else "trunc"): n}
    if kind in ("bracket", "bracket_element"):
        preset, flavor, n = shape
        d = _PRESET_DIMS[preset]
        w = _random_lyndon(rng, d, n) if kind == "bracket" else _random_word(rng, d, n)
        return {"kind": kind, "preset": preset, "word": fmt(w), "flavor": flavor}
    if kind == "expand":
        preset, deg, k = shape
        return {"kind": kind, "preset": preset,
                "terms": _terms(rng, _PRESET_DIMS[preset], (deg,) * k)}
    if kind == "hopf":
        preset, degs = shape
        return {"kind": kind, "preset": preset,
                "terms": _terms(rng, _PRESET_DIMS[preset], degs)}
    if kind == "hilbert":
        preset, trunc = shape
        return {"kind": kind, "preset": preset, "trunc": trunc}
    preset, n, trunc = shape
    return {"kind": kind, "preset": preset, "trunc": trunc,
            "word": fmt(_random_lyndon(rng, 2, n))}


def session_stream(rng: random.Random, per_kind: int) -> list:
    """per_kind requests of every kind, cycling through its sizes, shuffled."""
    stream = [session_request(rng, kind, shapes[i % len(shapes)])
              for kind, shapes in SHAPES.items() for i in range(per_kind)]
    rng.shuffle(stream)
    return stream


def write_inputs(workload: str, seed: int, size: str, out_dir: Path) -> list:
    """Write the seeded input files and return the workload's job list.

    A job is {"id", "argv"} for the CLI workloads; the session workload has
    one job per request, {"id", "request"}.  The same seed writes
    byte-identical files.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"lynhopf-bench/{workload}/{seed}")
    sz = SIZES[size]

    def dump(name, obj):
        path = out_dir / name
        path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n",
                        encoding="utf-8")
        return str(path)

    if workload == "dims":
        return [
            {"id": "cartan-A2", "argv": ["nichols", "dims", "--space",
                                         "preset:cartan-A2", "--trunc",
                                         str(sz["dims_a2"])]},
            {"id": "s3-rack", "argv": ["nichols", "dims", "--space",
                                       "preset:s3-rack", "--trunc",
                                       str(sz["dims_rack"])]},
        ]
    if workload in ("factorize", "pbw"):
        space = dump("free3.json", random_diagonal_space(rng, FREE_DIM))
        free, a2 = ("fact_free", "fact_a2o3") if workload == "factorize" else (
            "pbw_free", "pbw_a2o3")
        return [
            {"id": "free-d3", "argv": ["nichols", workload, "--kind", "free",
                                       "--space", space, "--trunc", str(sz[free])]},
            {"id": "cartan-A2(order=3)",
             "argv": ["nichols", workload, "--space", "preset:cartan-A2(order=3)",
                      "--trunc", str(sz[a2])]},
        ]
    if workload == "session":
        stream = session_stream(rng, SESSION_PER_KIND if size == "full" else 4)
        dump("session.json", stream)
        return [{"id": f"{i}:{r['kind']}", "request": r}
                for i, r in enumerate(stream)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- CLI answers

def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _space_arg(argv):
    s = _arg(argv, "--space")
    return s[len("preset:"):] if s.startswith("preset:") else None


def check_cli(argv: list, rc: int, out: str) -> str | None:
    """Known-answer check of one CLI job; None if right, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        obj = json.loads(out)
    except ValueError:
        return "output is not JSON"
    cmd = argv[1]
    trunc = int(_arg(argv, "--trunc"))
    preset = _space_arg(argv)
    free = "--kind" in argv and _arg(argv, "--kind") == "free"
    if cmd == "dims":
        want = nichols_series(preset, trunc)
        return None if obj == {"coeffs": want} else f"coeffs {obj.get('coeffs')} != {want}"
    if cmd == "factorize":
        return _check_factorize(obj, trunc, preset, free)
    if cmd == "pbw":
        return _check_pbw(obj, trunc, preset, free)
    return f"no check for {cmd}"


def _check_factorize(obj, trunc, preset, free):
    if obj.get("ok") is not True or obj.get("trunc") != trunc:
        return "report is not ok"
    lhs = obj["lhs"]["coeffs"]
    if free:
        want_lhs = [FREE_DIM ** n for n in range(trunc + 1)]
        want = {fmt(u): geometric(len(u), trunc) for u in lyndon_words(FREE_DIM, trunc)}
    else:
        want_lhs = nichols_series(preset, trunc)
        want = {fmt(u): subquotient_closed_form(preset, u, trunc)
                for u in lyndon_words(2, trunc)}
        want = {u: s for u, s in want.items() if any(s[1:])}
    if lhs != want_lhs:
        return f"lhs {lhs} != {want_lhs}"
    got = {f["u"]: f["series"]["coeffs"] for f in obj["factors"]}
    if len(got) != len(obj["factors"]) or got != want:
        return "factors differ from the closed form"
    prod = poly({0: 1}, trunc)
    for s in got.values():
        prod = series_mul(prod, s)
    return None if prod == lhs else "product of the factors is not lhs"


def _check_pbw(obj, trunc, preset, free):
    if obj.get("trunc") != trunc:
        return "wrong trunc"
    if free:
        want = [{"word": fmt(u), "height": None}
                for u in sorted(lyndon_words(FREE_DIM, trunc))]
    else:
        want = [{"word": u, "height": 3} for u in ("1", "12", "2")]
    return None if obj["generators"] == want else "generators differ"


# ---------------------------------------------------------------- session

def run_request(lh, req: dict):
    """Perform one session request through the public API; return its result.

    `lh` is a namespace holding the imported lynhopf modules.  Everything
    here is timed, including building the request's own space.
    """
    kind = req["kind"]
    words, freealg, series, nichols = lh.words, lh.freealg, lh.series, lh.nichols
    if kind == "cfl":
        return words.cfl_factorize(words.parse_word(req["word"]))
    if kind == "shirshov":
        return words.shirshov(words.parse_word(req["word"]))
    if kind == "lyndon":
        return words.enumerate_lyndon(req["d"], req["n"])
    if kind == "identity":
        return series.lyndon_identity_check(req["d"], req["trunc"])
    space = freealg.build_space(req["preset"], trunc=req.get("trunc"))
    if kind == "bracket":
        return space, freealg.bracket(space, words.parse_word(req["word"]),
                                      req["flavor"]).value
    if kind == "bracket_element":
        return space, freealg.bracket_element(space, words.parse_word(req["word"]),
                                              req["flavor"])
    if kind in ("expand", "hopf"):
        x = freealg.TensorElement.from_json(space, {"terms": req["terms"]})
        if kind == "expand":
            return x, freealg.expand_monotonic_basis(x)
        return x, freealg.coproduct(x), freealg.antipode(x)
    R = nichols.GradedQuotient(space, "nichols", req["trunc"])
    if kind == "hilbert":
        return R.hilbert_series()
    return nichols.subquotient_series(R, words.parse_word(req["word"]))


def check_request(lh, req: dict, result) -> str | None:
    """Check a session answer against an identity it must satisfy."""
    kind = req["kind"]
    w = tuple(int(c) for c in req.get("word", ""))
    if kind == "cfl":
        factors = [tuple(f) for f in result]
        if sum(factors, ()) != w:
            return "factors do not concatenate to the input"
        if not all(map(is_lyndon, factors)):
            return "a factor is not Lyndon"
        if any(a < b for a, b in zip(factors, factors[1:])):
            return "factors are not non-increasing"
        return None
    if kind == "shirshov":
        left, right = map(tuple, result)
        if left + right != w or not (is_lyndon(left) and is_lyndon(right)):
            return "split is not two Lyndon words making up the input"
        if any(is_lyndon(w[i:]) for i in range(1, len(left))):
            return "right factor is not the longest Lyndon proper suffix"
        return None
    if kind == "lyndon":
        return None if [tuple(u) for u in result] == lyndon_words(
            req["d"], req["n"]) else "Lyndon list differs"
    if kind == "identity":
        return None if result.ok else "identity check failed"
    if kind in ("hilbert", "subquotient"):
        got = list(result.coeffs if kind == "hilbert" else result.series.coeffs)
        want = (nichols_series(req["preset"], req["trunc"]) if kind == "hilbert"
                else subquotient_closed_form(req["preset"], w, req["trunc"]))
        return None if got == want else f"series {got} != {want}"
    if kind in ("bracket", "bracket_element"):
        space, val = result
        one = space.field.one
        if not val.is_homogeneous() or val.degree() != len(w):
            return "bracket is not homogeneous of the word's degree"
        if space.is_diagonal:
            ok = lh.freealg.leading_vector(val) == (w, one)
        else:  # block braidings: no coordinate triangularity, but u occurs once
            ok = val.terms.get(w) == one
        return None if ok else "leading term is not the word with coefficient 1"
    if kind == "expand":
        x, coords = result
        back = x.space.zero()
        for sw, c in coords.items():
            back = back + lh.freealg.bracket_word(x.space, sw).scale(c)
        return None if back == x else "expansion does not round-trip"
    if kind == "hopf":
        return _check_hopf(lh.freealg, *result)
    return f"no check for {kind}"


def _check_hopf(freealg, x, delta, s_x):
    """m(S ox id)Delta(x) = eps(x) 1 = m(id ox S)Delta(x), and S is linear."""
    space = x.space
    fld = space.field
    one = fld.one
    left = right = space.zero()
    for (a, b), c in delta.terms.items():
        xa, xb = space.element({a: one}), space.element({b: one})
        left = left + (freealg.antipode(xa) * xb).scale(c)
        right = right + (xa * freealg.antipode(xb)).scale(c)
    eps = freealg.counit(x)
    want = space.unit().scale(eps) if eps != fld.zero else space.zero()
    if left != want or right != want:
        return "antipode identity fails"
    lin = space.zero()
    for wd, c in x.terms.items():
        lin = lin + freealg.antipode(space.element({wd: one})).scale(c)
    return None if lin == s_x else "antipode is not linear"
