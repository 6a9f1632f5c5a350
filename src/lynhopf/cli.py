"""Command-line interface: JSON in, JSON out, one subcommand per computation.

Exit codes: 0 success, 1 a verification reported ok=false, 2 usage or
domain errors (malformed input, invalid braiding, resource bounds), which
also print a single-line JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import freealg, nichols, series, words
from .freealg import TensorElement, bracket_element, expand_monotonic_basis
from .nichols import (BadPrimeError, GradedQuotient, MatrixCapExceeded,
                      run_guarded)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def _space_source(arg: str):
    """The preset text after 'preset:', else the JSON object read from arg."""
    if arg.startswith("preset:"):
        return arg[len("preset:"):]
    obj = _read_json(arg)
    if not isinstance(obj, dict):
        raise ValueError("space description must be a JSON object")
    return obj


def _relations(space, obj):
    items = obj["relations"] if isinstance(obj, dict) else obj
    if not isinstance(items, list):
        raise ValueError("relations must be a list of elements")
    return tuple(TensorElement.from_json(space, item) for item in items)


def _emit(args, obj: dict, pretty_lines) -> None:
    if getattr(args, "pretty", False):
        print("\n".join(pretty_lines(obj)))
    else:
        print(json.dumps(obj, separators=(",", ":")))


# ---------------------------------------------------------------- lyndon

def _cmd_lyndon_list(args) -> int:
    out = {
        "alphabet": args.alphabet,
        "max_len": args.max_len,
        "words": [words.format_word(w)
                  for w in words.enumerate_lyndon(args.alphabet, args.max_len)],
    }
    _emit(args, out, lambda o: o["words"])
    return 0


def _cmd_lyndon_factorize(args) -> int:
    w = words.parse_word(args.word)
    out = {"factors": [words.format_word(f) for f in words.cfl_factorize(w)]}
    _emit(args, out, lambda o: [" ".join(o["factors"]) or "(empty)"])
    return 0


def _cmd_lyndon_shirshov(args) -> int:
    w = words.parse_word(args.word)
    left, right = words.shirshov(w)
    out = {"left": words.format_word(left), "right": words.format_word(right)}
    _emit(args, out, lambda o: [f"{o['left']} | {o['right']}"])
    return 0


# ---------------------------------------------------------------- bracket / expand

def _cmd_bracket(args) -> int:
    space = freealg.build_space(_space_source(args.space), prime=args.prime)
    w = words.parse_word(args.word)
    flavor = "double" if args.double else "left"
    val = bracket_element(space, w, flavor)
    _emit(args, val.to_json(),
          lambda o: [f"{t['coeff']} * {t['word'] or '1'}" for t in o["terms"]]
          or ["0"])
    return 0


def _cmd_expand(args) -> int:
    if args.element == args.space == "-":
        raise UsageError("element and --space cannot both read stdin")
    space = freealg.build_space(_space_source(args.space), prime=args.prime)
    x = TensorElement.from_json(space, _read_json(args.element))
    coords = expand_monotonic_basis(x)
    fmt = space.field.format
    items = [{"superword": [words.format_word(f) for f in sw],
              "coeff": fmt(c)}
             for sw, c in sorted(coords.items())]
    out = {"coords": items}
    _emit(args, out,
          lambda o: [f"{it['coeff']} * [{']['.join(it['superword'])}]"
                     for it in o["coords"]] or ["0"])
    return 0


# ---------------------------------------------------------------- tv

def _cmd_tv_identity(args) -> int:
    rep = series.lyndon_identity_check(args.alphabet, args.trunc)
    out = {"ok": rep.ok, "trunc": args.trunc,
           "lhs": rep.lhs.to_json(), "rhs": rep.rhs.to_json()}
    _emit(args, out, lambda o: [f"ok: {o['ok']}",
                                f"lhs: {o['lhs']['coeffs']}",
                                f"rhs: {o['rhs']['coeffs']}"])
    return 0 if rep.ok else 1


# ---------------------------------------------------------------- nichols

def _run_nichols(args, compute):
    """Evaluate compute(quotient) under the two-prime guard."""
    if args.space == args.relations == "-":
        raise UsageError("--space and --relations cannot both read stdin")
    source = _space_source(args.space)
    path = args.relations
    obj = None if path is None else _read_json(path)

    def build(space):
        rels = () if path is None else _relations(space, obj)
        return GradedQuotient(space, args.kind, args.trunc, relations=rels)

    return run_guarded(source, args.trunc,
                       lambda space: compute(build(space)),
                       prime=args.prime, second_prime=args.second_prime)


def _cmd_nichols_dims(args) -> int:
    coeffs = _run_nichols(
        args, lambda R: list(R.hilbert_series(args.trunc).coeffs))
    out = {"coeffs": coeffs}
    _emit(args, out, lambda o: [f"{n}: {c}" for n, c in enumerate(o["coeffs"])])
    return 0


def _cmd_nichols_pbw(args) -> int:
    data = _run_nichols(args, lambda R: nichols.pbw_data(R, args.trunc))
    out = {"trunc": data.trunc,
           "generators": [{"word": words.format_word(g.word), "height": g.height}
                          for g in data.generators]}
    _emit(args, out,
          lambda o: [f"{g['word']}: height {g['height'] if g['height'] is not None else 'infinite'}"
                     for g in o["generators"]] or ["(none)"])
    return 0


def _cmd_nichols_factorize(args) -> int:
    rep = _run_nichols(args, lambda R: nichols.verify_factorization(R, args.trunc))
    one = series.PowerSeries.one(rep.trunc).coeffs
    factors = [f for f in rep.factors if args.full or f.series.coeffs != one]
    out = {"ok": rep.ok, "trunc": rep.trunc, "lhs": rep.lhs.to_json(),
           "factors": [{"u": words.format_word(f.word),
                        "series": f.series.to_json()} for f in factors]}
    _emit(args, out,
          lambda o: [f"ok: {o['ok']}", f"lhs: {o['lhs']['coeffs']}"]
          + [f"  {f['u']}: {f['series']['coeffs']}" for f in o["factors"]])
    return 0 if rep.ok else 1


def _cmd_nichols_subquotient(args) -> int:
    u = words.parse_word(args.word)
    sq = _run_nichols(args, lambda R: nichols.subquotient_series(R, u, args.trunc))
    out = {"u": words.format_word(sq.word), "series": sq.series.to_json()}
    _emit(args, out, lambda o: [f"{o['u']}: {o['series']['coeffs']}"])
    return 0


# ---------------------------------------------------------------- wiring

def _add_space_opts(p, with_trunc=True):
    p.add_argument("--space", required=True,
                   help="space JSON file, '-' for stdin, or preset:<name>")
    p.add_argument("--prime", type=int, default=None,
                   help="override the coefficient prime")
    if with_trunc:
        p.add_argument("--trunc", type=int, required=True)


def _add_quotient_opts(p):
    p.add_argument("--kind", choices=GradedQuotient.KINDS, default="nichols")
    p.add_argument("--relations", default=None,
                   help="JSON file with {'relations': [elements]} for kind=presented")
    p.add_argument("--second-prime", type=int, default=None, dest="second_prime",
                   help="override the guard prime")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing keeps no state
    in it, so every main() call reuses it."""
    top = _Parser(prog="lynhopf",
                  description="Lyndon-word calculus on free braided algebras")
    top.add_argument("--pretty", action="store_true",
                     help="human-readable output instead of JSON")
    sub = top.add_subparsers(dest="command", required=True)

    lyndon = sub.add_parser("lyndon", help="Lyndon word combinatorics")
    lsub = lyndon.add_subparsers(dest="subcommand", required=True)
    p = lsub.add_parser("list", help="Lyndon words up to a length")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True, dest="max_len")
    p.set_defaults(func=_cmd_lyndon_list)
    p = lsub.add_parser("factorize", help="non-increasing Lyndon factorization")
    p.add_argument("word")
    p.set_defaults(func=_cmd_lyndon_factorize)
    p = lsub.add_parser("shirshov", help="split off the longest Lyndon right factor")
    p.add_argument("word")
    p.set_defaults(func=_cmd_lyndon_shirshov)

    p = sub.add_parser("bracket", help="bracketing of a word in the free braided algebra")
    p.add_argument("word")
    p.add_argument("--double", action="store_true",
                   help="use the braiding instead of its inverse in the twist")
    _add_space_opts(p, with_trunc=False)
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("expand", help="coordinates in the monotonic bracket-word basis")
    p.add_argument("element", help="element JSON file, '-' for stdin")
    _add_space_opts(p, with_trunc=False)
    p.set_defaults(func=_cmd_expand)

    tv = sub.add_parser("tv", help="tensor algebra checks")
    tsub = tv.add_subparsers(dest="subcommand", required=True)
    p = tsub.add_parser("identity-check",
                        help="Lyndon product formula for the free-algebra series")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--trunc", type=int, required=True)
    p.set_defaults(func=_cmd_tv_identity)

    nich = sub.add_parser("nichols", help="graded quotients of the tensor algebra")
    nsub = nich.add_subparsers(dest="subcommand", required=True)
    p = nsub.add_parser("dims", help="dimensions of the graded components")
    _add_space_opts(p)
    _add_quotient_opts(p)
    p.set_defaults(func=_cmd_nichols_dims)
    p = nsub.add_parser("pbw", help="hard Lyndon generators and heights")
    _add_space_opts(p)
    _add_quotient_opts(p)
    p.set_defaults(func=_cmd_nichols_pbw)
    p = nsub.add_parser("factorize", help="Hilbert series factorization check")
    p.add_argument("--full", action="store_true",
                   help="include factors equal to 1")
    _add_space_opts(p)
    _add_quotient_opts(p)
    p.set_defaults(func=_cmd_nichols_factorize)
    p = nsub.add_parser("subquotient", help="series of one subquotient A/I")
    p.add_argument("--word", required=True)
    _add_space_opts(p)
    _add_quotient_opts(p)
    p.set_defaults(func=_cmd_nichols_subquotient)

    return top


_ERROR_KINDS = (
    (UsageError, "usage"),
    (MatrixCapExceeded, "resource"),
    (BadPrimeError, "bad-prime"),
    (NotImplementedError, "unsupported"),
    (json.JSONDecodeError, "parse"),
    (OSError, "io"),
    (ZeroDivisionError, "domain"),
    (ValueError, "domain"),
    (KeyError, "parse"),
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except tuple(e for e, _ in _ERROR_KINDS) as exc:
        for etype, kind in _ERROR_KINDS:
            if isinstance(exc, etype):
                err = {"error": str(exc) or etype.__name__, "kind": kind}
                print(json.dumps(err, separators=(",", ":")), file=sys.stderr)
                return 2
        raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
