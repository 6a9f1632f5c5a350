"""End-to-end command-line behavior: shapes, exit codes, error objects."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lynhopf import cli, nichols
from lynhopf.nichols import BadPrimeError, FactorizationReport
from lynhopf.scalars import PrimeField, primitive_root
from lynhopf.series import PowerSeries


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert err == ""
    assert out.count("\n") == 1  # single-line JSON
    return code, json.loads(out)


def run_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    obj = json.loads(err)
    assert set(obj) == {"error", "kind"}
    return obj


# ------------------------------------------------------------------ lyndon

def test_lyndon_list(capsys):
    code, obj = run_json(capsys, ["lyndon", "list", "--alphabet", "2",
                                  "--max-len", "3"])
    assert code == 0
    assert obj == {"alphabet": 2, "max_len": 3,
                   "words": ["1", "112", "12", "122", "2"]}


def test_lyndon_factorize(capsys):
    code, obj = run_json(capsys, ["lyndon", "factorize", "2112"])
    assert code == 0 and obj == {"factors": ["2", "112"]}
    code, obj = run_json(capsys, ["lyndon", "factorize", ""])
    assert obj == {"factors": []}


def test_lyndon_shirshov(capsys):
    code, obj = run_json(capsys, ["lyndon", "shirshov", "1231233"])
    assert code == 0 and obj == {"left": "123", "right": "1233"}


def test_lyndon_pretty(capsys):
    code, out, err = run(capsys, ["--pretty", "lyndon", "list",
                                  "--alphabet", "2", "--max-len", "2"])
    assert code == 0
    assert out.splitlines() == ["1", "12", "2"]


# ------------------------------------------------------- bracket and expand

def test_bracket_flavors(capsys):
    code, obj = run_json(capsys, ["bracket", "12",
                                  "--space", "preset:cartan-A2"])
    assert code == 0
    f = PrimeField(10007)
    assert obj == {"terms": [{"word": "12", "coeff": "1"},
                             {"word": "21", "coeff": f.format(f.neg(f.one))}]}
    code, obj = run_json(capsys, ["bracket", "12", "--double",
                                  "--space", "preset:cartan-A2"])
    g = f.from_int(primitive_root(10007))
    assert obj["terms"][1] == {"word": "21",
                               "coeff": f.format(f.neg(f.inv(g)))}


def test_bracket_prime_override(capsys):
    code, obj = run_json(capsys, ["bracket", "122", "--space",
                                  "preset:quantum-plane", "--prime", "13"])
    assert code == 0
    for term in obj["terms"]:
        assert 0 <= int(term["coeff"]) < 13


def test_expand(capsys, tmp_path):
    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps({"terms": [{"word": "12", "coeff": "1"}]}))
    code, obj = run_json(capsys, ["expand", str(elem),
                                  "--space", "preset:quantum-plane"])
    assert code == 0
    assert obj == {"coords": [{"superword": ["12"], "coeff": "1"},
                              {"superword": ["2", "1"], "coeff": "1"}]}


def test_space_from_stdin(capsys, monkeypatch):
    space_json = json.dumps({"field": {"prime": 10007}, "dim": 2,
                             "braiding": {"diagonal": [["1", "1"], ["1", "1"]]}})
    monkeypatch.setattr("sys.stdin", io.StringIO(space_json))
    code, obj = run_json(capsys, ["bracket", "12", "--space", "-"])
    assert code == 0
    assert obj["terms"] == [{"word": "12", "coeff": "1"},
                            {"word": "21", "coeff": "10006"}]


@pytest.mark.parametrize("argv,inputs", [
    (["expand", "-", "--space", "-"], "element and --space"),
    (["nichols", "dims", "--space", "-", "--trunc", "3", "--kind", "presented",
      "--relations", "-"], "--space and --relations"),
])
def test_two_inputs_from_stdin_is_a_usage_error(capsys, monkeypatch, argv, inputs):
    """Only one input can read stdin; the second would read an empty string.
    The command refuses before it reads anything."""
    stdin = io.StringIO("{}")
    monkeypatch.setattr("sys.stdin", stdin)
    assert run_error(capsys, argv) == {
        "error": f"{inputs} cannot both read stdin", "kind": "usage"}
    assert stdin.tell() == 0


# ---------------------------------------------------------------------- tv

def test_tv_identity_check(capsys):
    code, obj = run_json(capsys, ["tv", "identity-check",
                                  "--alphabet", "2", "--trunc", "6"])
    assert code == 0
    assert obj["ok"] is True
    assert obj["lhs"] == obj["rhs"] == {"trunc": 6,
                                        "coeffs": [1, 2, 4, 8, 16, 32, 64]}


def test_tv_identity_failure_exit(capsys, monkeypatch):
    from lynhopf.series import IdentityReport
    one = PowerSeries.one(2)
    monkeypatch.setattr("lynhopf.cli.series.lyndon_identity_check",
                        lambda d, n: IdentityReport(False, one, one))
    code, obj = run_json(capsys, ["tv", "identity-check",
                                  "--alphabet", "2", "--trunc", "2"])
    assert code == 1 and obj["ok"] is False


# ------------------------------------------------------------------ nichols

def test_nichols_dims(capsys):
    code, obj = run_json(capsys, ["nichols", "dims", "--space",
                                  "preset:quantum-plane", "--trunc", "4"])
    assert code == 0 and obj == {"coeffs": [1, 2, 1, 0, 0]}


def test_nichols_dims_free_kind(capsys):
    code, obj = run_json(capsys, ["nichols", "dims", "--space",
                                  "preset:quantum-plane", "--trunc", "3",
                                  "--kind", "free"])
    assert code == 0 and obj == {"coeffs": [1, 2, 4, 8]}


def test_nichols_dims_presented(capsys, tmp_path):
    rels = tmp_path / "rels.json"
    rels.write_text(json.dumps({"relations": [
        {"terms": [{"word": "11", "coeff": "1"}]},
        {"terms": [{"word": "22", "coeff": "1"}]},
        {"terms": [{"word": "12", "coeff": "1"},
                   {"word": "21", "coeff": "-1"}]},
    ]}))
    code, obj = run_json(capsys, ["nichols", "dims", "--space",
                                  "preset:quantum-plane", "--trunc", "4",
                                  "--kind", "presented",
                                  "--relations", str(rels)])
    assert code == 0 and obj == {"coeffs": [1, 2, 1, 0, 0]}


def test_nichols_dims_presented_relations_from_stdin(capsys, monkeypatch):
    """The relations are read once, though the guard builds two quotients."""
    rels = json.dumps({"relations": [
        {"terms": [{"word": "11", "coeff": "1"}]},
        {"terms": [{"word": "22", "coeff": "1"}]},
        {"terms": [{"word": "12", "coeff": "1"},
                   {"word": "21", "coeff": "-1"}]},
    ]})
    monkeypatch.setattr("sys.stdin", io.StringIO(rels))
    code, obj = run_json(capsys, ["nichols", "dims", "--space",
                                  "preset:quantum-plane", "--trunc", "4",
                                  "--kind", "presented", "--relations", "-"])
    assert code == 0 and obj == {"coeffs": [1, 2, 1, 0, 0]}


def test_nichols_dims_presented_non_coideal(capsys, tmp_path):
    rels = tmp_path / "rels.json"
    rels.write_text(json.dumps({"relations": [
        {"terms": [{"word": "1212", "coeff": "1"},
                   {"word": "2121", "coeff": "1"}]},
    ]}))
    obj = run_error(capsys, ["nichols", "dims", "--space",
                             "preset:quantum-plane", "--trunc", "5",
                             "--kind", "presented", "--relations", str(rels)])
    assert obj == {"error": "relations do not generate a coideal at degree 4",
                   "kind": "domain"}


def test_nichols_pbw(capsys):
    code, obj = run_json(capsys, ["nichols", "pbw", "--space",
                                  "preset:quantum-plane", "--trunc", "4"])
    assert code == 0
    assert obj == {"trunc": 4, "generators": [{"word": "1", "height": 2},
                                              {"word": "2", "height": 2}]}


def test_nichols_factorize(capsys):
    argv = ["nichols", "factorize", "--space", "preset:quantum-plane",
            "--trunc", "4"]
    code, obj = run_json(capsys, argv)
    assert code == 0
    assert obj["ok"] is True
    assert obj["lhs"] == {"trunc": 4, "coeffs": [1, 2, 1, 0, 0]}
    assert [f["u"] for f in obj["factors"]] == ["1", "2"]
    # --full keeps the factors equal to 1; there are 8 Lyndon words of len <= 4
    code, full = run_json(capsys, argv + ["--full"])
    assert len(full["factors"]) == 8


def test_nichols_factorize_rack(capsys):
    code, obj = run_json(capsys, ["nichols", "factorize", "--space",
                                  "preset:s3-rack", "--trunc", "4"])
    assert code == 0
    assert obj["ok"] is True
    assert obj["factors"] == [{"u": "1", "series": {"trunc": 4,
                                                    "coeffs": [1, 3, 4, 3, 1]}}]


def test_nichols_factorize_failure_exit(capsys, monkeypatch):
    one = PowerSeries.one(2)
    fake = FactorizationReport(False, 2, one, one, ())
    monkeypatch.setattr("lynhopf.nichols.verify_factorization",
                        lambda R, trunc=None: fake)
    code, obj = run_json(capsys, ["nichols", "factorize", "--space",
                                  "preset:quantum-plane", "--trunc", "2"])
    assert code == 1 and obj["ok"] is False


def test_nichols_subquotient(capsys):
    code, obj = run_json(capsys, ["nichols", "subquotient", "--word", "1",
                                  "--space", "preset:quantum-plane",
                                  "--trunc", "4"])
    assert code == 0
    assert obj == {"u": "1", "series": {"trunc": 4, "coeffs": [1, 1, 0, 0, 0]}}


def test_nichols_dims_pretty(capsys):
    code, out, err = run(capsys, ["--pretty", "nichols", "dims", "--space",
                                  "preset:quantum-plane", "--trunc", "2"])
    assert code == 0
    assert out.splitlines() == ["0: 1", "1: 2", "2: 1"]


def test_output_is_deterministic(capsys):
    argv = ["nichols", "factorize", "--space", "preset:cartan-A2",
            "--trunc", "4"]
    outs = set()
    for _ in range(2):
        code, out, err = run(capsys, argv)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

# recorded stdout of each command, in tests/data/<name>.out
PINNED = {
    "factorize-full-cartan-A2-trunc8": [
        "nichols", "factorize", "--full", "--space", "preset:cartan-A2",
        "--trunc", "8"],
    "factorize-full-cartan-A2-order3-trunc8": [
        "nichols", "factorize", "--full", "--space",
        "preset:cartan-A2(order=3)", "--trunc", "8"],
    "factorize-full-free-cartan-A2-trunc10": [
        "nichols", "factorize", "--full", "--kind", "free", "--space",
        "preset:cartan-A2", "--trunc", "10"],
    "factorize-full-s3-rack-trunc5": [
        "nichols", "factorize", "--full", "--space", "preset:s3-rack",
        "--trunc", "5"],
    "subquotient-12-cartan-A2-order3-trunc8": [
        "nichols", "subquotient", "--word", "12", "--space",
        "preset:cartan-A2(order=3)", "--trunc", "8"],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_sweep_output_is_pinned(capsys, name):
    code, out, err = run(capsys, PINNED[name])
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / f"{name}.out").read_bytes()


REPEATED = (
    ["--pretty", "nichols", "factorize", "--space", "preset:cartan-A2",
     "--trunc", "6"],
    ["nichols", "factorize", "--space", "preset:cartan-A2", "--trunc", "6"],
    ["lyndon", "list"],
    ["lyndon", "list", "--alphabet", "2", "--max-len", "4"],
)


def test_repeated_main_calls_match_first_calls(capsys):
    """main() reuses one parser per process: pretty output, plain JSON, a
    usage error and a valid command in a row each give what they give as
    the first call of a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    first = []
    for argv in REPEATED:
        proc = subprocess.run([sys.executable, "-m", "lynhopf.cli", *argv],
                              capture_output=True, env=env, check=False)
        first.append((proc.returncode, proc.stdout, proc.stderr))
    assert [rc for rc, _, _ in first] == [0, 0, 2, 0]
    for _ in range(2):
        for argv, want in zip(REPEATED, first):
            code, out, err = run(capsys, argv)
            assert (code, out.encode(), err.encode()) == want, argv


def test_python_m_runs_the_cli_from_a_checkout():
    """python -m lynhopf.cli with src on PYTHONPATH runs the CLI of a
    checkout that was never installed: README's line on success, and one
    JSON error line with exit code 2 on a usage error."""
    env = dict(os.environ, PYTHONPATH="src")

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "lynhopf.cli", *argv],
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, check=False)

    ok = python_m("lyndon", "list", "--alphabet", "2", "--max-len", "3")
    assert (ok.returncode, ok.stderr) == (0, "")
    assert ok.stdout == (
        '{"alphabet":2,"max_len":3,"words":["1","112","12","122","2"]}\n')
    bad = python_m("lyndon", "list")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr.count("\n") == 1
    assert json.loads(bad.stderr)["kind"] == "usage"


# -------------------------------------------------------------- error paths

def test_usage_error(capsys):
    obj = run_error(capsys, ["lyndon", "list"])
    assert obj["kind"] == "usage"


def test_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    obj = run_error(capsys, ["bracket", "12", "--space", str(bad)])
    assert obj["kind"] == "parse"


def test_io_error(capsys, tmp_path):
    obj = run_error(capsys, ["bracket", "12",
                             "--space", str(tmp_path / "missing.json")])
    assert obj["kind"] == "io"
    # a directory is unreadable too: OSError, not only FileNotFoundError
    for argv in (["nichols", "dims", "--space", str(tmp_path), "--trunc", "3"],
                 ["nichols", "dims", "--space", "preset:quantum-plane",
                  "--trunc", "3", "--kind", "presented",
                  "--relations", str(tmp_path)],
                 ["expand", str(tmp_path), "--space", "preset:quantum-plane"]):
        assert run_error(capsys, argv)["kind"] == "io"


def test_domain_errors(capsys):
    obj = run_error(capsys, ["bracket", "13", "--space", "preset:quantum-plane"])
    assert obj["kind"] == "domain"
    obj = run_error(capsys, ["nichols", "subquotient", "--word", "21",
                             "--space", "preset:quantum-plane", "--trunc", "3"])
    assert obj["kind"] == "domain"
    obj = run_error(capsys, ["bracket", "12",
                             "--space", "preset:quantum-plane(q=0)"])
    assert obj["kind"] == "domain"
    obj = run_error(capsys, ["nichols", "dims", "--space",
                             "preset:quantum-plane", "--trunc", "3",
                             "--prime", "13", "--second-prime", "13"])
    assert obj["kind"] == "domain"
    obj = run_error(capsys, ["tv", "identity-check", "--alphabet", "2",
                             "--trunc", "-3"])
    assert obj == {"error": "trunc must be a nonnegative integer",
                   "kind": "domain"}


QP_DIAGONAL = [["-1", "1"], ["1", "-1"]]
MALFORMED_SPACES = {
    "numeric-scalars": {"braiding": {"diagonal": [[-1, 1], [1, -1]]}},
    "root-orders-strings": {"root_orders": ["3"]},
    "root-orders-number": {"root_orders": 3},
    "root-orders-bool": {"root_orders": [True]},
    "root-orders-zero": {"root_orders": [0]},
    "braiding-list": {"braiding": ["diagonal"]},
    "braiding-rows-not-lists": {"braiding": {"diagonal": [1, 2]}},
    "dim-bool": {"dim": True, "braiding": {"diagonal": [["-1"]]}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SPACES))
def test_malformed_space_json_is_domain_error(capsys, tmp_path, case):
    space = {"field": {"prime": 10007}, "dim": 2,
             "braiding": {"diagonal": QP_DIAGONAL}}
    space.update(MALFORMED_SPACES[case])
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    obj = run_error(capsys, ["bracket", "12", "--space", str(path)])
    assert obj["kind"] == "domain"
    obj = run_error(capsys, ["nichols", "dims", "--space", str(path),
                             "--trunc", "3"])
    assert obj["kind"] == "domain"


MALFORMED_ELEMENTS = {
    "numeric-coeff": {"terms": [{"word": "12", "coeff": 1}]},
    "numeric-word": {"terms": [{"word": 12, "coeff": "1"}]},
    "terms-object": {"terms": {"word": "12", "coeff": "1"}},
    "terms-strings": {"terms": ["12"]},
    "element-list": [{"word": "12", "coeff": "1"}],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ELEMENTS))
def test_malformed_element_json_is_domain_error(capsys, tmp_path, case):
    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps(MALFORMED_ELEMENTS[case]))
    obj = run_error(capsys, ["expand", str(elem),
                             "--space", "preset:quantum-plane"])
    assert obj["kind"] == "domain"
    rels = tmp_path / "rels.json"
    rels.write_text(json.dumps({"relations": [MALFORMED_ELEMENTS[case]]}))
    obj = run_error(capsys, ["nichols", "dims", "--kind", "presented",
                             "--relations", str(rels),
                             "--space", "preset:quantum-plane", "--trunc", "3"])
    assert obj["kind"] == "domain"


def test_malformed_relations_json_is_domain_error(capsys, tmp_path):
    rels = tmp_path / "rels.json"
    rels.write_text(json.dumps({"relations": 5}))
    obj = run_error(capsys, ["nichols", "dims", "--kind", "presented",
                             "--relations", str(rels),
                             "--space", "preset:quantum-plane", "--trunc", "3"])
    assert obj["kind"] == "domain"


def test_quantum_plane_order_under_the_guard(capsys, monkeypatch):
    """order= on quantum-plane makes both guard primes 1 mod 3."""
    primes = []
    build = nichols.build_space

    def recording(source, prime=None, trunc=None):
        space = build(source, prime=prime, trunc=trunc)
        primes.append(space.field.p)
        return space

    monkeypatch.setattr(nichols, "build_space", recording)
    code, obj = run_json(capsys, ["nichols", "dims", "--space",
                                  "preset:quantum-plane(order=3)", "--trunc", "6"])
    assert code == 0 and obj == {"coeffs": [1, 2, 3, 2, 1, 0, 0]}
    assert len(set(primes)) == 2 and all(p % 3 == 1 for p in primes)


@pytest.mark.parametrize("text", ["cartan-A2(order=3,q=2)", "cartan-A2(oder=3)",
                                  "s3-rack(q=3)", "quantum-plane(rationals=2)",
                                  "cartan-A2(q=2,q=3)", "cartan-A2(order=0)",
                                  "quantum-plane(order=abc)"])
def test_preset_parameter_errors(capsys, text):
    for argv in (["bracket", "12"], ["nichols", "dims", "--trunc", "6"]):
        obj = run_error(capsys, argv + ["--space", f"preset:{text}"])
        assert obj["kind"] == "domain" and text.split("(")[0] in obj["error"]


def test_preset_repeats_and_rationals_flag(capsys):
    want = {"error": "preset 'cartan-A2' repeats parameter 'q'", "kind": "domain"}
    assert run_error(capsys, ["nichols", "dims", "--space",
                              "preset:cartan-A2(q=2,q=3)", "--trunc", "3"]) == want
    want = {"error": "preset 'quantum-plane' takes rationals=0 or rationals=1, "
                     "not '2'", "kind": "domain"}
    assert run_error(capsys, ["bracket", "12", "--space",
                              "preset:quantum-plane(rationals=2)"]) == want
    # rationals=0 is the default prime field, where -1 prints as p - 1
    for flag, minus_one in (("0", "10006"), ("1", "-1")):
        code, obj = run_json(capsys, ["bracket", "12", "--space",
                                      f"preset:quantum-plane(rationals={flag})"])
        assert code == 0 and obj["terms"][1] == {"word": "21", "coeff": minus_one}


def test_space_json_string_is_not_a_preset(capsys, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps("cartan-A2"))
    want = {"error": "space description must be a JSON object", "kind": "domain"}
    assert run_error(capsys, ["bracket", "12", "--space", str(path)]) == want
    assert run_error(capsys, ["nichols", "dims", "--space", str(path),
                              "--trunc", "3"]) == want


def test_resource_error(capsys, monkeypatch):
    monkeypatch.setenv("LH_MAX_MATRIX", "10")
    obj = run_error(capsys, ["nichols", "dims", "--space",
                             "preset:quantum-plane", "--trunc", "6"])
    assert obj["kind"] == "resource"
    monkeypatch.setenv("LH_MAX_MATRIX", "100")
    obj = run_error(capsys, ["nichols", "pbw", "--kind", "free", "--space",
                             "preset:cartan-A2", "--trunc", "8"])
    assert obj["kind"] == "resource"


def test_unsupported_error(capsys):
    obj = run_error(capsys, ["nichols", "pbw", "--space", "preset:s3-rack",
                             "--trunc", "3"])
    assert obj["kind"] == "unsupported"


def test_bad_prime_error(capsys, monkeypatch):
    def explode(*a, **k):
        raise BadPrimeError("results differ")
    monkeypatch.setattr("lynhopf.cli.run_guarded", explode)
    obj = run_error(capsys, ["nichols", "dims", "--space",
                             "preset:quantum-plane", "--trunc", "2"])
    assert obj["kind"] == "bad-prime"
