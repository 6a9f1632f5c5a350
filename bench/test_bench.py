"""Self-tests of the benchmark: checkers, seeding, smoke runs.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from lynhopf import cli, freealg, nichols, series, words  # noqa: E402

LH = SimpleNamespace(cli=cli, freealg=freealg, nichols=nichols, series=series,
                     words=words)


def _cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _corruptions(argv, obj):
    """Wrong answers a broken program could plausibly print for this job."""
    cmd = argv[1]
    if cmd == "dims":
        bad = list(obj["coeffs"])
        bad[-2] += 1
        yield {"coeffs": bad}
        yield {"coeffs": obj["coeffs"][:-1]}
    elif cmd == "factorize":
        yield dict(obj, ok=False)
        yield dict(obj, factors=obj["factors"][:-1])
        f = json.loads(json.dumps(obj["factors"]))
        f[0]["series"]["coeffs"][-1] += 1
        yield dict(obj, factors=f)
        lhs = dict(obj["lhs"], coeffs=obj["lhs"]["coeffs"][:-1] + [0])
        yield dict(obj, lhs=lhs)
    elif cmd == "pbw":
        g = json.loads(json.dumps(obj["generators"]))
        g[0]["height"] = 2
        yield dict(obj, generators=g)
        yield dict(obj, generators=obj["generators"][1:])


@pytest.mark.parametrize("workload", ["dims", "factorize", "pbw"])
def test_cli_checker_accepts_program_and_rejects_corruption(workload, tmp_path):
    jobs = workloads.write_inputs(workload, 3, "smoke", tmp_path)
    for job in jobs:
        rc, out = _cli_output(job["argv"])
        assert workloads.check_cli(job["argv"], rc, out) is None
        assert workloads.check_cli(job["argv"], 2, out) is not None
        assert workloads.check_cli(job["argv"], rc, "not json") is not None
        corrupted = list(_corruptions(job["argv"], json.loads(out)))
        assert corrupted
        for bad in corrupted:
            assert workloads.check_cli(job["argv"], 0, json.dumps(bad)) is not None


def _witt(d: int, n: int) -> int:
    """Number of Lyndon words of length exactly n over d letters."""
    def mobius(m):
        out, p = 1, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if m > 1 else out
    return sum(mobius(j) * d ** (n // j) for j in range(1, n + 1) if n % j == 0) // n


def test_full_size_answers_match_the_stated_known_answers():
    assert workloads.nichols_series("cartan-A2", 10) == [1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36]
    assert workloads.nichols_series("s3-rack", 7) == [1, 3, 4, 3, 1, 0, 0, 0]
    assert workloads.nichols_series("cartan-A2(order=3)", 10) == [1, 2, 4, 4, 5, 4, 4, 2, 1, 0, 0]
    assert len(workloads.lyndon_words(3, 8)) == 1318
    for d, n in ((2, 12), (3, 8), (4, 6)):
        assert len(workloads.lyndon_words(d, n)) == sum(
            _witt(d, k) for k in range(1, n + 1))
    assert workloads.lyndon_words(3, 8) == [
        tuple(u) for u in words.enumerate_lyndon(3, 8)]


def _corrupt_result(req, result):
    """A wrong answer of the same shape as the program's answer."""
    kind = req["kind"]
    if kind == "cfl":
        return result[1:]
    if kind == "shirshov":
        left, right = result
        return left + right[:1], right[1:]
    if kind == "lyndon":
        return result[:-1]
    if kind == "identity":
        return dataclasses.replace(result, ok=False)
    if kind == "hilbert":
        return series.PowerSeries(result.coeffs[:-1] + (result.coeffs[-1] + 1,))
    if kind == "subquotient":
        c = result.series.coeffs
        return dataclasses.replace(result, series=series.PowerSeries(c[:-1] + (c[-1] + 1,)))
    if kind in ("bracket", "bracket_element"):
        space, val = result
        return space, val.scale(space.field.from_int(2))
    if kind == "expand":
        x, coords = result
        sw = min(coords)
        return x, {**coords, sw: x.space.field.add(coords[sw], x.space.field.one)}
    if kind == "hopf":
        x, delta, s_x = result
        return x, delta, s_x + x.space.generator(1)
    raise AssertionError(kind)


def test_session_checker_accepts_program_and_rejects_corruption(tmp_path):
    jobs = workloads.write_inputs("session", 5, "smoke", tmp_path)
    seen = set()
    for job in jobs:
        req = job["request"]
        result = workloads.run_request(LH, req)
        assert workloads.check_request(LH, req, result) is None, req
        bad = _corrupt_result(req, result)
        assert workloads.check_request(LH, req, bad) is not None, req
        seen.add(req["kind"])
    assert seen == set(workloads.SHAPES)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    def snapshot(seed, name):
        d = tmp_path / name
        jobs = workloads.write_inputs(workload, seed, "full", d)
        files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        text = json.dumps(jobs).replace(str(d), "<dir>")
        return files, text

    first = snapshot(7, "a")
    assert first == snapshot(7, "b")
    if workload != "dims":  # dims takes no random input
        assert first != snapshot(8, "c")


def test_smoke_mode_runs_every_workload_in_seconds():
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--all",
                           "--smoke", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(summary) == sorted(workloads.WORKLOADS)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for result in summary.values():
        assert result["end_to_end"]["correct"] and result["per_layer"]["correct"]
        for part in ("end_to_end", "per_layer"):
            assert set(result[part]["metrics"]) == {m["name"] for m in contract[part]}
    # rref's own inserts are kept apart from the subquotient scans' inserts
    layer = summary["factorize"]["per_layer"]["metrics"]
    assert layer["linalg.rref_insert_calls"]["value"] > 0
    assert layer["linalg.insert_calls"]["value"] > 0
    assert 0 < layer["linalg.insert_useful_ratio"]["value"] <= 1
    assert elapsed < 60


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "dims",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
