"""Benchmark of lynhopf: four workloads, end-to-end metrics, a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dims --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 25      # every workload
    python3 bench/run.py --all --smoke --seconds 1        # tiny sizes

Each run generates its inputs from --seed (bench/out/, byte-identical for a
seed), times the set-up of fresh workload processes, then runs the workload
in one more fresh process (bench/worker.py) and checks every answer.  A table
goes to stderr; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run (spans are written
to bench/out/trace-*.json).  Every run also writes a record with the src/
line count to bench/out/run-*.json.

End-to-end metrics, gated in BENCHMARK.json:
  wall_s          median over passes of the time of one pass over the
                  workload's calls (summed call times; answer checks excluded);
                  on the session in seconds at the reference speed (see
                  workloads.REFERENCE_SCALED), the measured time is in the
                  table and the run record
  setup_s         spawn to ready (lynhopf imported, CLI parser built);
                  median over SETUP_PROBES fresh processes and the worker
  peak_rss_mb     peak resident memory of the worker process during its
                  first pass, as one CLI invocation would see it
Call metrics, printed in the table and kept in the run record but not gated
(a call is one CLI job, or one session request):
  calls_per_s     calls completed per second of call time
  latency_p50_ms  median call time
  latency_p99_ms  99th percentile call time (inclusive method); the table
                  states how many samples lie beyond it
They are the session's latency figures.  On dims, factorize and pbw a pass
is two jobs of very different size, so the median call time jumps between
them from run to run, and the other two only restate wall_s; a gated metric
has to be reported on every workload, so these three are not gated.
On the session the table and the run record also give, per request kind, the
number of calls, its share of the call time and its median call time.
"""

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_PROBES = 15
RUN_TIMEOUT = 170.0  # seconds one run may take before its worker is killed
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")  # as in BENCHMARK.json


class BenchError(RuntimeError):
    pass


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def _spawn(args, deadline):
    """Start a worker; return (process, seconds until it printed ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "ready":
            proc.kill()
            proc.wait()
            raise BenchError(f"worker did not become ready: {line!r}")
        return proc, ready
    finally:
        killer.cancel()


def _finish(proc, deadline, what):
    """Wait for a worker to end, killing it at the deadline; return its stdout."""
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{what}: exceeded {RUN_TIMEOUT:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{what}: exited with code {proc.returncode}")
    return stdout


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 size: str = "full") -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT
    out_dir = BENCH / "out"
    in_dir = out_dir / f"inputs-{name}-seed{seed}-{size}"
    jobs = workloads.write_inputs(name, seed, size, in_dir)
    jobs_path = in_dir / "jobs.json"
    jobs_path.write_text(json.dumps(jobs, indent=1) + "\n", encoding="utf-8")

    probes = SETUP_PROBES if size == "full" else 2
    ready = []
    for _ in range(probes):
        proc, t = _spawn(["--probe"], deadline)
        ready.append(t)
        _finish(proc, deadline, "set-up probe")

    tag = f"{name}-seed{seed}-trace{int(trace)}"
    min_calls = workloads.SESSION_MIN_CALLS if (
        name == "session" and size == "full") else 1
    proc, t = _spawn(["--workload", name, "--jobs", str(jobs_path),
                      "--seconds", str(seconds), "--trace", str(int(trace)),
                      "--min-calls", str(min_calls),
                      "--trace-out", str(out_dir / f"trace-{tag}.json")],
                     deadline)
    ready.append(t)
    stdout = _finish(proc, deadline, name)
    if not stdout.strip():
        raise BenchError(f"{name}: worker printed no result")
    report = json.loads(stdout.strip().splitlines()[-1])
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in report.pop("metrics").items()}
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(ready), "unit": "s"}
        report["call_metrics"] = {k: m for k, m in metrics.items()
                                  if k not in END_TO_END}
        metrics = {k: metrics[k] for k in END_TO_END}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "size": size, "src_lines": src_lines(),
              "setup_samples_s": ready, "metrics": metrics, **report}
    (out_dir / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                             encoding="utf-8")
    return record


def _table(records, file):
    print(f"{'workload':10} {'metric':34} {'value':>14}  unit   samples",
          file=file)
    for r in records:
        n = r["attempted"]
        extra = (f"  passes={r['passes']} calls/pass={r['calls']} "
                 f"beyond_p99={r['beyond_p99']}") if "passes" in r else ""
        print(f"{r['workload']:10} {'failed_frac':34} "
              f"{r['failed'] / n:>14.4f}  ratio  {r['failed']}/{n}{extra}",
              file=file)
        for k, m in r["metrics"].items():
            print(f"{r['workload']:10} {k:34} {m['value']:>14.6g}  "
                  f"{m['unit']:6} {n}", file=file)
        for k, m in r.get("call_metrics", {}).items():
            print(f"{r['workload']:10} {k:34} {m['value']:>14.6g}  "
                  f"{m['unit']:6} {n}  (not gated)", file=file)
        if "reference" in r:
            ref = r["reference"]
            print(f"{r['workload']:10} measured wall_s {ref['measured_wall_s']:.6g} s; "
                  f"reference sample median {ref['median_s'] * 1e3:.4g} ms "
                  f"over {ref['samples']} samples", file=file)
        for k, v in r.get("kinds", {}).items():
            print(f"{r['workload']:10} kind {k:16} {v['calls']:6d} calls  "
                  f"{v['share']:6.1%} of call time  p50 {v['p50_ms']:.4f} ms",
                  file=file)
        for g in r.get("guard", []):
            split = ", ".join(f"F_{p}: {t:.4f} s" for p, t in zip(g["primes"], g["seconds"]))
            print(f"{r['workload']:10} guard {g['job']}: {split}, second share "
                  f"{g.get('second_share', 0.0):.3f}", file=file)
        for e in r.get("errors", []):
            print(f"{r['workload']:10} FAILED {e['job']}: {e['error']}", file=file)
    print(f"src/ lines: {records[0]['src_lines']}", file=file)


def _result(record) -> dict:
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": record["metrics"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced then traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    if not (ROOT / "src" / "lynhopf" / "__init__.py").is_file():
        print(f"error: no lynhopf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    try:
        if args.workload:
            rec = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), size)
            _table([rec], sys.stderr)
            print(json.dumps(_result(rec)))
            return 0
        plain, traced = [], []
        for name in workloads.WORKLOADS:
            plain.append(run_workload(name, args.seed, args.seconds, False, size))
            traced.append(run_workload(name, args.seed, args.seconds, True, size))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _table(plain, sys.stdout)
    print("\ntraced runs (per-layer metrics):")
    _table(traced, sys.stdout)
    print("\ntracing overhead (traced wall_s - untraced wall_s):")
    for r in traced:
        m = r["metrics"]
        print(f"{r['workload']:10} {m['trace.overhead_s']['value']:+.4f} s "
              f"({m['trace.wall_s']['value']:.4f} s traced vs "
              f"{m['trace.untraced_wall_s']['value']:.4f} s untraced)")
    print(json.dumps({r["workload"]: {"end_to_end": _result(r),
                                      "per_layer": _result(t)}
                      for r, t in zip(plain, traced)}))
    return 0 if all(r["failed"] == 0 for r in plain + traced) else 1


if __name__ == "__main__":
    sys.exit(main())
