"""One workload in a fresh, single-threaded process.

Started by run.py.  It imports lynhopf from the checkout's src/, builds the
CLI parser and prints "ready" (the end of set-up).  With --probe it stops
there.  Otherwise it runs the job list given by --jobs as a closed loop with
one caller, checks every answer and prints one JSON result line.

Untraced (--trace 0), it repeats whole passes over the job list while the
next pass still fits in --seconds (at least one pass, and for the session at
least --min-calls calls).  On the workloads in workloads.REFERENCE_SCALED
it also runs `reference` between calls and scales every time it reports to
the reference speed.  Traced (--trace 1), it runs three passes: one
untraced, one under the span tracer and one under cProfile for exact call
counts, and writes the spans to --trace-out.
"""

import gc
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _arg(flag, default=None):
    return sys.argv[sys.argv.index(flag) + 1] if flag in sys.argv else default


def _import_lynhopf():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lynhopf.cli
    if not Path(lynhopf.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"lynhopf imported from {lynhopf.__file__}, not {src}")
    lynhopf.cli.build_parser()
    return lynhopf


# A fixed computation of the kind lynhopf does (sparse rows reduced mod a
# prime over dicts) that shares no code with it.  Its time measures the
# host's speed at the moment; the reference speed is the one at which a
# sample takes REF_S seconds.
REF_P = 10007
REF_ROWS = [{(i * 37 + k * 11) % 60: (i * 101 + k * 53) % (REF_P - 1) + 1
             for k in range(8)} for i in range(120)]
REF_S = 0.02
REF_SHARE = 0.1  # reference time run per second of call time


def reference() -> int:
    pivots = {}
    for row in REF_ROWS:
        v = dict(row)
        while v:
            lead = min(v)
            if lead not in pivots:
                inv = pow(v[lead], REF_P - 2, REF_P)
                pivots[lead] = {k: x * inv % REF_P for k, x in v.items()}
                break
            f, piv = v[lead], pivots[lead]
            for k, x in piv.items():
                y = (v.get(k, 0) - f * x) % REF_P
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
    return len(pivots)


def main() -> int:
    lynhopf = _import_lynhopf()
    print("ready", flush=True)
    if "--probe" in sys.argv:
        return 0

    import contextlib
    import io
    import json
    import resource
    import statistics
    from types import SimpleNamespace

    import tracing
    import workloads

    from lynhopf import cli, freealg, linalg, nichols, scalars, series, words
    lh = SimpleNamespace(cli=cli, freealg=freealg, linalg=linalg,
                         nichols=nichols, scalars=scalars, series=series,
                         words=words,
                         modules=(lynhopf, cli, freealg, linalg, nichols,
                                  scalars, series, words))

    jobs = json.loads(Path(_arg("--jobs")).read_text(encoding="utf-8"))
    seconds = float(_arg("--seconds"))
    min_calls = int(_arg("--min-calls", "1"))
    traced = _arg("--trace", "0") == "1"

    def call(job):
        """Run one job; return what its check needs."""
        if "argv" in job:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = lh.cli.main(job["argv"])
            return rc, out.getvalue()
        return workloads.run_request(lh, job["request"])

    def check(job, result):
        if "argv" in job:
            return workloads.check_cli(job["argv"], *result)
        return workloads.check_request(lh, job["request"], result)

    samples = [[] for _ in jobs]
    errors = []
    refs = []         # seconds of each reference sample
    ref_debt = [0.0]  # reference time owed for the calls made so far

    def pay_reference():
        while ref_debt[0] > 0:
            gc.disable()  # a collection would time lynhopf's heap
            t0 = time.perf_counter()
            reference()
            dt = time.perf_counter() - t0
            gc.enable()
            refs.append(dt)
            ref_debt[0] -= dt

    def one_pass(tracer=None, sampled=False):
        """Run every job once; return the summed job times.

        With `sampled`, reference samples run between the calls.
        """
        total = 0.0
        for i, job in enumerate(jobs):
            if sampled and ref_debt[0] >= REF_S:
                pay_reference()
            if tracer is not None:
                tracer.job = job["id"]
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = call(job)
            except Exception as exc:  # a raising job is a failed job
                result, err = None, f"{type(exc).__name__}: {exc}"
            else:
                err = None
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
                tracer.end_job()
            if err is None:
                try:
                    err = check(job, result)
                except Exception as exc:  # a malformed answer is a wrong one
                    err = f"check raised {type(exc).__name__}: {exc}"
            samples[i].append(dt)
            if sampled:
                ref_debt[0] += REF_SHARE * dt
            total += dt
            if err is not None:
                errors.append({"job": job["id"], "error": err})
        return total

    report = {"workload": _arg("--workload"), "calls": len(jobs)}
    if traced:
        untraced_wall = one_pass()
        tracer = tracing.Tracer(lh)
        tracer.install()
        try:
            tracer.job = "setup"
            tracer.active = True
            lh.cli.build_parser()
            tracer.active = False
            traced_wall = one_pass(tracer)
        finally:
            tracer.uninstall()
        counts = tracing.profile_counts(one_pass)
        layer = tracer.layer_metrics()
        layer.update(counts)
        layer["trace.untraced_wall_s"] = (untraced_wall, "s")
        layer["trace.wall_s"] = (traced_wall, "s")
        layer["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        report["metrics"] = layer
        report["guard"] = tracer.guard
        Path(_arg("--trace-out")).write_text(json.dumps({
            "spans": tracer.spans,
            "aggregates": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                           for k, v in sorted(tracer.agg.items())},
            "guard": tracer.guard,
            "cache_entries": tracer.cache_entries,
        }, indent=1) + "\n", encoding="utf-8")
    else:
        sampled = report["workload"] in workloads.REFERENCE_SCALED
        if sampled:  # a sample before the first call
            ref_debt[0] = REF_S
            pay_reference()
        start = time.perf_counter()
        last = 0.0
        pass_times = []
        while True:
            elapsed = time.perf_counter() - start
            done = sum(len(s) for s in samples)
            if done and elapsed + last > seconds and done >= min_calls:
                break
            t0 = time.perf_counter()
            pass_times.append(one_pass(sampled=sampled))
            last = time.perf_counter() - t0
            if len(samples[0]) == 1:  # later passes can only add fragmentation
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sampled:  # and one after the last
            ref_debt[0] = REF_S
            pay_reference()
            # seconds at the reference speed per second measured
            scale = REF_S / statistics.median(refs)
            report["reference"] = {"samples": len(refs),
                                   "median_s": statistics.median(refs),
                                   "measured_wall_s": statistics.median(pass_times)}
            samples = [[x * scale for x in s] for s in samples]
            pass_times = [x * scale for x in pass_times]
        report["pass_times_s"] = pass_times
        flat = sorted(x for s in samples for x in s)
        p99 = statistics.quantiles(flat, n=100, method="inclusive")[98] \
            if len(flat) > 1 else flat[0]
        report["metrics"] = {
            "wall_s": (statistics.median(pass_times), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "calls_per_s": (len(flat) / sum(flat), "1/s"),
            "latency_p50_ms": (statistics.median(flat) * 1000.0, "ms"),
            "latency_p99_ms": (p99 * 1000.0, "ms"),
        }
        report["passes"] = len(samples[0])
        report["beyond_p99"] = sum(1 for x in flat if x > p99)
        by_kind = {}
        for job, s in zip(jobs, samples):
            if "request" in job:
                by_kind.setdefault(job["request"]["kind"], []).extend(s)
        if by_kind:  # what the session's call time and p50 are made of
            report["kinds"] = {
                k: {"calls": len(v), "share": sum(v) / sum(flat),
                    "p50_ms": statistics.median(v) * 1000.0}
                for k, v in sorted(by_kind.items())}
    report["attempted"] = sum(len(s) for s in samples)
    report["failed"] = len(errors)
    report["errors"] = errors[:20]
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
