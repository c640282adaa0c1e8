"""szego-lab benchmark: one closed-loop client driving the CLI in-process.

    python3 bench/run.py --workload corrector-sweep --seed 1 --seconds 34 --trace 0

Each request is one call to ``szego_lab.cli.main(argv)`` on a manifest and
measure file generated from the seed before the clock starts; the next
request starts when the previous one returns.  ``--seconds`` sets the amount
of work, not a deadline: a run executes the first ``seconds * RATE``
requests of the seeded sequence, about ``--seconds`` of work on the
reference machine, after one untimed warm-up request.  Every CSV row a
request writes is checked (checks.py).  End-to-end times are in reference
seconds: wall time scaled by how slowly a fixed calibration kernel ran next
to it (calibrate, CAL_REF).  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are END_TO_END; with ``--trace 1`` an untraced
pass runs half the work and the same requests are then replayed with a span
on every layer boundary (spans.py), giving PER_LAYER.  The lines before it
give the environment and a per-shape summary.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import checks
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_TRIALS = 5

# Requests per second of --seconds: about the workload's request rate on the
# reference machine (bench/README.md).  A run executes a fixed number of
# requests instead of stopping at a deadline, so the same seed and --seconds
# give the same requests, outcomes, `attempted` and `failed` however fast the
# machine runs that day.
RATE = {"corrector-sweep": 2.4, "opuc-exact": 0.42, "pipeline-bounds": 0.42}

# Median seconds of calibrate() on the reference machine.  The end-to-end
# times are wall times scaled by CAL_REF / (the kernel's time next to them):
# this shared machine runs a third slower for minutes at a time, and the
# kernel slows with it (bench/README.md).
CAL_REF = 0.007

# name: unit; bench/README.md defines each metric
END_TO_END = {"setup_s": "s", "request_s_p50": "s", "rows_per_s": "1/s",
              "peak_rss_mb": "MB"}

# name: unit; times and counts are means per traced request
PER_LAYER = {f"{layer}.self_s": "s/req" for layer in spans.LAYERS}
PER_LAYER.update({name: "s/req" for name in spans.FUNCTION_METRICS.values()})
PER_LAYER.update({name: "count/req" for name in spans.COUNT_METRICS})
PER_LAYER.update({"trace.request_s": "s/req", "trace_overhead": "ratio",
                  "fail_ratio": "ratio"})


@dataclass
class Record:
    req: workloads.Request
    seconds: float
    failures: list
    rows: int
    # calibrate() time around the request / CAL_REF; 1 = reference speed
    slowdown: float = 1.0

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.slowdown


def execute(cli, req) -> Record:
    """Run one request in the current (work) directory and check its rows."""
    for name in ("certificates.csv", "report.json"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join("out", name))
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(req.argv())
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    except Exception as exc:  # a crash is a failed request, not a stop
        traceback.print_exc(file=sys.stderr)
        code = type(exc).__name__
    seconds = time.perf_counter() - start
    failures, rows = checks.check_request(req, code, "out/certificates.csv")
    return Record(req, seconds, failures, rows)


def request_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds * RATE[workload]))


def warm_up_index(workload: str, count: int) -> int:
    """The first slot of the first cycle after the count timed requests: the
    same command as the first timed request, on a measure none of them uses."""
    cycle = workloads.cycle_length(workload)
    return -(-count // cycle) * cycle


def calibrate() -> float:
    """Seconds for a fixed kernel that runs no szego_lab code: the geometric
    mean of 256-bit mpmath arithmetic in a Python loop (the exact layers'
    kind of work) and numpy FFTs (the corrector's)."""
    import mpmath
    import numpy as np

    start = time.perf_counter()
    with mpmath.workprec(256):
        x, total, step = mpmath.mpf(1) / 3, mpmath.mpf(0), mpmath.mpf(1.0001)
        for _ in range(1000):
            total += x * x
            x *= step
    count = 0
    for i in range(10000):
        count += i * i % 7
    mid = time.perf_counter()
    z = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1 << 15))
    w = z
    for _ in range(6):
        w = np.abs(np.fft.fft(w * z)) + z
    return math.sqrt((mid - start) * (time.perf_counter() - mid))


def run_loop(cli, requests) -> list:
    """Closed loop over the requests, in order, with the calibration kernel
    timed between them; a request's slowdown takes the kernel times before
    and after it."""
    records = []
    before = calibrate()
    for req in requests:
        rec = execute(cli, req)
        after = calibrate()
        rec.slowdown = (before + after) / (2.0 * CAL_REF)
        records.append(rec)
        before = after
    return records


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of all
    order statistics, steadier than the middle one on a few samples."""
    from mpmath import betainc

    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2.0
    return sum(float(betainc(a, a, i / n, (i + 1) / n, regularized=True)) * x
               for i, x in enumerate(xs))


def _weighted_gmean(values: dict, share: dict) -> float:
    return math.exp(sum(share[s] * math.log(v) for s, v in values.items()))


def by_shape(records) -> dict:
    out: dict = {}
    for rec in records:
        out.setdefault(rec.req.shape, []).append(rec)
    return out


def end_to_end(records, setup_s: float) -> dict:
    groups = by_shape(records)
    share = workloads.shape_weights([r.req for r in records])
    median = {s: hd_median(r.ref_seconds for r in g)
              for s, g in groups.items()}
    rows = {s: statistics.fmean(r.rows for r in g) for s, g in groups.items()}
    return {
        "setup_s": setup_s,
        "request_s_p50": _weighted_gmean(median, share),
        # a shape whose requests all wrote nothing has no throughput at all
        "rows_per_s": _weighted_gmean({s: rows[s] / median[s] for s in groups},
                                      share) if all(rows.values()) else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced, traced, tracer) -> dict:
    k = len(traced)
    layers, functions = tracer.self_times()
    out = {f"{layer}.self_s": t / k for layer, t in layers.items()}
    out.update({name: t / k for name, t in functions.items()})
    out.update({name: c / k for name, c in tracer.counts.items()})
    out["trace.request_s"] = statistics.fmean(r.seconds for r in traced)
    out["trace_overhead"] = statistics.median(
        t.seconds / u.seconds for t, u in zip(traced, untraced)) - 1.0
    out["fail_ratio"] = sum(bool(r.failures) for r in untraced) / len(untraced)
    return out


def traced_run(cli, requests):
    """Untraced pass over the requests, then the same requests traced."""
    from szego_lab import measure_opuc

    untraced = run_loop(cli, requests)
    # every request drew a fresh psi, so its moments were cold; clear the
    # process-global cache so the replay starts cold too
    measure_opuc._moment_cache.clear()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = []
        for i, rec in enumerate(untraced):
            tracer.request = i
            traced.append(execute(cli, rec.req))
    finally:
        tracer.restore()
    return untraced, traced, per_layer(untraced, traced, tracer)


def import_seconds() -> float:
    """Time to import szego_lab.cli in a fresh interpreter, as a CLI user
    pays it on every run."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import szego_lab.cli; "
            "print(repr(time.perf_counter() - t))")
    done = subprocess.run([sys.executable, "-c", code, SRC], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def generate(workload: str, seed: int, work_dir: str, count: int) -> tuple:
    """(requests, seconds to build and write them) into a clean work_dir/in:
    the count timed requests and the ones up to the warm-up."""
    shutil.rmtree(os.path.join(work_dir, "in"), ignore_errors=True)
    start = time.perf_counter()
    requests = workloads.build_requests(
        workload, seed, warm_up_index(workload, count) + 1)
    workloads.write_inputs(requests, work_dir)
    return requests, time.perf_counter() - start


def environment(threads) -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "SZEGO_LAB_THREADS": threads,
        "machine": platform.machine(),
    }


def summary(records) -> dict:
    shapes = {}
    for shape, group in sorted(by_shape(records).items()):
        shapes[shape] = {"seconds": [round(r.seconds, 4) for r in group],
                         "slowdown": [round(r.slowdown, 3) for r in group],
                         "median_s": statistics.median(r.seconds for r in group),
                         "rows": statistics.fmean(r.rows for r in group),
                         "failed": sum(bool(r.failures) for r in group)}
    labels: dict = {}
    for rec in records:
        for label in rec.failures:
            labels[label] = labels.get(label, 0) + 1
    return {"shapes": shapes, "failures": labels}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="amount of work: seconds * RATE requests")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    count = request_count(args.workload,
                          args.seconds / 2.0 if args.trace else args.seconds)
    if not os.path.isfile(os.path.join(SRC, "szego_lab", "cli.py")):
        print(f"bench: no szego_lab sources under {SRC}", file=sys.stderr)
        return 2
    # the CLI runs with its default of one worker
    threads = os.environ.pop("SZEGO_LAB_THREADS", None)
    sys.path.insert(0, SRC)
    from szego_lab import cli

    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        trials = []
        if args.trace:
            requests, _ = generate(args.workload, args.seed, work_dir, count)
        else:
            before = calibrate()
            for _ in range(SETUP_TRIALS):
                imported = import_seconds()
                requests, written = generate(args.workload, args.seed,
                                             work_dir, count)
                after = calibrate()
                trials.append((imported + written)
                              * 2.0 * CAL_REF / (before + after))
                before = after
            setup_s = statistics.median(trials)
        os.chdir(work_dir)
        # untimed, so first-call costs stay out of the timings
        warm = execute(cli, requests[warm_up_index(args.workload, count)])
        if args.trace:
            untraced, traced, metrics = traced_run(cli, requests[:count])
            records = untraced + traced
            units = PER_LAYER
        else:
            records = run_loop(cli, requests[:count])
            metrics = end_to_end(records, setup_s)
            units = END_TO_END
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({"env": environment(threads)}))
    warm_up = {"shape": warm.req.shape, "seconds": round(warm.seconds, 4),
               "failures": warm.failures}
    print(json.dumps({"summary": dict(summary(records), warm_up=warm_up,
                                      setup_trials_s=trials)}))
    # the warm-up is checked and counted, but not timed
    records = [warm] + records
    failed = sum(bool(r.failures) for r in records)
    labels = {label for r in records for label in r.failures}
    print(json.dumps({
        "correct": labels <= checks.KNOWN_DEFECTS,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
