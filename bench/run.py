"""Benchmark of uvartest: simulation throughput, command-line latency and
set-up time, with output checks, and a separate traced run per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload sim-fixed --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
and the spans are written to ``.bench_work/trace-<workload>.json``.  The
line before it records the machine and the code.  ``--workload all`` runs
every workload in a fresh process and prints one line per metric.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("sim-fixed", "sim-redraw", "sim-perm", "cli-test")
SETUP_PROBES = 7
WORKERS2_EVERY = 4  # cycles; the two-worker repeats serve the speedup and the determinism check
MIN_LATENCY_SAMPLES = 200  # the 95th percentile then has 10 samples beyond it
QUIET_PARTS = 10  # see quiet()
HARD_LIMIT_S = 120.0  # stop adding cycles past this, whatever the sample count

# (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("datasets_per_s", "1/s", "higher"),
    ("workers2_speedup", "ratio", "higher"),
    ("request_ms_p50", "ms", "lower"),
    ("request_ms_p95", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "ratio", "higher"),
)


def tail_percentile(samples, q: float) -> float:
    """The q-th percentile (linear interpolation), refused unless at least
    ten samples lie beyond it."""
    if len(samples) * (100.0 - q) / 100.0 < 10.0:
        raise ValueError(f"{len(samples)} samples leave fewer than 10 beyond the {q}th percentile")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quiet(times: list[float]) -> list[float]:
    """The fastest tenth (rounded up) of repeated timings of one request.

    Repeats of a request differ in time mostly by what else the machine is
    doing.  On a shared 2-core machine, other tenants slowed everything by
    1.5x for stretches of 10 s to over 30 s, with fast gaps of a few
    milliseconds in between.  Over 20 s windows of 13 ms timings, the
    spread between windows was 0.29 for the median, 0.09 for the fastest
    quarter, 0.05 for the fastest tenth and 0.02 for the minimum.
    """
    return sorted(times)[: -(-len(times) // QUIET_PARTS)]


def _metric_block(values: dict[str, float], specs) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}


def _import_program():
    """Import uvartest from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "uvartest" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'uvartest'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import uvartest

    if Path(uvartest.__file__).resolve().parent != SRC / "uvartest":
        sys.exit(f"error: imported uvartest from {uvartest.__file__}, not from {SRC}")
    return uvartest


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy
    import uvartest

    digest = hashlib.sha256()
    for path in sorted((SRC / "uvartest").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "uvartest": uvartest.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median set-up time over fresh processes (see setup_probe.py)."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), str(workdir)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        times.append(float(out.split()[-1]))
    return statistics.median(times)


def timed_run(wl, seconds: float, setup_s: float):
    """Untraced run: whole cycles at one worker, every WORKERS2_EVERY-th one
    repeated at two workers, until ``seconds`` have passed and there are
    enough latency samples.

    Latencies are the quiet repeats of each request (see quiet).  A cycle's
    time on a quiet machine is the sum of the fastest repeat of each of its
    requests.  The two-worker speedup divides the fastest cycle at one
    worker by the fastest at two; the second worker needs the second core
    free of other tenants, which only the fastest cycles reliably had.
    """
    from workloads import Tally

    wl.warm_up()
    runs = []
    latencies = defaultdict(list)
    start = time.perf_counter()
    for cycle in itertools.count():
        requests = wl.requests(cycle)
        one = wl.run_cycle(requests, 1)
        two = wl.run_cycle(requests, 2) if cycle % WORKERS2_EVERY == 0 else None
        runs.append((requests, one, two))
        for cell, latency in zip(wl.order(cycle), one.latencies_s):
            latencies[cell].append(latency)
        elapsed = time.perf_counter() - start
        samples = sum(len(quiet(times)) for times in latencies.values())
        if (elapsed >= seconds and samples >= MIN_LATENCY_SAMPLES) or elapsed >= HARD_LIMIT_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks run after the peak memory is read: the independent
    # recomputation imports scipy.stats, which the program never loads.
    tally = Tally()
    for requests, one, two in runs:
        wl.check_cycle(requests, one, tally)
        if two is not None:
            wl.check_cycle(requests, two, tally, reference=one)
    wl.check_pooled(tally)

    per_cycle = len(runs[0][0]) * wl.datasets_per_request
    samples = [t for times in latencies.values() for t in quiet(times)]
    values = {
        "setup_s": setup_s,
        "datasets_per_s": per_cycle / sum(min(times) for times in latencies.values()),
        "workers2_speedup": min(one.wall_s for _, one, _ in runs)
        / min(two.wall_s for _, _, two in runs if two is not None),
        "request_ms_p50": tail_percentile(samples, 50) * 1e3,
        "request_ms_p95": tail_percentile(samples, 95) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "success_rate": 1.0 - tally.failed / tally.attempted,
    }
    print(f"{wl.name}: {len(runs)} cycles, {len(samples)} quiet latency samples",
          file=sys.stderr)
    return tally, _metric_block(values, END_TO_END)


def traced_run(wl, seconds: float, trace_path: Path):
    """Traced run of fixed work: each cycle runs untraced, then traced."""
    from tracing import PER_LAYER, TARGETS, Tracer, per_layer_metrics, root_time, self_times
    from workloads import Tally

    wl.warm_up()
    tracer = Tracer(TARGETS)
    runs = []
    untraced_s = traced_s = 0.0
    useful = attempts = 0
    for cycle in range(max(1, round(seconds / wl.trace_cycle_s))):
        requests = wl.requests(cycle)
        plain = wl.run_cycle(requests, 1)
        with tracer:
            traced = wl.run_cycle(requests, 1)
        untraced_s += plain.wall_s
        traced_s += traced.wall_s
        ok, tried = wl.useful(traced)
        useful, attempts = useful + ok, attempts + tried
        runs.append((requests, plain, traced))

    tally = Tally()
    for requests, plain, traced in runs:
        wl.check_cycle(requests, plain, tally)
        wl.check_cycle(requests, traced, tally, reference=plain)
    wl.check_pooled(tally)

    spans = tracer.finished_spans()
    own, roots = sum(self_times(spans)), root_time(spans)
    if abs(own - roots) > 1e-9 * max(roots, 1.0):
        tally.fail([f"trace: self times add to {own!r} s, root spans to {roots!r} s"])
    print(f"{wl.name}: {len(runs)} traced cycles, {len(spans)} spans, "
          f"self {own:.6f} s = roots {roots:.6f} s", file=sys.stderr)
    tracer.write(trace_path)
    values = per_layer_metrics(spans, useful, attempts, traced_s, untraced_s)
    return tally, _metric_block(values, PER_LAYER)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> None:
    _import_program()
    from workloads import WORKLOADS

    print(json.dumps({"run": run_record(workload, seed, seconds, trace)}))
    workdir = WORK / f"{workload}-{os.getpid()}"
    wl = WORKLOADS[workload]()
    try:
        wl.generate(seed, workdir)
        setup_s = 0.0 if trace else measure_setup(workload, seed, workdir)
        wl.prepare(seed, workdir)
        if trace:
            tally, metrics = traced_run(wl, seconds, WORK / f"trace-{workload}.json")
        else:
            tally, metrics = timed_run(wl, seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message, times in Counter(tally.messages).most_common(20):
        print(f"failed {times}x: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": min(tally.failed, tally.attempted),
        "metrics": metrics,
    }))


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; one line per metric."""
    status = 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        _import_program()
        return run_all(args.seed, args.seconds)
    run_one(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
