"""tabrec benchmark: runs one workload from outside the package, checks
every result, and prints each metric by name and unit.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload census-n9 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` reports the end-to-end metrics with tracing off.  The
passes run in WORKERS fresh processes, one after another, and their
times are scaled to the reference speed of ``workloads.Speed``.
``--trace 1`` runs the same passes twice in this process, plain then
traced, and reports the per-layer metrics and the tracing overhead.
``--smoke`` runs every workload at toy size in both modes and checks the
metric names against BENCHMARK.json.  See perfbench/README.md for the
metrics and workloads.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / "perfbench" / "out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "core.tableaux_validated": "count",
    "core.enumerate_s": "s",
    "core.from_text_s": "s",
    "taquin.delete_entry_calls": "count",
    "taquin.delete_entry_s": "s",
    "taquin.decks_built": "count",
    "taquin.minor_set_s": "s",
    "taquin.minor_multiset_s": "s",
    "taquin.deck_text_s": "s",
    "reconstruct.shape_calls": "count",
    "reconstruct.shape_s": "s",
    "reconstruct.locate_max_s": "s",
    "reconstruct.reduce_deck_s": "s",
    "reconstruct.base_s": "s",
    "reconstruct.recheck_s": "s",
    "reconstruct.shape_calls_per_level": "calls/level",
    "census.merge_s": "s",
    "census.h1_pairs_s": "s",
    "cli.self_ms_per_request": "ms",
    "trace.overhead_ratio": "ratio",
}

SETUP_SAMPLES = 15
WORKERS = 3
# time a worker may take beyond its share of the run before it is stopped
WORKER_GRACE_S = 30
MAX_REPORTED_FAILURES = 5

# Times a fresh interpreter from `import tabrec` to the end of one tiny
# CLI reconstruction; interpreter start-up itself is not counted.  The
# machine's speed is measured just before and just after.
SETUP_CODE = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[2])
import workloads
speed = workloads.Speed()
before = speed.measure()
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import tabrec, tabrec.cli
out = io.StringIO()
sys.stdin = io.StringIO(sys.argv[3])
with contextlib.redirect_stdout(out):
    status = tabrec.cli.run(["reconstruct", "--expect-unique"])
elapsed = time.perf_counter() - start
after = speed.measure()
scaled = speed.scale(elapsed, (before + after) / 2)
print(json.dumps([elapsed, scaled, status, out.getvalue(), tabrec.__file__]))
"""

# Requests scaled by one mean probe time take at least this long in all.
SEGMENT_S = 0.25


def import_package():
    """Import tabrec from this checkout's src/, never from anywhere else."""
    package = SRC / "tabrec"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {package}")
    sys.path.insert(0, str(SRC))
    import tabrec
    import tabrec.cli  # noqa: F401

    if Path(tabrec.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported tabrec from {tabrec.__file__}, not {package}")


def machine():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def measure_setup(samples):
    rows = ((1, 3, 5), (2, 4))
    deck = workloads.deck_text(rows, multiset=False)
    expected = f"unique {workloads.text(rows)}\n"
    raw, scaled = [], []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(ROOT / "perfbench"), deck],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up interpreter failed:\n{proc.stderr}")
        elapsed, at_reference, status, out, path = json.loads(proc.stdout.splitlines()[-1])
        if status != 0 or out != expected or Path(path).resolve().parent != SRC / "tabrec":
            sys.exit(f"perfbench: set-up call gave status {status}, output {out!r}")
        raw.append(elapsed)
        scaled.append(at_reference)
    return statistics.median(scaled), statistics.median(raw)


class Run:
    """Requests made, their latencies, and the passes they came in.

    Latencies and pass times are in seconds at the reference speed
    (``workloads.Speed``) when a run is given one, and on the wall clock
    otherwise; ``wall_pass_times`` are always on the wall clock.
    """

    def __init__(self):
        self.passes = []
        self.pass_times = []
        self.wall_pass_times = []
        self.latencies = []
        self.attempted = 0
        self.failed = 0


def run_passes(workload, passes, seconds, speed=None):
    """Run passes until the next one would end after ``seconds`` (at least
    one); with ``seconds`` None, run every pass given.

    A pass's time is the sum of its request latencies: checks, input
    generation and speed probes fall outside it.  With a ``speed``,
    requests are scaled in segments that took ``SEGMENT_S`` or more in
    all, each by the mean probe time during it.
    """
    run = Run()
    start = time.perf_counter()
    for requests in passes:
        segment = []
        first_probe = len(speed.probes) if speed else 0
        pass_time = wall_time = 0.0
        for i, request in enumerate(requests):
            spent = speed.spent if speed else 0.0
            began = time.perf_counter()
            try:
                result = workload.call(request)
                problem = None
            except Exception:
                problem = traceback.format_exc()
            elapsed = time.perf_counter() - began
            if speed:
                elapsed -= speed.spent - spent
            try:
                if problem is None and not workload.check(request, result):
                    problem = f"wrong result {result!r}"
            except Exception:
                problem = traceback.format_exc()
            run.attempted += 1
            segment.append(elapsed)
            if problem is not None:
                run.failed += 1
                if run.failed <= MAX_REPORTED_FAILURES:
                    print(f"perfbench: {workload.name} request failed: {problem}", file=sys.stderr)
            if sum(segment) >= SEGMENT_S or i == len(requests) - 1:
                if speed:
                    probe_s = speed.since(first_probe)
                    first_probe = len(speed.probes)
                    scaled = [speed.scale(t, probe_s) for t in segment]
                else:
                    scaled = segment
                run.latencies.extend(scaled)
                pass_time += sum(scaled)
                wall_time += sum(segment)
                segment = []
        run.passes.append(requests)
        run.pass_times.append(pass_time)
        run.wall_pass_times.append(wall_time)
        if seconds is not None and (
            time.perf_counter() - start + statistics.median(run.wall_pass_times) > seconds
        ):
            break
    return run


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_worker(cls, seed, part, seconds, toy):
    """One worker's share of an untraced run, as a JSON-ready dict."""
    workload = cls(f"{seed}/{part}", toy)
    with workloads.Speed() as speed:
        run = run_passes(workload, workload.passes(), seconds, speed)
    requests = [r for p in run.passes for r in p]
    return {
        "inputs": f"{workload.describe(requests)} passes={len(run.passes)}",
        "pass_times": run.pass_times,
        "wall_pass_times": run.wall_pass_times,
        "latencies": run.latencies,
        "attempted": run.attempted,
        "failed": run.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_workers(cls, seed, seconds, toy):
    """Split ``seconds`` between WORKERS fresh processes, one after another.

    Each process lays out its heap and hash tables its own way, and that
    alone moves its speed by several percent, so a run pools the passes
    of several.  Each gets its own inputs from the seed and its own
    string hash seed.
    """
    results = []
    for part in range(WORKERS):
        argv = [
            sys.executable, __file__, "--workload", cls.name, "--seed", str(seed),
            "--seconds", repr(seconds / WORKERS), "--worker", str(part),
        ]
        if toy:
            argv.append("--toy")
        env = dict(os.environ, PYTHONHASHSEED=str((seed * WORKERS + part) % 2**32))
        proc = subprocess.run(
            argv, capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=seconds / WORKERS + WORKER_GRACE_S,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: worker {part} exited with {proc.returncode}")
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


def measure(cls, seed, seconds, trace, smoke=False, setup_samples=SETUP_SAMPLES):
    """One benchmark run; returns (run summary lines, attempted, failed, metrics)."""
    if not trace:
        setup_s, wall_setup_s = measure_setup(setup_samples)
        parts = run_workers(cls, seed, seconds, smoke)
        pass_times = [t for p in parts for t in p["pass_times"]]
        wall_pass_times = [t for p in parts for t in p["wall_pass_times"]]
        latencies = [t for p in parts for t in p["latencies"]]
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(pass_times),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_p95_ms": 1000 * nearest_rank(latencies, 0.95),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        }
        notes = [f"worker {i} inputs {p['inputs']}" for i, p in enumerate(parts)]
        notes += [
            "pass_times_s " + " ".join(f"{t:.4f}" for t in pass_times),
            "wall_clock_pass_times_s " + " ".join(f"{t:.4f}" for t in wall_pass_times),
            f"wall_clock_medians setup_s={wall_setup_s:.4f} "
            f"wall_s={statistics.median(wall_pass_times):.4f}",
        ]
        attempted = sum(p["attempted"] for p in parts)
        return notes, attempted, sum(p["failed"] for p in parts), metrics

    workload = cls(f"{seed}/0", smoke)
    plain = run_passes(workload, workload.passes(), seconds / 2)
    with Tracer() as tracer:
        traced = run_passes(workload, plain.passes, None)
    metrics = tracer.metrics(len(plain.passes))
    traced_wall = sum(traced.pass_times)
    metrics["trace.overhead_ratio"] = traced_wall / sum(plain.pass_times)
    shares = {k: v / traced_wall for k, v in tracer.layer_self_times().items()}
    shares["harness"] = 1 - sum(shares.values())
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"{workload.name}-seed{seed}.spans.jsonl"
    tracer.write_spans(spans)
    requests = [r for p in plain.passes for r in p]
    notes = [
        f"inputs {workload.describe(requests)} passes={len(plain.passes)}",
        "self_time_share " + " ".join(f"{k}={v:.4f}" for k, v in shares.items()),
        f"spans {len(tracer.spans)} kept, {tracer.spans_dropped} dropped, in {spans.relative_to(ROOT)}",
    ]
    return notes, plain.attempted + traced.attempted, plain.failed + traced.failed, metrics


def smoke():
    """Every workload at toy size, both modes: names, units and no failures."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for trace, key, units in ((0, "end_to_end", END_TO_END), (1, "per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            problems.append(f"BENCHMARK.json {key} differs from the metrics run.py reports")
        for name, cls in workloads.WORKLOADS.items():
            _, attempted, failed, metrics = measure(cls, 1, 0.5, trace, smoke=True, setup_samples=1)
            error_rate = failed / attempted
            print(f"smoke {name} trace={trace} attempted={attempted} error_rate={error_rate}")
            if set(metrics) != set(units):
                problems.append(f"{name} trace={trace}: metrics {sorted(set(metrics) ^ set(units))}")
            if error_rate != 0:
                problems.append(f"{name} trace={trace}: error_rate {error_rate}")
    for problem in problems:
        print(f"smoke FAILED: {problem}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick check at toy sizes")
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    import_package()
    if args.smoke:
        return smoke()
    if args.worker is not None:
        cls = workloads.WORKLOADS[args.workload]
        print(json.dumps(run_worker(cls, args.seed, args.worker, args.seconds, args.toy)))
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    print("machine " + json.dumps(machine()))
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    cls = workloads.WORKLOADS[args.workload]
    notes, attempted, failed, metrics = measure(cls, args.seed, args.seconds, args.trace)
    for note in notes:
        print(note)
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(f"error_rate {failed / attempted!r} ({failed} of {attempted} checked operations failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
