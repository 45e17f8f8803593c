"""Benchmark entry point.

    python3 bench/run.py --workload spectral --seed 1 --seconds 25 --trace 0

With --trace 0 it prints the end-to-end metrics of one workload, with
--trace 1 the per-layer metrics and the tracing overhead.  Every workload
process is fresh, runs with a fixed BLAS thread count, and checks each op's
output against the golden record.  Times are scaled to the host speed at
which a fixed reference load takes REF_S (see op_latencies).  The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  See bench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("spectral", "montecarlo", "oracle", "limit")

# fail_frac is printed too, but is no metric here: it is 0 at a correct
# commit, and the result's "failed" and "attempted" carry it.
END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

BLAS_THREADS = 1
# The reference load's time (worker.reference_load) on an uncontended core
# of the machine the benchmark was written on (2 vCPUs of a shared Xeon
# host, Python 3.11).
REF_S = 2.0e-3
SETUP_REPS = 8  # set-up-only processes; with the measuring one, setup_s is a median of 9
MIN_PASSES = 3  # an op's latency is a median over its passes
DEADLINE_S = 170.0


def spawn(args, extra, deadline):
    """Run bench/worker.py in a fresh process; return its result with the
    set-up time measured from just before the process started."""
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONHASHSEED="0",
    )
    argv = [sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), *extra]
    start = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_raw_s"] = result["ready"] - start
    result["setup_s"] = result["setup_raw_s"] * REF_S / result["setup_ref"]
    return result


def op_latencies(result, scaled=True):
    """Each op's latency: the median over passes of its time, scaled by
    REF_S over the reference load's time around it.  Other tenants of a
    shared host change its speed by up to 1.9x, in phases of seconds to
    minutes; the scaled time is what the op takes when the reference load
    takes REF_S, whatever phase the run fell in.  scaled=False gives the
    unscaled medians."""
    return [
        statistics.median(t * REF_S / r if scaled else t for t, r in zip(times, refs))
        for times, refs in zip(result["latencies"], result["refs"])
    ]


def wall_s(result, scaled=True):
    """Seconds for one pass of the op list, from each op's latency."""
    return sum(op_latencies(result, scaled))


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def l3_bytes():
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    if not path.is_file():
        return None
    text = path.read_text().strip()
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def header(args, result):
    with open(BENCH / "golden" / f"{args.workload}.json") as fh:
        golden_commit = json.load(fh)["commit"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "blas": result["blas"],
        "blas_threads": result["blas_threads"],
        "l3_bytes": l3_bytes(),
        "git_commit": git_commit(),
        "golden_commit": golden_commit,
    }


def end_to_end(args, deadline):
    runs = [spawn(args, ["--setup-only"], deadline) for _ in range(SETUP_REPS)]
    result = spawn(args, ["--seconds", str(args.seconds), "--min-passes", str(MIN_PASSES)],
                   deadline)
    runs.append(result)
    setups = [run["setup_s"] for run in runs]
    setups_raw = [run["setup_raw_s"] for run in runs]
    latencies = op_latencies(result)
    p90 = statistics.quantiles(latencies, n=10)[-1]
    values = {
        "wall_s": sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["maxrss_kb"] / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    ref = statistics.median(r for refs in result["refs"] for r in refs)
    notes = [
        f"{len(latencies)} ops, each the median of {result['passes']} passes: "
        f"{sum(t > p90 for t in latencies)} op latencies above p90",
        f"unscaled: wall_s {wall_s(result, scaled=False)!r} s, "
        f"setup_s {statistics.median(setups_raw)!r} s; reference load median "
        f"{ref * 1e3!r} ms against REF_S {REF_S * 1e3!r} ms",
        f"fail_frac = {result['failed'] / result['attempted']!r} "
        f"({result['failed']} of {result['attempted']} ops failed)",
    ]
    return result, [result], metrics, notes


def per_layer(args, deadline):
    import tracer

    half = str(args.seconds / 2)
    plain = spawn(args, ["--seconds", half], deadline)
    traced = spawn(args, ["--seconds", half, "--traced"], deadline)
    overhead = wall_s(traced) / wall_s(plain) - 1.0
    metrics = tracer.layer_metrics(traced["trace"], overhead)
    notes = [
        f"untraced: {plain['passes']} passes, wall_s {wall_s(plain)!r}; "
        f"traced: {traced['passes']} passes, wall_s {wall_s(traced)!r}",
        "per-layer figures cover set-up plus one pass of the op list",
    ]
    return traced, [plain, traced], metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description="tensorflat benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tensorflat" / "__init__.py").is_file():
        print(f"error: no tensorflat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        result, runs, metrics, notes = (per_layer if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print("# machine " + json.dumps(header(args, result), sort_keys=True))
    for note in notes:
        print("# " + note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
