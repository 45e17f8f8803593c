"""One workload in one fresh process.

    python3 bench/worker.py --workload oracle --seed 1 --seconds 12 \
        [--traced] [--min-passes 3] [--setup-only]

Set-up (imports, input generation, the first fill of the perms.group
caches) ends at the printed "ready" clock reading.  Then whole passes over
the op list run until starting another would overrun --seconds, and at
least --min-passes of them.  Every op's output is checked against its
golden record right after the op, outside the timed call.  A fixed
reference load is timed before every op and after the last one, to read
how fast the host runs at that moment.  The last line of standard output is
a JSON object with the raw measurements; bench/run.py turns them into
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
from tensorflat import perms  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def blas_threads():
    """The thread count the loaded OpenBLAS reports, or None if it cannot
    be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def blas_name():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        return None
    return f"{blas.get('name')} {blas.get('version', '')}".strip()


def _remove_scratch(scratch):
    shutil.rmtree(scratch, ignore_errors=True)
    with contextlib.suppress(OSError):  # another worker may still use it
        scratch.parent.rmdir()


def reference_load():
    """Fixed pure-Python work: integer arithmetic, then building tuples and
    updating a dict, the two kinds of work the library's interpreted code
    mixes.  It takes REF_S in bench/run.py on an uncontended core of the
    machine the benchmark was written on."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    p, q, seen = tuple(range(8)), tuple(range(7, -1, -1)), {}
    for i in range(700):
        r = tuple(p[j] for j in q)
        seen[r] = seen.get(r, 0) + i
        p, q = q, r
    return total, len(seen)


def time_reference():
    t0 = time.perf_counter()
    reference_load()
    return time.perf_counter() - t0


def run_passes(ops, calls, golden, seconds, min_passes):
    """Time whole passes over the ops, checking each output against its
    golden record outside the timed call, until starting another pass
    would overrun `seconds` and at least `min_passes` have run.

    Returns (latencies per op per pass, the mean of the reference timings
    just before and just after each of those, passes, failed ops, first
    failures).
    """
    latencies = [[] for _ in ops]
    refs = [[] for _ in ops]
    pass_times = []
    failed = 0
    failures = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        before = time_reference()
        for op, call, times, op_refs in zip(ops, calls, latencies, refs):
            t0 = time.perf_counter()
            try:
                raw = call()
            except Exception as exc:  # a raising op is a failed op
                raw = exc
            times.append(time.perf_counter() - t0)
            problem = workloads.check(op, raw, golden)
            if problem is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{op['id']}: {problem}")
            after = time_reference()
            op_refs.append((before + after) / 2)
            before = after
        pass_times.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if len(pass_times) >= min_passes and elapsed + statistics.median(pass_times) > seconds:
            return latencies, refs, len(pass_times), failed, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with contextlib.ExitStack() as stack:
        trace = stack.enter_context(tracer.Tracer()) if args.traced else None
        scratch = ROOT / ".bench_tmp" / str(os.getpid())
        scratch.mkdir(parents=True, exist_ok=True)
        stack.callback(_remove_scratch, scratch)

        ops = workloads.op_list(args.workload, args.seed)
        calls = [workloads.prepare(op, scratch) for op in ops]
        for n in range(1, workloads.MAX_DEGREE + 1):
            perms.group(n)
        ready = time.perf_counter()
        # the host's speed just after set-up, for bench/run.py to scale it by
        setup_ref = statistics.median(time_reference() for _ in range(9))
        if args.setup_only:
            print(json.dumps({"ready": ready, "setup_ref": setup_ref}))
            return 0
        at_setup = trace.snapshot() if trace else None
        golden = workloads.load_golden(args.workload)

        latencies, refs, passes, failed, failures = run_passes(
            ops, calls, golden, args.seconds, args.min_passes)

    for line in failures:
        print(f"golden gate: {line}", file=sys.stderr)
    result = {
        "ready": ready,
        "setup_ref": setup_ref,
        "latencies": latencies,
        "refs": refs,
        "passes": passes,
        "attempted": sum(len(t) for t in latencies),
        "failed": failed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas": blas_name(),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
    }
    if trace:
        result["trace"] = tracer.per_pass(at_setup, trace.stats, passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
