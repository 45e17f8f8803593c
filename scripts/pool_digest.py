#!/usr/bin/env python3
"""Print the id and an output hash of every op in a benchmark workload's pool.

    PYTHONPATH=src python3 scripts/pool_digest.py --workload oracle [--values]

Runs every op any seed of the workload can pick (bench/workloads.pool) as
the benchmark runs it (workloads.prepare), with BLAS on one thread, as
bench/run.py sets it.  The hash of a CLI op covers its exit code, its JSON
stdout with every "timings" key removed, and its --hist SVG; that of a word
or mixture op covers the repr of the elements it returns, signed zeros and
coefficient types included.  Running it under the PYTHONPATH of two
checkouts and diffing the outputs shows whether a change leaves every
pooled op's output byte-identical.  With --values it prints, in place of the
hash, the op's record of the golden gate (workloads.reduce: exit code,
integer outputs, exact and Monte Carlo values) as one JSON line, so that two
checkouts can be compared number by number.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy is loaded

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
from tensorflat.cli import Parser, run  # noqa: E402


def without_timings(value):
    if isinstance(value, dict):
        return {key: without_timings(v) for key, v in value.items() if key != "timings"}
    if isinstance(value, list):
        return [without_timings(v) for v in value]
    return value


def digest(op, raw, scratch):
    h = hashlib.sha256()
    if op["kind"] in ("word", "mixture"):
        h.update(repr(raw).encode())
        return h.hexdigest()[:16]
    code, text, hist_path = raw
    h.update(f"{code}\n".encode())
    if text:
        # the --hist path names the scratch directory, which differs per run
        payload = without_timings(json.loads(text.replace(scratch, "")))
        h.update(json.dumps(payload, sort_keys=True).encode())
    if hist_path is not None and hist_path.exists():
        h.update(hist_path.read_bytes())
        hist_path.unlink()
    return h.hexdigest()[:16]


def values(op, raw):
    """The op's golden-gate record as one JSON line (floats by their repr,
    so that the line gives back every value bit for bit)."""
    return json.dumps(workloads.reduce(op, raw), sort_keys=True)


def main():
    ap = Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--values", action="store_true",
                    help="print each op's golden-gate record in place of its hash")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        for op in workloads.pool(args.workload):
            raw = workloads.prepare(op, scratch)()
            print(op["id"], values(op, raw) if args.values else digest(op, raw, scratch))


if __name__ == "__main__":
    raise SystemExit(run(main))
