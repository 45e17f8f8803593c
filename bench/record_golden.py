"""Record the golden output of every op any seed can pick.

    python3 bench/record_golden.py [workload ...]

Writes bench/golden/<workload>.json.  Run it only at a commit whose outputs
are to become the reference; an op that fails (exit code 2) is an error.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

from run import git_commit  # noqa: E402
from worker import ROOT  # noqa: E402  (puts the checkout's src first on sys.path)

import workloads  # noqa: E402


def record(workload, scratch):
    ops = {}
    for op in workloads.pool(workload):
        rec = workloads.reduce(op, workloads.prepare(op, scratch)())
        if rec["code"] == 2:
            raise SystemExit(f"{workload} op {op['id']} exits with code 2")
        ops[op["id"]] = rec
    path = workloads.golden_path(workload)
    with open(path, "w") as fh:
        json.dump({"commit": git_commit(), "ops": ops}, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{workload}: {len(ops)} ops -> {path.relative_to(ROOT)}")


def main(argv):
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        for workload in argv or workloads.WORKLOADS:
            record(workload, scratch)


if __name__ == "__main__":
    main(sys.argv[1:])
