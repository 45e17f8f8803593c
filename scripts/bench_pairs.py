#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of runs.

    PYTHONPATH=src python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --workload spectral --seeds 1:10,2:5 --out BENCH_spectral.json

DIR is a checkout of each side, the parent commit and the change, and the
two must lie in one directory: the same tree read op_p50_ms 1.02 times as
high from a checkout placed elsewhere than its parent's, so the script exits
2 otherwise.  Git clones side by side are the placement the BENCH files
use.  For each SEED:PAIRS item, it runs
`python3 bench/run.py --workload W --seed SEED --seconds S --trace 0` in
both checkouts PAIRS times, one run at a time, and alternates from pair to
pair which side runs first; S is the run_seconds of the change's
BENCHMARK.json.  It writes the `# machine` header of the first run and,
per seed and metric, each side's runs, median and quartiles
(statistics.quantiles, inclusive), the ratio of the medians
(change_over_parent), the number of pairs in which the change is lower,
and the failed and attempted op counts of each side.  A run whose machine
(nproc, blas_threads, numpy, ...) is not the first run's exits 2.  For each
side it records the commit that bench/run.py reads and whether the checkout
has uncommitted changes (git status), since an uncommitted change reads as
its parent's commit.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

from tensorflat.cli import Parser, flagged, run

SIDES = ("parent", "change")
# header fields that differ from run to run or from side to side
RUN_FIELDS = ("workload", "seed", "git_commit")


def seed_pair(item):
    """One SEED:PAIRS item of --seeds as a (seed, pairs) tuple."""
    seed, sep, pairs = item.partition(":")
    if not sep or int(pairs) < 1:
        raise ValueError(f"expected SEED:PAIRS with PAIRS >= 1, got {item!r}")
    return int(seed), int(pairs)


def uncommitted(checkout):
    """Whether git status lists a change in the checkout; None for a checkout
    without a .git of its own, whose commit bench/run.py does not read."""
    if not (checkout / ".git").exists():
        return None
    done = subprocess.run(["git", "status", "--porcelain"], cwd=checkout, capture_output=True,
                          text=True)
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def run_once(checkout, workload, seed, seconds):
    """The machine header and the last-line result of one bench/run.py run."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        last = (done.stderr.strip().splitlines() or [""])[-1]
        raise ValueError(f"{checkout}: bench/run.py exited {done.returncode}: {last}")
    lines = done.stdout.strip().splitlines()
    header = next(json.loads(line[len("# machine "):]) for line in lines
                  if line.startswith("# machine "))
    return header, json.loads(lines[-1])


def same_machine(machine, header, checkout):
    """header's fields but RUN_FIELDS, which must equal machine, the first run's."""
    own = {key: value for key, value in header.items() if key not in RUN_FIELDS}
    for field in sorted(machine.keys() | own.keys()) if machine is not None else ():
        if machine.get(field) != own.get(field):
            raise ValueError(f"{checkout}: runs on different machines do not compare: {field} "
                             f"{machine.get(field)!r} in the first run, {own.get(field)!r} here")
    return own


def spread(values):
    """q1, median and q3 (statistics.quantiles, inclusive) and the count."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def summarize(pairs):
    """The summary of one workload and seed from its pairs, each a dict
    {"parent": result, "change": result} of bench/run.py last-line results."""
    metrics = {}
    for name, first in pairs[0]["parent"]["metrics"].items():
        runs = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        parent, change = (spread(runs[side]) for side in SIDES)
        metrics[name] = {
            "unit": first["unit"],
            "parent": parent,
            "change": change,
            "change_over_parent": change["median"] / parent["median"],
            "pairs_change_lower": sum(c < p for p, c in zip(runs["parent"], runs["change"])),
            "runs": runs,
        }
    return {
        "pairs": len(pairs),
        "failed": {side: sum(pair[side]["failed"] for pair in pairs) for side in SIDES},
        "attempted": {side: sum(pair[side]["attempted"] for pair in pairs) for side in SIDES},
        "metrics": metrics,
    }


def main():
    ap = Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True, choices=("spectral", "montecarlo", "oracle", "limit"))
    ap.add_argument("--seeds", required=True, help="SEED:PAIRS items, e.g. 1:10,2:5")
    ap.add_argument("--out", required=True, help="the BENCH JSON file to write")
    args = ap.parse_args()
    items = [flagged("--seeds", seed_pair, item) for item in args.seeds.split(",")]
    dirs = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    if dirs["parent"].parent != dirs["change"].parent:
        raise ValueError(f"--parent and --change must lie in one directory, not in "
                         f"{dirs['parent'].parent} and {dirs['change'].parent}")
    for side, path in dirs.items():
        if not (path / "bench" / "run.py").is_file():
            raise ValueError(f"--{side}: no bench/run.py under {path}")
    seconds = json.loads((dirs["change"] / "BENCHMARK.json").read_text())["run_seconds"]
    dirty = {side: uncommitted(path) for side, path in dirs.items()}
    machine, commits, summary, order = None, {}, [], 0
    for seed, count in items:
        pairs = []
        for _ in range(count):
            pair = {}
            for side in SIDES[::-1] if order % 2 else SIDES:
                header, pair[side] = run_once(dirs[side], args.workload, seed, seconds)
                commits[side] = header["git_commit"]
                machine = same_machine(machine, header, dirs[side])
            order += 1
            pairs.append(pair)
            print(f"seed {seed} pair {len(pairs)}: wall_s parent "
                  f"{pair['parent']['metrics']['wall_s']['value']:.4f}, change "
                  f"{pair['change']['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
        summary.append({"workload": args.workload, "seed": seed, **summarize(pairs)})
    report = {
        "command": f"python3 bench/run.py --workload {args.workload} --seed S "
                   f"--seconds {seconds} --trace 0",
        **{side: {"dir": dirs[side].name, "git_commit": commits[side],
                  "uncommitted": dirty[side]} for side in SIDES},
        "protocol": "parent and change alternate within each pair, and which side runs first "
                    "alternates from pair to pair; one run at a time. Quartiles: "
                    "statistics.quantiles(method='inclusive').",
        "machine": machine,
        "summary": summary,
    }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    raise SystemExit(run(main))
