#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of runs.

    PYTHONPATH=src python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --workload spectral --seeds 1:10,2:5 --out BENCH_spectral.json

DIR is a checkout of each side (a git clone or export of the parent commit,
a copy of the changed tree).  For each SEED:PAIRS item, it runs
`python3 bench/run.py --workload W --seed SEED --seconds S --trace 0` in
both checkouts PAIRS times, one run at a time, and alternates from pair to
pair which side runs first; S is the run_seconds of the change's
BENCHMARK.json.  It writes the `# machine` header of the first
run and, per seed and metric, each side's runs, median and quartiles
(statistics.quantiles, inclusive), the ratio of the medians
(change_over_parent), the number of pairs in which the change is lower,
and the failed and attempted op counts of each side.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

from tensorflat.cli import Parser

SIDES = ("parent", "change")
# header fields that differ from run to run or from side to side
RUN_FIELDS = ("workload", "seed", "git_commit")


def seed_pairs(text):
    """SEED:PAIRS items, comma separated, as (seed, pairs) tuples."""
    items = []
    for item in text.split(","):
        seed, sep, pairs = item.partition(":")
        try:
            items.append((int(seed), int(pairs)))
        except ValueError:
            raise ValueError(f"--seeds: expected SEED:PAIRS items, got {item!r}") from None
        if not sep or items[-1][1] < 1:
            raise ValueError(f"--seeds: expected SEED:PAIRS with PAIRS >= 1, got {item!r}")
    return items


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
    items = seed_pairs(args.seeds)
    dirs = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for side, path in dirs.items():
        if not (path / "bench" / "run.py").is_file():
            raise ValueError(f"--{side}: no bench/run.py under {path}")
    seconds = json.loads((dirs["change"] / "BENCHMARK.json").read_text())["run_seconds"]
    machine, commits, summary, order = None, {}, [], 0
    for seed, count in items:
        pairs = []
        for _ in range(count):
            pair = {}
            for side in SIDES[::-1] if order % 2 else SIDES:
                header, pair[side] = run_once(dirs[side], args.workload, seed, seconds)
                commits[side] = header["git_commit"]
                if machine is None:
                    machine = {k: v for k, v in header.items() if k not in RUN_FIELDS}
            order += 1
            pairs.append(pair)
            print(f"seed {seed} pair {len(pairs)}: wall_s parent "
                  f"{pair['parent']['metrics']['wall_s']['value']:.4f}, change "
                  f"{pair['change']['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
        summary.append({"workload": args.workload, "seed": seed, **summarize(pairs)})
    report = {
        "command": f"python3 bench/run.py --workload {args.workload} --seed S "
                   f"--seconds {seconds} --trace 0",
        "parent": {"dir": dirs["parent"].name, "git_commit": commits["parent"]},
        "change": {"dir": dirs["change"].name, "git_commit": commits["change"]},
        "protocol": "parent and change alternate within each pair, and which side runs first "
                    "alternates from pair to pair; one run at a time. Quartiles: "
                    "statistics.quantiles(method='inclusive').",
        "machine": machine,
        "summary": summary,
    }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    try:
        main()
    except (ValueError, OSError) as exc:  # as tensorflat's CLI: one line, exit 2
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
