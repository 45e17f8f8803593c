#!/usr/bin/env python3
"""Sweep matrix sizes for one spectral target and write per-size reports.

Example:
    python3 scripts/spectrum_experiment.py --k 2 --target S3 \
        --sizes 8,16,32 --trials 10 --out-dir out/
"""

import json
import pathlib
import sys

from tensorflat.cli import Parser, bounded, sizes, spectrum_csv
from tensorflat.moments import MAX_MOMENT_ORDER, Target
from tensorflat.spectra import histogram_svg, run_experiment
from tensorflat.tensors import parse_model


def main():
    ap = Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=bounded(1), default=2)
    ap.add_argument("--target", choices=[t.name for t in Target], default=Target.S1.name)
    ap.add_argument("--model", default="complex_ginibre")
    ap.add_argument("--sizes", default="8,16,32")
    ap.add_argument("--trials", type=bounded(1), default=10)
    ap.add_argument("--n-max", type=bounded(1, MAX_MOMENT_ORDER), default=4)
    ap.add_argument("--seed", type=bounded(0), default=0)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    n_list = sizes(args.sizes, "--sizes")
    model = parse_model(args.model)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for N in n_list:
        report = run_experiment(
            model, Target[args.target], args.k, N, args.trials, args.n_max,
            seed=args.seed, with_hist=True,
        )
        stem = f"{args.target}_k{args.k}_N{N}"
        (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True))
        (out_dir / f"{stem}.csv").write_text(spectrum_csv(report["moments"]))
        (out_dir / f"{stem}.svg").write_text(histogram_svg(report["histogram"]))
        worst = max(
            abs(r["empirical"] - r["predicted"]) / (abs(r["predicted"]) or 1.0)
            for r in report["moments"]
        )
        print(f"N={N:4d}  worst relative moment gap {worst:.3f}  -> {stem}.*")


if __name__ == "__main__":
    try:
        main()
    except (ValueError, OSError) as exc:  # as tensorflat's CLI: one line, exit 2
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
