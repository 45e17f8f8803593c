#!/usr/bin/env python3
"""Print the exact finite-size trend of a word's expected trace next to its
limit, optionally with a Monte Carlo column.

The word is given as JSON (inline or a file path), the same format the CLI
uses:
    {"k": 1, "letters": [{"sigma": [2,1], "eps": "1"},
                         {"sigma": [2,1], "eps": "*"}],
     "etas": [[1], [1]]}
"""

import math
import sys

import numpy as np

from tensorflat.cli import Parser, bounded, load_word, sizes
from tensorflat.moments import word_phi
from tensorflat.tensors import parse_model, phi_N, sample_tensor, word_eval
from tensorflat.traffic import full_trace_expect


def main():
    ap = Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--word", required=True)
    ap.add_argument("--sizes", default="4,6,8,10")
    ap.add_argument("--model", default="complex_ginibre")
    ap.add_argument("--trials", type=bounded(0), default=0, help="0 disables Monte Carlo")
    ap.add_argument("--seed", type=bounded(0), default=0)
    args = ap.parse_args()
    if args.trials == 1:  # one trial gives no standard error
        ap.error(f"argument --trials: must be 0 or at least 2, got {args.trials}")

    n_list = sizes(args.sizes, "--sizes")
    w = load_word(args.word)
    model = parse_model(args.model)
    limit = complex(word_phi(w, model.c, model.c_prime))
    print(f"limit phi = {limit.real:+.8f}{limit.imag:+.8f}j")
    header = f"{'N':>5} {'exact':>22} {'|gap|':>12}"
    if args.trials:
        header += f" {'monte carlo':>22} {'3 SE':>10}"
    print(header)
    for N in n_list:
        exact = full_trace_expect(w, N, model)
        line = (
            f"{N:5d} {exact.real:+.8f}{exact.imag:+.8f}j {abs(exact - limit):12.3e}"
        )
        if args.trials:
            samples = np.array(
                [
                    phi_N(word_eval(sample_tensor(model, N, w.k, args.seed, t), w))
                    for t in range(args.trials)
                ]
            )
            se = math.hypot(
                samples.real.std(ddof=1), samples.imag.std(ddof=1)
            ) / math.sqrt(args.trials)
            mean = samples.mean()
            line += f" {mean.real:+.8f}{mean.imag:+.8f}j {3 * se:10.3e}"
        print(line)


if __name__ == "__main__":
    try:
        main()
    except (ValueError, OSError) as exc:  # as tensorflat's CLI: one line, exit 2
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
