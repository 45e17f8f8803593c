#!/usr/bin/env python3
"""Scan every flattening pair at a given k and report how fast the exact
pair moment approaches its limit.

For each (sigma, sigma', eps') the exact expected normalized trace is
computed at two sizes and compared against the limiting value; the table
lists the pairs with the largest fitted 1/N constants.
"""

import sys

from tensorflat.cli import Parser, bounded
from tensorflat.moments import plain_word, word_phi
from tensorflat.perms import group
from tensorflat.tensors import parse_model
from tensorflat.traffic import full_trace_expect


def main():
    ap = Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=bounded(1), default=2)
    ap.add_argument("--N", type=bounded(1), default=4)
    ap.add_argument("--N2", type=bounded(1), default=8)
    ap.add_argument("--model", default="complex_ginibre")
    ap.add_argument("--top", type=bounded(0), default=10)
    args = ap.parse_args()

    model = parse_model(args.model)
    k = args.k
    rows = []
    for sigma in group(2 * k):
        for sigma2 in group(2 * k):
            for eps2 in ("1", "*"):
                word = plain_word(k, [(sigma, "1"), (sigma2, eps2)])
                limit = complex(word_phi(word, model.c, model.c_prime))
                g1 = abs(full_trace_expect(word, args.N, model) - limit)
                g2 = abs(full_trace_expect(word, args.N2, model) - limit)
                rows.append((args.N * g1, g2, sigma, sigma2, eps2))
    rows.sort(reverse=True, key=lambda r: r[0])
    total = len(rows)
    violations = sum(1 for C, g2, *_ in rows if g2 > C / args.N2 + 1e-12)
    print(f"{total} pairs scanned at k={k}; {violations} exceed the fitted C/N bound")
    print(f"{'C (fit at N=%d)' % args.N:>16} {'gap at N=%d' % args.N2:>12}  pair")
    for C, g2, sigma, sigma2, eps2 in rows[: args.top]:
        print(
            f"{C:16.6f} {g2:12.6f}  "
            f"{list(sigma.image)} x {list(sigma2.image)}^{eps2}"
        )


if __name__ == "__main__":
    try:
        main()
    except (ValueError, OSError) as exc:  # as tensorflat's CLI: one line, exit 2
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
