"""Command-line harness.

Subcommands: check, covariance, moments, oracle, spectrum, freeness.
Exit codes: 0 pass, 1 tolerance failure, 2 usage or guard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .characters import character_convolution_check, check_partition
from .group_algebra import AlgebraElement, max_coeff_diff
from .moments import (
    Letter,
    Word,
    catalan,
    character_mixture,
    covariance,
    freeness_conditions,
    letters_from_json,
    scalar_freeness_report,
    word_expectation,
    word_expectation_enumerated,
)
from .perms import Permutation, compose, coset_key, embed_join, group, tau
from .spectra import histogram_svg, run_experiment
from .tensors import (
    TensorModel,
    cond_expect_N,
    flatten,
    choi_check,
    parse_model,
    perm_matrix,
    phi_N,
    sample_tensor,
    save_matrix,
    word_eval,
)
from .traffic import full_trace_expect, full_trace_expect_detailed, word_cond_expect_exact


def load_word(spec):
    """Word JSON, inline or from a file path."""
    text = spec
    if not spec.lstrip().startswith("{"):
        with open(spec) as fh:
            text = fh.read()
    return Word.from_json(text)


def config_flags(path):
    """The flat key=value lines of a config file as flag tokens: key (or
    key with dashes for underscores) names the flag, as in n_max=4 or
    n-max=4 for --n-max 4."""
    tokens = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{number}: expected key=value, got {line!r}")
            tokens += ["--" + key.strip().replace("_", "-"), value.strip()]
    return tokens


def resolved_config(args):
    cfg = {k: v for k, v in vars(args).items() if k not in ("func",) and v is not None}
    cfg["version"] = __version__
    return cfg


def emit(args, payload, table_lines):
    payload = dict(payload)
    payload["config"] = resolved_config(args)
    if "seed" in payload["config"]:
        payload["config"]["rng"] = {
            "seed": payload["config"]["seed"],
            "streams": payload["config"].get("trials", 1),
        }
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    elif args.format == "csv":
        text = payload["csv"]
    else:
        text = "\n".join(table_lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# --- check -----------------------------------------------------------------


def cmd_check(args):
    k_max, N = args.k, args.N
    rng = np.random.default_rng(args.seed)
    model = TensorModel.complex_ginibre()
    results = []

    def record(name, passed, detail=""):
        results.append({"name": name, "passed": bool(passed), "detail": detail})

    for k in range(1, k_max + 1):
        perms2k = group(2 * k)
        t = sample_tensor(model, N, k, args.seed)
        # flattening / permutation-operator intertwining identity
        worst = 0.0
        for _ in range(5):
            sigma = perms2k[rng.integers(len(perms2k))]
            M = flatten(t, sigma).data
            for eta in group(k):
                U = perm_matrix(eta, t.N).data
                for eta2 in group(k):
                    U2 = perm_matrix(eta2, t.N).data
                    lhs = U @ M @ U2.conj().T
                    rhs = flatten(t, compose(embed_join(eta, eta2), sigma)).data
                    worst = max(worst, float(np.abs(lhs - rhs).max()))
        record(f"intertwine k={k}", worst <= 1e-12, f"max defect {worst:.2e}")
        # normalized trace of permutation operators
        ok = all(
            phi_N(perm_matrix(eta, t.N).data)
            == t.N ** (eta.cycle_count() - k) + 0j
            for eta in group(k)
        )
        record(f"perm trace k={k}", ok)
        # transpose flattening
        sigma = perms2k[rng.integers(len(perms2k))]
        ok = np.array_equal(flatten(t, compose(tau(k), sigma)).data, flatten(t, sigma).data.T)
        record(f"transpose k={k}", ok)
        # conditional expectation bimodule identity
        side = t.N**k
        A = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        eta = group(k)[rng.integers(math.factorial(k))]
        eta2 = group(k)[rng.integers(math.factorial(k))]
        U = perm_matrix(eta, t.N).data
        U2 = perm_matrix(eta2, t.N).data
        lhs = cond_expect_N(U @ A @ U2, k)
        rhs = AlgebraElement.basis(eta) * cond_expect_N(A, k) * AlgebraElement.basis(eta2)
        diff = max_coeff_diff(lhs, rhs)
        record(f"bimodule k={k}", diff <= 1e-12, f"max defect {diff:.2e}")
        if N < k:
            record(f"uniqueness k={k}", True, f"warning: N={N} < k={k}, coefficients not unique")

    for k in range(1, k_max + 1):
        skk = len({coset_key(s, "Skk") for s in group(2 * k)})
        skkt = len({coset_key(s, "SkkTau") for s in group(2 * k)})
        want = math.factorial(2 * k) // math.factorial(k) ** 2
        record(f"coset counts k={k}", skk == want and skkt == want // 2, f"{skk}/{skkt}")
    for k in range(1, k_max + 1):
        record(f"character convolution k={k}", character_convolution_check(k))
    kk = min(k_max, 2)
    mineig, defect = choi_check(N, kk)
    record(
        f"choi k={kk}",
        mineig >= -1e-10 and defect <= 1e-10,
        f"min eig {mineig:.2e}, defect {defect:.2e}",
    )

    failures = [r for r in results if not r["passed"]]
    lines = [
        f"[{'PASS' if r['passed'] else 'FAIL'}] {r['name']}"
        + (f" ({r['detail']})" if r["detail"] else "")
        for r in results
    ]
    lines.append(f"{len(results) - len(failures)}/{len(results)} checks passed")
    emit(args, {"results": results, "failures": len(failures)}, lines)
    return 1 if failures else 0


# --- covariance ------------------------------------------------------------


def cmd_covariance(args):
    k, N, trials, seed = args.k, args.N, args.trials, args.seed
    first = Letter(Permutation.from_json(args.sigma), args.eps)
    second = Letter(Permutation.from_json(args.sigma2), args.eps2)
    eta = Permutation.identity(k) if args.eta is None else Permutation.from_json(args.eta)
    model = parse_model(args.model)

    w = Word(k, (first.followed_by(eta), second))
    limit = covariance(first, eta, second, model.c, model.c_prime)
    oracle = word_cond_expect_exact(w, N, model)
    # the last letter is paired with k! permuted traces of the rest, so the
    # full N^k x N^k product is never formed
    head, last = w[:-1], w[-1:]
    acc = {h: [] for h in group(k)}
    sample_s = estimate_s = 0.0
    for trial in range(trials):
        start = time.perf_counter()
        t = sample_tensor(model, N, k, seed, trial)
        sampled = time.perf_counter()
        est = cond_expect_N(word_eval(t, head).data, k, right=word_eval(t, last).data)
        for h in acc:
            acc[h].append(est.coeff(h))
        sample_s += sampled - start
        estimate_s += time.perf_counter() - sampled
    if args.dump:
        save_matrix(args.dump, word_eval(t, w))
    rows = []
    for h in group(k):
        vals = np.array(acc[h])
        mean = complex(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        rows.append(
            {
                "eta": list(h.image),
                "mc_mean": [mean.real, mean.imag],
                "mc_stderr": se,
                "oracle": [complex(oracle.coeff(h)).real, complex(oracle.coeff(h)).imag],
                "limit": [complex(limit.coeff(h)).real, complex(limit.coeff(h)).imag],
            }
        )
    lines = [f"{'eta':16} {'MC mean':>22} {'stderr':>10} {'oracle':>22} {'limit':>10}"]
    for r in rows:
        lines.append(
            f"{str(r['eta']):16} {r['mc_mean'][0]:+.5f}{r['mc_mean'][1]:+.5f}j"
            f" {r['mc_stderr']:10.2e} {r['oracle'][0]:+.5f}{r['oracle'][1]:+.5f}j"
            f" {r['limit'][0]:+.4f}{r['limit'][1]:+.4f}j"
        )
    passed = True
    if args.tol is not None:
        for r in rows:
            gap = math.hypot(r["oracle"][0] - r["limit"][0], r["oracle"][1] - r["limit"][1])
            if gap > args.tol:
                passed = False
    counters = {
        "side": N**k,
        "trials": trials,
        "pairings": math.factorial(k),
        "matmuls": len(head) - 1,  # per trial; the last letter is paired, not multiplied
    }
    timings = {"sample_s": sample_s, "estimate_s": estimate_s}
    emit(args, {"rows": rows, "passed": passed, "counters": counters, "timings": timings}, lines)
    return 0 if passed else 1


# --- moments ---------------------------------------------------------------


def cmd_moments(args):
    n_list = sizes(args.N_list, "--N-list")
    w = load_word(args.word)
    model = parse_model(args.model)
    c, cp = model.c, model.c_prime
    start = time.perf_counter()
    limit = word_expectation(w, c, cp)
    recursed = time.perf_counter()
    enum = word_expectation_enumerated(w, c, cp)
    enumerated = time.perf_counter()
    agreement = max_coeff_diff(limit, enum)
    phi_lim = complex(limit.phi())
    trend = []
    for N in n_list:
        phi = full_trace_expect(w, N, model)
        trend.append({"N": N, "oracle_phi": [phi.real, phi.imag], "gap": abs(phi - phi_lim)})
    counters = {"letters": len(w), "nc_pairings": 0 if len(w) % 2 else catalan(len(w) // 2)}
    timings = {
        "recursion_s": recursed - start,
        "enumeration_s": enumerated - recursed,
        "oracle_s": time.perf_counter() - enumerated,
    }
    passed = agreement <= args.tol
    lines = [
        f"limit phi = {phi_lim.real:+.6f}{phi_lim.imag:+.6f}j",
        f"recursion vs enumeration max diff = {agreement:.2e} "
        f"({'PASS' if passed else 'FAIL'} at {args.tol:.0e})",
        f"{'N':>4} {'oracle phi':>22} {'|gap to limit|':>14}",
    ]
    for row in trend:
        lines.append(
            f"{row['N']:4d} {row['oracle_phi'][0]:+.6f}{row['oracle_phi'][1]:+.6f}j"
            f" {row['gap']:14.3e}"
        )
    emit(
        args,
        {
            "limit_phi": [phi_lim.real, phi_lim.imag],
            "limit": limit.to_json(),
            "enum_agreement": agreement,
            "trend": trend,
            "passed": passed,
            "counters": counters,
            "timings": timings,
        },
        lines,
    )
    return 0 if passed else 1


# --- oracle ----------------------------------------------------------------


def cmd_oracle(args):
    w = load_word(args.word)
    model = parse_model(args.model)
    N = args.N
    value, count, pruned = full_trace_expect_detailed(w, N, model)
    payload = {
        "exact": [value.real, value.imag],
        "per_partition_count": count,
        "pruned_count": pruned,
    }
    lines = [
        f"exact expected trace at N={N}: {value.real:+.8f}{value.imag:+.8f}j",
        f"letter partitions: {count} summed, {pruned} candidate blocks with zero cumulant",
    ]
    emit(args, payload, lines)
    return 0


# --- spectrum ---------------------------------------------------------------


def cmd_spectrum(args):
    report = run_experiment(
        parse_model(args.model), args.target, args.k, args.N, args.trials, args.n_max,
        args.seed, with_hist=bool(args.hist),
    )
    if args.hist:
        with open(args.hist, "w") as fh:
            fh.write(histogram_svg(report.hist))
    passed = True
    for n, emp, se, pred in report.rows:
        if pred == 0.0:
            if abs(emp) > max(3 * se, 1e-12):
                passed = False
        elif abs(emp - pred) > args.tol * abs(pred):
            passed = False
    lines = [f"{'n':>3} {'predicted':>12} {'empirical':>12} {'stderr':>10}"]
    for n, emp, se, pred in report.rows:
        lines.append(f"{n:3d} {pred:12.6f} {emp:12.6f} {se:10.2e}")
    lines.append("PASS" if passed else "FAIL")
    emit(
        args,
        {"report": json.loads(report.to_json()), "csv": report.to_csv(), "passed": passed},
        lines,
    )
    return 0 if passed else 1


# --- freeness ----------------------------------------------------------------


def cmd_freeness(args):
    k = args.k
    model = parse_model(args.model)
    payload = {}
    lines = []
    if args.rho:
        rho = check_partition(json.loads(f"[{args.rho}]"))
        rho2 = check_partition(json.loads(f"[{args.rho if args.rho2 is None else args.rho2}]"))
        cross, a_scal, a2_scal = freeness_conditions(
            character_mixture(k, rho), character_mixture(k, rho2)
        )
        payload.update(
            {"cross_free": cross, "a_scalar": a_scal, "a2_scalar": a2_scal}
        )
        lines.append(
            f"character combos rho={list(rho)} rho2={list(rho2)}: "
            f"cross_free={cross} a_scalar={a_scal} a2_scalar={a2_scal}"
        )
    if args.letters:
        # the criterion tries both eps of every letter, so eps may be left out
        letters = letters_from_json(json.loads(args.letters), eps="1")
        scalar = scalar_freeness_report([l.sigma for l in letters], model.c, model.c_prime)
        payload["scalar_circular"] = scalar
        lines.append(f"scalar circular family: {scalar}")
    if not payload:
        raise ValueError("freeness: provide --rho or --letters")
    emit(args, payload, lines)
    return 0


# --- parser -----------------------------------------------------------------


class Parser(argparse.ArgumentParser):
    """Reports a rejected command line or config file as a ValueError, which
    main prints in one line with exit code 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def bounded(low, high=None):
    """An argparse type: an int in low..high (no upper bound when None)."""

    def parse(text):
        value = int(text)
        if value < low or (high is not None and value > high):
            bounds = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def sizes(text, flag):
    """A comma-separated list of sizes, each at least 1."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag}: expected comma-separated integers, got {text!r}") from None
    if min(values) < 1:
        raise ValueError(f"{flag}: every size must be >= 1, got {text!r}")
    return values


@functools.cache
def build_parser():
    """One subparser per command, declaring exactly the flags the command
    reads, each with its default and bounds.  Built once per process."""
    parser = Parser(prog="tensorflat", description="random tensor flattening toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, formats=("table", "json")):
        # no abbreviations: a config key must name its flag in full
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key=value file of flags; flags given here win")
        p.add_argument("--format", default="table", choices=formats)
        p.add_argument("--out", help="write the report to this file")
        return p

    def model(p):
        p.add_argument(
            "--model",
            default="complex_ginibre",
            help="complex_ginibre | real_ginibre | diluted:p=0.1",
        )

    p = command("check", cmd_check, "exact identity suite")
    p.add_argument("--k", type=bounded(1, 3), default=2)
    p.add_argument("--N", type=bounded(1, 4), default=4)
    p.add_argument("--seed", type=int, default=0)

    p = command("covariance", cmd_covariance, "two-letter covariance: MC vs oracle vs limit")
    p.add_argument("--k", type=bounded(1), default=2)
    p.add_argument("--N", type=bounded(1), default=8)
    model(p)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=bounded(1), default=100)
    p.add_argument("--tol", type=float, help="fail when |oracle - limit| exceeds this")
    p.add_argument("--sigma", required=True, help="JSON image array of length 2k")
    p.add_argument("--sigma2", required=True)
    p.add_argument("--eta", help="JSON image array of length k")
    p.add_argument("--eps", default="1", choices=["1", "*"])
    p.add_argument("--eps2", default="*", choices=["1", "*"])
    p.add_argument("--dump", help="write a binary matrix dump of the last sample")

    p = command("moments", cmd_moments, "limit moments of a word, with oracle trend")
    model(p)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--word", required=True, help="word JSON (inline or file path)")
    p.add_argument("--N-list", dest="N_list", default="4,6,8", help="comma-separated sizes")

    p = command("oracle", cmd_oracle, "exact expected trace of a word at finite N")
    p.add_argument("--N", type=bounded(1), default=5)
    model(p)
    p.add_argument("--word", required=True)

    p = command("spectrum", cmd_spectrum, "spectral moment experiment", ("table", "json", "csv"))
    p.add_argument("--k", type=bounded(1), default=2)
    p.add_argument("--N", type=bounded(1), default=32)
    model(p)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--trials", type=bounded(1), default=20)
    p.add_argument("--tol", type=float, default=0.10)
    p.add_argument("--target", default="S1", choices=["S1", "S2", "S3"])
    p.add_argument("--n-max", dest="n_max", type=bounded(1, 12), default=4)
    p.add_argument("--hist", help="write an SVG histogram to this path")

    p = command("freeness", cmd_freeness, "freeness criteria for combinations")
    p.add_argument("--k", type=bounded(1), default=2)
    model(p)
    p.add_argument("--rho", help="partition of k, comma separated, e.g. 2,1")
    p.add_argument("--rho2")
    p.add_argument("--letters", help="JSON list of {sigma, eps}")

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's flags go right after the command token, so that
            # the flags given on the command line come later and win
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + config_flags(args.config) + argv[at:])
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
