"""Command-line harness.

Subcommands: check, covariance, moments, oracle, spectrum, freeness.
Exit codes: 0 pass, 1 tolerance failure, 2 usage or guard error.  Warnings
raised by a command that completes are printed after it, one line each, as
"warning: <message>"; a command that exits 2 prints only its error line.
Every script under scripts/ runs through the same runner, run, warnings included.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import resource
import sys
import time
import warnings

import numpy as np

from . import __version__
from .characters import character_convolution_check, check_partition
from .group_algebra import AlgebraElement, max_coeff_diff
from .moments import (
    MAX_MOMENT_ORDER,
    Letter,
    Target,
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
    PairProjection,
    TensorModel,
    check_trials,
    cond_expect_N,
    flatten,
    choi_check,
    parse_model,
    perm_matrix,
    phi_N,
    sample_tensor,
    word_eval,
)
from .traffic import check_letters, full_trace_expect_detailed, word_cond_expect_exact


def flagged(flag, parse, text, *args):
    """parse(text, *args), where a ValueError, or the RecursionError of JSON nested
    past the recursion limit, names flag, the flag that gave text."""
    try:
        return parse(text, *args)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{flag}: {exc}") from None


def load_word(spec):
    """Word JSON, inline or from a file path; any fault of the JSON names --word."""
    if not spec.lstrip().startswith("{"):
        with open(spec) as fh:
            spec = fh.read()
    return flagged("--word", Word.from_json, spec)


def with_config_flags(argv):
    """argv with the flat key=value lines of its --config file, if any, as
    flag tokens right after the command token, so that a required flag can
    come from the file and the flags on the command line come later and
    win.  key (or key with dashes for underscores) names the flag, as in
    n_max=4 or n-max=4 for --n-max 4."""
    if not any(token.partition("=")[0] == "--config" for token in argv[1:]):
        return argv  # spares the pre-parse below, about 0.1 ms a call
    pre = Parser(prog="tensorflat", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv[1:])[0].config
    except ValueError:  # "--config" without a value: the full parser names the fault
        return argv
    if not path:
        return argv
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
    return argv[:1] + tokens + argv[1:]


def peak_rss_mb():
    """The peak resident set size of this process so far (ru_maxrss), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def emit(args, payload, lines):
    """Prints the payload and its config as JSON, else the lines, to stdout or --out."""
    config = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    config["version"] = __version__
    if "seed" in config:
        config["rng"] = {"seed": config["seed"], "streams": config.get("trials", 1)}
    payload = {**payload, "config": config}
    if args.format == "json":
        # one line: an indent would route the dump through the pure-Python encoder
        text = json.dumps(payload, sort_keys=True, default=str)
    else:
        text = "\n".join(lines)
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
    matmuls = 0
    stamps = [time.perf_counter()]

    def record(name, passed, detail=""):
        results.append({"name": name, "passed": bool(passed), "detail": detail})

    for k in range(1, k_max + 1):
        perms2k = group(2 * k)
        t = sample_tensor(model, N, k, args.seed)
        # flattening / permutation-operator intertwining identity
        worst = 0.0
        for _ in range(5):
            sigma = perms2k[rng.integers(len(perms2k))]
            M = flatten(t, sigma)
            for eta in group(k):
                U = perm_matrix(eta, t.N)
                for eta2 in group(k):
                    U2 = perm_matrix(eta2, t.N)
                    lhs = U @ M @ U2.conj().T
                    matmuls += 2
                    rhs = flatten(t, compose(embed_join(eta, eta2), sigma))
                    worst = max(worst, float(np.abs(lhs - rhs).max()))
        record(f"intertwine k={k}", worst <= 1e-12, f"max defect {worst:.2e}")
        # normalized trace of permutation operators
        ok = all(
            phi_N(perm_matrix(eta, t.N)) == t.N ** (eta.cycle_count() - k) + 0j for eta in group(k)
        )
        record(f"perm trace k={k}", ok)
        # transpose flattening
        sigma = perms2k[rng.integers(len(perms2k))]
        ok = np.array_equal(flatten(t, compose(tau(k), sigma)), flatten(t, sigma).T)
        record(f"transpose k={k}", ok)
        # conditional expectation bimodule identity
        side = t.N**k
        A = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        eta = group(k)[rng.integers(math.factorial(k))]
        eta2 = group(k)[rng.integers(math.factorial(k))]
        U = perm_matrix(eta, t.N)
        U2 = perm_matrix(eta2, t.N)
        lhs = cond_expect_N(U @ A @ U2, k)
        matmuls += 2
        rhs = AlgebraElement.basis(eta) * cond_expect_N(A, k) * AlgebraElement.basis(eta2)
        diff = max_coeff_diff(lhs, rhs)
        record(f"bimodule k={k}", diff <= 1e-12, f"max defect {diff:.2e}")
        if N < k:
            record(f"uniqueness k={k}", True, f"warning: N={N} < k={k}, coefficients not unique")
    stamps.append(time.perf_counter())

    for k in range(1, k_max + 1):
        skk = len({coset_key(s, "Skk") for s in group(2 * k)})
        skkt = len({coset_key(s, "SkkTau") for s in group(2 * k)})
        want = math.factorial(2 * k) // math.factorial(k) ** 2
        record(f"coset counts k={k}", skk == want and skkt == want // 2, f"{skk}/{skkt}")
    stamps.append(time.perf_counter())
    for k in range(1, k_max + 1):
        record(f"character convolution k={k}", character_convolution_check(k))
    stamps.append(time.perf_counter())
    kk = min(k_max, 2)
    mineig, defect = choi_check(N, kk)
    record(
        f"choi k={kk}",
        mineig >= -1e-10 and defect <= 1e-10,
        f"min eig {mineig:.2e}, defect {defect:.2e}",
    )
    stamps.append(time.perf_counter())
    stages = ("identities_s", "cosets_s", "characters_s", "choi_s")
    timings = {name: b - a for name, a, b in zip(stages, stamps, stamps[1:])}
    timings["peak_rss_mb"] = peak_rss_mb()
    counters = {"checks": len(results), "side": N**k_max, "matmuls": matmuls}

    failures = [r for r in results if not r["passed"]]
    lines = [
        f"[{'PASS' if r['passed'] else 'FAIL'}] {r['name']}"
        + (f" ({r['detail']})" if r["detail"] else "")
        for r in results
    ]
    lines.append(f"{len(results) - len(failures)}/{len(results)} checks passed")
    payload = {"results": results, "failures": len(failures), "counters": counters,
               "timings": timings}
    emit(args, payload, lines)
    return 1 if failures else 0


# --- covariance ------------------------------------------------------------


def permutation(flag, text, name, degree):
    """The permutation of flag's JSON image array, of the degree name = degree."""
    perm = flagged(flag, Permutation.from_json, text)
    if perm.n != degree:
        raise ValueError(f"{flag}: expected degree {name} = {degree}, got {perm.n}")
    return perm


def cmd_covariance(args):
    k, N, trials, seed = args.k, args.N, args.trials, args.seed
    first = Letter(permutation("--sigma", args.sigma, "2k", 2 * k), args.eps)
    second = Letter(permutation("--sigma2", args.sigma2, "2k", 2 * k), args.eps2)
    eta = Permutation.identity(k) if args.eta is None else permutation("--eta", args.eta, "k", k)
    model = flagged("--model", parse_model, args.model)

    w = Word(k, (first.followed_by(eta), second))
    check_trials(k, trials)
    start = time.perf_counter()
    project = PairProjection(w, N)
    maps_s = time.perf_counter() - start
    limit = covariance(first, eta, second, model.c, model.c_prime)
    oracle = word_cond_expect_exact(w, N, model)
    estimates = project.samples(model, seed, trials)
    if args.dump:
        # through a handle, so that np.save adds no .npy suffix to the path
        with open(args.dump, "wb") as fh:
            np.save(fh, word_eval(sample_tensor(model, N, k, seed, trials - 1), w))
    rows = []
    for h, vals in zip(group(k), estimates):
        mean = complex(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(trials))
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
        "matmuls": 0,  # per trial: the letters meet in gathered dot products
        "map_entries": math.factorial(k) * N ** (2 * k),
        "workers": project.workers,
        "block_trials": project.block_trials,
    }
    timings = {"maps_s": maps_s, **project.timings, "peak_rss_mb": peak_rss_mb()}
    emit(args, {"rows": rows, "passed": passed, "counters": counters, "timings": timings}, lines)
    return 0 if passed else 1


# --- moments ---------------------------------------------------------------


def polynomial_text(terms):
    """The [power, re, im] terms of TracePolynomial.to_json on one line, such
    as "+5 N^0 +1 N^-2"; a coefficient with an imaginary part is bracketed."""
    parts = [f"{re:+.10g} N^{power}" if im == 0 else f"({re:+.10g}{im:+.10g}j) N^{power}"
             for power, re, im in terms]
    return " ".join(parts) or "0"


def cmd_moments(args):
    n_list = flagged("--N-list", sizes, args.N_list)
    w = load_word(args.word)
    model = flagged("--model", parse_model, args.model)
    c, cp = model.c, model.c_prime
    check_letters(len(w))  # the oracle guard, before the limit evaluators spend their time
    start = time.perf_counter()
    limit = word_expectation(w, c, cp)
    recursed = time.perf_counter()
    enum = word_expectation_enumerated(w, c, cp)
    enumerated = time.perf_counter()
    agreement = max_coeff_diff(limit, enum)
    phi_lim = complex(limit.phi())
    polynomial = full_trace_expect_detailed(w, model)  # one walk for every size
    trend = []
    for N in n_list:
        phi = polynomial.at(N)
        trend.append({"N": N, "oracle_phi": [phi.real, phi.imag], "gap": abs(phi - phi_lim)})
    counters = {"letters": len(w), "nc_pairings": 0 if len(w) % 2 else catalan(len(w) // 2)}
    timings = {
        "recursion_s": recursed - start,
        "enumeration_s": enumerated - recursed,
        "oracle_s": time.perf_counter() - enumerated,
        "peak_rss_mb": peak_rss_mb(),
    }
    passed = agreement <= args.tol
    lines = [
        f"limit phi = {phi_lim.real:+.6f}{phi_lim.imag:+.6f}j",
        f"recursion vs enumeration max diff = {agreement:.2e} "
        f"({'PASS' if passed else 'FAIL'} at {args.tol:.0e})",
        f"as a polynomial in N: {polynomial_text(polynomial.to_json())}",
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
            "polynomial": polynomial.to_json(),
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
    model = flagged("--model", parse_model, args.model)
    N, L = args.N, len(w)
    check_letters(L)  # before the law's table of that order is built
    plain = sum(letter.eps == "1" for letter in w.letters)
    start = time.perf_counter()
    table = model.cumulant_table(L)
    cumulated = time.perf_counter()
    polynomial = full_trace_expect_detailed(w, model)
    value, count, pruned = polynomial.at(N), polynomial.count, polynomial.pruned
    terms = polynomial.to_json()
    coverable = (plain, L - plain) in table.coverable
    payload = {
        "exact": [value.real, value.imag],
        "polynomial": terms,
        "per_partition_count": count,
        "pruned_count": pruned,
        "counters": {
            "plain": plain,
            "adjoint": L - plain,
            "cumulant_support": len(table.support),
            "coverable": coverable,
        },
        "timings": {
            "cumulants_s": cumulated - start,
            "walk_s": time.perf_counter() - cumulated,
            "peak_rss_mb": peak_rss_mb(),
        },
    }
    lines = [] if args.format == "json" else [  # emit prints no table as JSON
        f"exact expected trace at N={N}: {value.real:+.8f}{value.imag:+.8f}j",
        f"as a polynomial in N: {polynomial_text(terms)}",
        f"letter partitions: {count} summed, {pruned} candidate blocks pruned"
        + ("" if coverable else f", the word rejected by its letter counts ({plain} plain,"
           f" {L - plain} adjoint), which no blocks with nonzero cumulants cover"),
    ]
    emit(args, payload, lines)
    return 0


# --- spectrum ---------------------------------------------------------------


def spectrum_csv(moments):
    """The CSV of a spectrum report's moment rows (spectra.run_experiment)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, ["n", "predicted", "empirical", "stderr"])
    writer.writeheader()
    writer.writerows(moments)
    return buf.getvalue()


def cmd_spectrum(args):
    report = run_experiment(
        flagged("--model", parse_model, args.model), Target[args.target], args.k, args.N,
        args.trials, args.n_max, args.seed, with_hist=bool(args.hist),
    )
    if args.hist:
        with open(args.hist, "w") as fh:
            fh.write(histogram_svg(report["histogram"]))
    report["timings"]["peak_rss_mb"] = peak_rss_mb()
    rows = report["moments"]
    passed = not any(
        abs(r["empirical"]) > max(3 * r["stderr"], 1e-12) if r["predicted"] == 0.0
        else abs(r["empirical"] - r["predicted"]) > args.tol * abs(r["predicted"])
        for r in rows
    )
    lines = [spectrum_csv(rows)] if args.format == "csv" else [
        f"{'n':>3} {'predicted':>12} {'empirical':>12} {'stderr':>10}",
        *(f"{r['n']:3d} {r['predicted']:12.6f} {r['empirical']:12.6f} {r['stderr']:10.2e}"
          for r in rows),
        "PASS" if passed else "FAIL",
    ]
    emit(args, {"report": report, "passed": passed}, lines)
    return 0 if passed else 1


# --- freeness ----------------------------------------------------------------


def partition(text, k):
    """The partition of k that text, comma-separated JSON integers, gives."""
    try:
        parts = check_partition(json.loads(f"[{text}]"))
    except ValueError:  # no JSON, or no weakly decreasing positive integers
        raise ValueError(f"expected a partition of k = {k}, got {text!r}") from None
    if sum(parts) != k:
        raise ValueError(f"expected a partition of k = {k}, got {list(parts)}")
    return parts


def cmd_freeness(args):
    k = args.k
    model = flagged("--model", parse_model, args.model)
    payload, lines = {}, []
    counters = {"mixture_terms": 0, "letters": 0}
    timings = {"characters_s": 0.0, "letters_s": 0.0}
    if args.rho2 is not None and args.rho is None:
        raise ValueError("--rho2: given without --rho")
    if args.rho is not None:
        start = time.perf_counter()
        rho = flagged("--rho", partition, args.rho, k)
        rho2 = rho if args.rho2 is None else flagged("--rho2", partition, args.rho2, k)
        mixtures = character_mixture(k, rho), character_mixture(k, rho2)
        cross, a_scal, a2_scal = freeness_conditions(*mixtures)
        counters["mixture_terms"] = sum(len(m.terms) for m in mixtures)
        payload.update(
            {"cross_free": cross, "a_scalar": a_scal, "a2_scalar": a2_scal}
        )
        lines.append(
            f"character combos rho={list(rho)} rho2={list(rho2)}: "
            f"cross_free={cross} a_scalar={a_scal} a2_scalar={a2_scal}"
        )
        timings["characters_s"] = time.perf_counter() - start
    if args.letters is not None:
        start = time.perf_counter()
        # the criterion tries both eps of every letter, so eps may be left out
        letters = flagged("--letters", lambda text: letters_from_json(json.loads(text), eps="1"),
                          args.letters)
        for l in letters:
            if l.k != k:
                raise ValueError(f"--letters: expected degree 2k = {2 * k}, got {l.sigma.n}")
        scalar = scalar_freeness_report([l.sigma for l in letters], model.c, model.c_prime)
        payload["scalar_circular"] = scalar
        lines.append(f"scalar circular family: {scalar}")
        counters["letters"] = len(letters)
        timings["letters_s"] = time.perf_counter() - start
    if not payload:
        raise ValueError("freeness: provide --rho or --letters")
    timings["peak_rss_mb"] = peak_rss_mb()
    emit(args, {**payload, "counters": counters, "timings": timings}, lines)
    return 0


# --- parser -----------------------------------------------------------------


class Parser(argparse.ArgumentParser):
    """Reports a rejected command line or config file as a ValueError, which
    run prints in one line with exit code 2."""

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


def tolerance(text):
    """An argparse type: a finite float >= 0, so that a check can fail."""
    value = float(text)
    if not value >= 0 or math.isinf(value):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


MAX_SIZE = sys.float_info.max  # TracePolynomial.at reads a size N as a float


def sizes(text):
    """A comma-separated list of sizes, each in 1..MAX_SIZE."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None
    if min(values) < 1:
        raise ValueError(f"every size must be >= 1, got {text!r}")
    if max(values) > MAX_SIZE:
        raise ValueError(f"every size must be at most {MAX_SIZE}, got {text!r}")
    return values


@functools.cache
def build_parser():
    """One subparser per command, declaring exactly the flags the command
    reads, each with its default and bounds.  Built once per process."""
    parser = Parser(prog="tensorflat", description="random tensor flattening toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> its subparser

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
    p.add_argument("--seed", type=bounded(0), default=0)

    p = command("covariance", cmd_covariance, "two-letter covariance: MC vs oracle vs limit")
    p.add_argument("--k", type=bounded(1), default=2)
    p.add_argument("--N", type=bounded(1), default=8)
    model(p)
    p.add_argument("--seed", type=bounded(0), default=7)
    p.add_argument("--trials", type=bounded(2), default=100)  # one trial has no standard error
    p.add_argument("--tol", type=tolerance, help="fail when |oracle - limit| exceeds this")
    p.add_argument("--sigma", required=True, help="JSON image array of length 2k")
    p.add_argument("--sigma2", required=True)
    p.add_argument("--eta", help="JSON image array of length k")
    p.add_argument("--eps", default="1", choices=["1", "*"])
    p.add_argument("--eps2", default="*", choices=["1", "*"])
    p.add_argument("--dump", help="write the last sample's word matrix to this .npy file")

    p = command("moments", cmd_moments, "limit moments of a word, with oracle trend")
    model(p)
    p.add_argument("--tol", type=tolerance, default=1e-12)
    p.add_argument("--word", required=True, help="word JSON (inline or file path)")
    p.add_argument("--N-list", dest="N_list", default="4,6,8", help="comma-separated sizes")

    p = command("oracle", cmd_oracle, "exact expected trace of a word at finite N")
    p.add_argument("--N", type=bounded(1, MAX_SIZE), default=5)
    model(p)
    p.add_argument("--word", required=True)

    p = command("spectrum", cmd_spectrum, "spectral moment experiment", ("table", "json", "csv"))
    p.add_argument("--k", type=bounded(1), default=2)
    p.add_argument("--N", type=bounded(1), default=32)
    model(p)
    p.add_argument("--seed", type=bounded(0), default=11)
    p.add_argument("--trials", type=bounded(1), default=20)
    p.add_argument("--tol", type=tolerance, default=0.10)
    p.add_argument("--target", default=Target.S1.name, choices=[t.name for t in Target])
    p.add_argument("--n-max", dest="n_max", type=bounded(1, MAX_MOMENT_ORDER), default=4)
    p.add_argument("--hist", help="write an SVG histogram to this path")

    p = command("freeness", cmd_freeness, "freeness criteria for combinations")
    p.add_argument("--k", type=bounded(1), default=2)
    model(p)
    p.add_argument("--rho", help="partition of k, comma separated, e.g. 2,1")
    p.add_argument("--rho2")
    p.add_argument("--letters", help="JSON list of {sigma, eps}")

    return parser


def parse_command_line(argv):
    """argv, its --config lines merged in, parsed as the top-level parser
    would, at about half the cost: the subparser of the command argv starts
    with parses the rest alone.  Any other first token (none, --version, -h,
    an unknown command) and any unrecognized argument meet the top-level
    parser, so messages and exit codes stay its own."""
    parser = build_parser()
    argv = with_config_flags(argv)
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def run(body):
    """The exit code of body(), an entry point's body, under the contract of the
    module docstring: a ValueError or an OSError is one "error:" line and 2."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = body()
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    return run(lambda: (args := parse_command_line(argv)).func(args))


if __name__ == "__main__":
    sys.exit(main())
