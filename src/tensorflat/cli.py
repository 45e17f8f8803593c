"""Command-line harness.

Subcommands: check, covariance, moments, oracle, spectrum, freeness.
Exit codes: 0 pass, 1 tolerance failure, 2 usage or guard error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .characters import character_convolution_check, check_partition
from .group_algebra import AlgebraElement, max_coeff_diff
from .moments import (
    Letter,
    Word,
    character_mixture,
    covariance,
    freeness_conditions,
    scalar_freeness_report,
    word_expectation,
    word_expectation_enumerated,
    word_phi,
)
from .perms import Permutation, compose, coset_key, embed_join, group, tau
from .spectra import histogram_svg, run_experiment
from .tensors import (
    TensorModel,
    cond_expect_N,
    flatten,
    choi_check,
    perm_matrix,
    phi_N,
    sample_tensor,
    save_matrix,
    trial_rng,
    word_eval,
)
from .traffic import full_trace_expect_detailed, word_cond_expect_exact


def parse_model(spec):
    """Model spec strings: complex_ginibre | real_ginibre | diluted[:p=0.1]."""
    if spec is None or spec == "complex_ginibre":
        return TensorModel.complex_ginibre()
    if spec == "real_ginibre":
        return TensorModel.real_ginibre()
    if spec.startswith("diluted"):
        p = 0.5
        if ":" in spec:
            for item in spec.split(":", 1)[1].split(","):
                key, _, value = item.partition("=")
                if key == "p":
                    p = float(value)
                else:
                    raise ValueError(f"unknown diluted parameter {key!r}")
        return TensorModel.diluted(p)
    raise ValueError(f"unknown model spec {spec!r}")


def parse_perm(text):
    return Permutation(json.loads(text) if isinstance(text, str) else text)


def load_word(spec):
    """Word JSON, inline or from a file path."""
    text = spec
    if not spec.lstrip().startswith("{"):
        with open(spec) as fh:
            text = fh.read()
    return Word.from_json(text)


def load_config_file(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


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
    fmt = getattr(args, "format", None) or "table"
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    elif fmt == "csv":
        text = payload.get("csv", "")
    else:
        text = "\n".join(table_lines)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# --- check -----------------------------------------------------------------


def cmd_check(args):
    k_max = min(args.k or 2, 3)
    N = args.N or 4
    rng = np.random.default_rng(args.seed or 0)
    model = TensorModel.complex_ginibre()
    results = []

    def record(name, passed, detail=""):
        results.append({"name": name, "passed": bool(passed), "detail": detail})

    for k in range(1, k_max + 1):
        perms2k = group(2 * k)
        t = sample_tensor(model, min(N, 4), k, args.seed or 0)
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
            phi_N(perm_matrix(eta, t.N))
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
    if N ** (2 * min(k_max, 2)) <= 4096:
        kk = min(k_max, 2)
        mineig, defect = choi_check(min(N, 3), kk)
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
    k = args.k or 2
    sigma = parse_perm(args.sigma)
    sigma2 = parse_perm(args.sigma2)
    eta = parse_perm(args.eta) if args.eta else Permutation.identity(k)
    model = parse_model(args.model)
    N = args.N or 8
    trials = args.trials or 100
    seed = args.seed if args.seed is not None else 7

    w = Word(
        k,
        (Letter(sigma, args.eps), Letter(sigma2, args.eps2)),
        (eta, Permutation.identity(k)),
    )
    limit = covariance(w.letters[0], eta, w.letters[1], model.c, model.c_prime)
    oracle = word_cond_expect_exact(w, N, model)
    acc = {h: [] for h in group(k)}
    for trial in range(trials):
        t = sample_tensor(model, N, k, seed, trial)
        mat = word_eval(t, [(sigma, args.eps, eta), (sigma2, args.eps2, Permutation.identity(k))])
        est = cond_expect_N(mat, k)
        for h in acc:
            acc[h].append(est.coeff(h))
    if args.dump:
        save_matrix(args.dump, mat)
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
    tol = args.tol or 0.0
    passed = True
    if tol:
        for r in rows:
            gap = math.hypot(r["oracle"][0] - r["limit"][0], r["oracle"][1] - r["limit"][1])
            if gap > tol:
                passed = False
    emit(args, {"rows": rows, "passed": passed}, lines)
    return 0 if passed else 1


# --- moments ---------------------------------------------------------------


def cmd_moments(args):
    w = load_word(args.word)
    model = parse_model(args.model)
    c, cp = model.c, model.c_prime
    limit = word_expectation(w, c, cp)
    enum = word_expectation_enumerated(w, c, cp)
    agreement = max_coeff_diff(limit, enum)
    phi_lim = complex(word_phi(w, c, cp))
    n_list = [int(v) for v in (args.N_list or "4,6,8").split(",")]
    trend = []
    for N in n_list:
        folded = word_cond_expect_exact(w, N, model)
        trend.append(
            {"N": N, "oracle_phi": [folded.phi().real, folded.phi().imag],
             "gap": abs(folded.phi() - phi_lim)}
        )
    tol = args.tol or 1e-12
    passed = agreement <= tol
    lines = [
        f"limit phi = {phi_lim.real:+.6f}{phi_lim.imag:+.6f}j",
        f"recursion vs enumeration max diff = {agreement:.2e} "
        f"({'PASS' if passed else 'FAIL'} at {tol:.0e})",
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
        },
        lines,
    )
    return 0 if passed else 1


# --- oracle ----------------------------------------------------------------


def cmd_oracle(args):
    w = load_word(args.word)
    model = parse_model(args.model)
    N = args.N or 5
    if any(not eta.is_identity() for eta in w.etas):
        value = word_cond_expect_exact(w, N, model).phi()
        count = zeros = None
    else:
        pairs = [(l.sigma, l.eps) for l in w.letters]
        value, count, zeros = full_trace_expect_detailed(pairs, w.k, N, model)
    payload = {
        "exact": [complex(value).real, complex(value).imag],
        "per_partition_count": count,
        "pruned_count": zeros,
    }
    lines = [
        f"exact expected trace at N={N}: {complex(value).real:+.8f}{complex(value).imag:+.8f}j"
    ]
    if count is not None:
        lines.append(f"partitions: {count} total, {zeros} with zero weight")
    emit(args, payload, lines)
    return 0


# --- spectrum ---------------------------------------------------------------


def _bounded(flag, value, default, low, high=None):
    """The flag's value, or its default when unset; out of [low, high] is a
    usage error naming the flag."""
    if value is None:
        return default
    if value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{flag} must be {bounds}, got {value}")
    return value


def cmd_spectrum(args):
    model = parse_model(args.model)
    k = _bounded("--k", args.k, 2, 1)
    N = _bounded("--N", args.N, 32, 1)
    trials = _bounded("--trials", args.trials, 20, 1)
    n_max = _bounded("--n-max", args.n_max, 4, 1, 12)
    seed = args.seed if args.seed is not None else 11
    report = run_experiment(
        model, args.target, k, N, trials, n_max, seed, with_hist=bool(args.hist)
    )
    if args.hist:
        with open(args.hist, "w") as fh:
            fh.write(histogram_svg(report.hist))
    tol = 0.10 if args.tol is None else args.tol
    passed = True
    for n, emp, se, pred in report.rows:
        if pred == 0.0:
            if abs(emp) > max(3 * se, 1e-12):
                passed = False
        elif abs(emp - pred) > tol * abs(pred):
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
    k = args.k or 2
    model = parse_model(args.model)
    payload = {}
    lines = []
    code = 0
    if args.rho:
        from .characters import character_value

        rho = check_partition(json.loads(f"[{args.rho}]"))
        rho2 = check_partition(json.loads(f"[{args.rho2 or args.rho}]"))
        a = {
            (e1, e2): (1 if e1.is_identity() else 0) * character_value(rho, e2)
            for e1 in group(k)
            for e2 in group(k)
        }
        a2 = {
            (e1, e2): (1 if e1.is_identity() else 0) * character_value(rho2, e2)
            for e1 in group(k)
            for e2 in group(k)
        }
        cross, a_scal, a2_scal = freeness_conditions(a, a2, k)
        payload.update(
            {"cross_free": cross, "a_scalar": a_scal, "a2_scalar": a2_scal}
        )
        lines.append(
            f"character combos rho={list(rho)} rho2={list(rho2)}: "
            f"cross_free={cross} a_scalar={a_scal} a2_scalar={a2_scal}"
        )
    if args.letters:
        data = json.loads(args.letters)
        letters = [Letter(Permutation(item["sigma"]), item.get("eps", "1")) for item in data]
        scalar = scalar_freeness_report(letters, model.c, model.c_prime)
        payload["scalar_circular"] = scalar
        lines.append(f"scalar circular family: {scalar}")
    if not payload:
        print("freeness: provide --rho or --letters", file=sys.stderr)
        return 2
    emit(args, payload, lines)
    return code


# --- parser -----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tensorflat", description="random tensor flattening toolkit"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--config", help="flat key=value config file; flags override")
        p.add_argument("--k", type=int)
        p.add_argument("--N", type=int)
        p.add_argument("--model", help="complex_ginibre | real_ginibre | diluted:p=0.1")
        p.add_argument("--seed", type=int)
        p.add_argument("--trials", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--format", choices=["table", "json", "csv"])
        p.add_argument("--out")
        p.add_argument("--dump", help="write a binary matrix dump of the last sample")

    p = sub.add_parser("check", help="exact identity suite")
    shared(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("covariance", help="two-letter covariance: MC vs oracle vs limit")
    shared(p)
    p.add_argument("--sigma", required=True, help="JSON image array of length 2k")
    p.add_argument("--sigma2", required=True)
    p.add_argument("--eta", help="JSON image array of length k")
    p.add_argument("--eps", default="1", choices=["1", "*"])
    p.add_argument("--eps2", default="*", choices=["1", "*"])
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("moments", help="limit moments of a word, with oracle trend")
    shared(p)
    p.add_argument("--word", required=True, help="word JSON (inline or file path)")
    p.add_argument("--N-list", dest="N_list", help="comma-separated sizes, default 4,6,8")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("oracle", help="exact expected trace of a word at finite N")
    shared(p)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("spectrum", help="spectral moment experiment")
    shared(p)
    p.add_argument("--target", default="S1", choices=["S1", "S2", "S3"])
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--hist", help="write an SVG histogram to this path")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("freeness", help="freeness criteria for combinations")
    shared(p)
    p.add_argument("--rho", help="partition of k, comma separated, e.g. 2,1")
    p.add_argument("--rho2")
    p.add_argument("--letters", help="JSON list of {sigma, eps}")
    p.set_defaults(func=cmd_freeness)

    return parser


def apply_config_file(args):
    if not getattr(args, "config", None):
        return args
    file_values = load_config_file(args.config)
    for key, value in file_values.items():
        if getattr(args, key, None) is None:
            current = args.__dict__.get(key)
            if current is None:
                # cast numerics where the flag expects them
                if key in ("k", "N", "seed", "trials", "n_max"):
                    value = int(value)
                elif key == "tol":
                    value = float(value)
                setattr(args, key, value)
    return args


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args = apply_config_file(args)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
