"""The four benchmark workloads: seeded op lists, how one op runs, and the
numbers of its output that the golden gate compares.

Every workload is a fixed table of strata.  A stratum fixes everything that
sets an op's cost (subcommand, k, N, trial count, word length, c', and for
the heavy strata the model) and holds POOL_FACTOR times as many recorded
variants as it contributes ops.  The seed picks which variants run, so two
seeds give different inputs of nearly the same cost, and every op any seed
can pick has a golden output recorded in golden/<workload>.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from tensorflat import cli, moments
from tensorflat.characters import enumerate_partitions
from tensorflat.perms import embed_join, group

WORKLOADS = ("spectral", "montecarlo", "oracle", "limit")

# Seed 1 is the development seed; seed 2 is held out for checking a gain
# claimed on seed 1.
DEV_SEED = 1
HELD_OUT_SEED = 2

POOL_FACTOR = 4

# Relative tolerances of the golden gate, applied against the largest
# magnitude among the op's recorded values of that kind (at least 1).
EXACT_RTOL = 1e-12
MC_RTOL = 1e-9


@dataclass(frozen=True)
class Stratum:
    name: str
    count: int  # ops per pass
    kind: str  # spectrum | covariance | oracle | word | mixture
    make: object  # random.Random -> JSON-able spec


def _models(N):
    return ("complex_ginibre", "real_ginibre", f"diluted:p={1 / N!r}")


def _model(rng, N, index):
    return rng.choice(_models(N)) if index is None else _models(N)[index]


def _spectrum(target, k, N, n_max, hist=False, model=None):
    """model is an index into _models(N); None lets the seed choose."""

    def make(rng):
        return {
            "target": target, "k": k, "N": N, "model": _model(rng, N, model),
            "trials": 1, "n_max": n_max, "seed": rng.randrange(2**31), "hist": hist,
        }

    return make


def _covariance(k, N, trials, model):
    def make(rng):
        sigma = rng.choice(group(2 * k))
        if rng.random() < 0.5:
            # same Young coset, so the limit column can be nonzero
            sigma2 = embed_join(rng.choice(group(k)), rng.choice(group(k))) * sigma
        else:
            sigma2 = rng.choice(group(2 * k))
        return {
            "k": k, "N": N, "model": _models(N)[model], "trials": trials,
            "sigma": list(sigma.image), "sigma2": list(sigma2.image),
            "eps": rng.choice("1*"), "eps2": rng.choice("1*"),
            "eta": list(rng.choice(group(k)).image), "seed": rng.randrange(2**31),
        }

    return make


def _oracle(k, L, Ns, twisted=False, model=None):
    def make(rng):
        N = rng.choice(Ns)
        letters = [
            {"sigma": list(rng.choice(group(2 * k)).image), "eps": rng.choice("1*")}
            for _ in range(L)
        ]
        etas = [list(range(1, k + 1)) for _ in range(L)]
        if twisted:
            etas[rng.randrange(L)] = list(rng.choice(group(k)[1:]).image)
        return {
            "N": N, "model": _model(rng, N, model),
            "word": {"k": k, "letters": letters, "etas": etas},
        }

    return make


def _word(k, L, n_flat, cp):
    """Letters from n_flat flattenings of one Young coset (S_k x S_k) sigma:
    uniformly random letters almost never pair, so their limit is zero and
    the recursion exits early.  cp (c' of the entry law) is fixed per
    stratum because cp = 0 zeroes the same-eps pairings and so the cost."""

    def make(rng):
        base = rng.choice(group(2 * k))
        flats = [
            embed_join(rng.choice(group(k)), rng.choice(group(k))) * base
            for _ in range(n_flat)
        ]
        ident = list(range(1, k + 1))
        return {
            "word": {
                "k": k,
                "letters": [
                    {"sigma": list(rng.choice(flats).image), "eps": rng.choice("1*")}
                    for _ in range(L)
                ],
                "etas": [
                    list(rng.choice(group(k)).image) if rng.random() < 0.25 else ident
                    for _ in range(L)
                ],
            },
            "cp": cp,
        }

    return make


def _mixture(name, k, left_delta=True):
    def make(rng):
        spec = {"mixture": name, "k": k, "conj": rng.random() < 0.5, "cp": rng.choice((0.0, 1.0))}
        if name == "parastat":
            spec["lam"] = list(rng.choice(enumerate_partitions(2 * k)))
        elif name == "character":
            # with the character on both factors, rho = (2,1) vanishes on
            # most terms; the other two keep all 36 and cost 30 times more
            choices = enumerate_partitions(k) if left_delta else ((3,), (1, 1, 1))
            spec["rho"] = list(rng.choice(choices))
            spec["left_delta"] = left_delta
        return spec

    return make


def _per_model(name, counts, kind, make_for):
    """One stratum per model, since the model changes an op's cost; counts
    holds the ops per pass of each model, in the order of _models."""
    return [
        Stratum(f"{name}-{('complex', 'real', 'diluted')[model]}", count, kind, make_for(model))
        for model, count in enumerate(counts)
        if count
    ]


# Each table is listed from light to heavy.  A pass holds at least 104 ops,
# so that ten op latencies lie above p90.  p50 falls among many light ops
# and p90 inside one stratum of equal-cost ops, with ops above it from the
# heaviest strata.


def _spectral_strata():
    # p50 falls among the k=2, N=16 and k=3, N=5 S1 ops; p90 among the
    # k=3, N=5 S3 ops; the N=24, 32 and 40 ops and k=3, N=6 lie above it.
    return [
        Stratum("S1-k2-N16", 19, "spectrum", _spectrum("S1", 2, 16, 4)),
        Stratum("S2-k2-N16", 19, "spectrum", _spectrum("S2", 2, 16, 4)),
        Stratum("S3-k2-N16", 16, "spectrum", _spectrum("S3", 2, 16, 4)),
        Stratum("S1-k2-N16-hist", 3, "spectrum", _spectrum("S1", 2, 16, 4, True)),
        Stratum("S3-k2-N16-hist", 2, "spectrum", _spectrum("S3", 2, 16, 4, True)),
        Stratum("S1-k3-N5", 14, "spectrum", _spectrum("S1", 3, 5, 4)),
        Stratum("S2-k3-N5", 12, "spectrum", _spectrum("S2", 3, 5, 4)),
        Stratum("S3-k3-N5", 14, "spectrum", _spectrum("S3", 3, 5, 4)),
        # heavy, with fixed models
        Stratum("S3-k3-N6", 1, "spectrum", _spectrum("S3", 3, 6, 4, model=2)),
        Stratum("S3-k2-N24", 1, "spectrum", _spectrum("S3", 2, 24, 4, model=1)),
        Stratum("S2-k2-N24-hist", 1, "spectrum", _spectrum("S2", 2, 24, 4, True, model=2)),
        Stratum("S1-k2-N32", 1, "spectrum", _spectrum("S1", 2, 32, 2, model=0)),
        Stratum("S1-k2-N40", 1, "spectrum", _spectrum("S1", 2, 40, 2, model=0)),
    ]


def _montecarlo_strata():
    # p50 falls among the k=2, N=6 ops and p90 among the k=2, N=10 complex
    # ones; the k=3 and N=12 ops lie above it.
    out = []
    for k, N, trials, counts in (
        (1, 8, 100, (4, 4, 4)),
        (1, 16, 100, (4, 4, 4)),
        (1, 5, 100, (3, 3, 3)),
        (2, 5, 100, (3, 3, 3)),
        (2, 6, 100, (8, 8, 8)),
        (1, 8, 500, (2, 2, 2)),
        (2, 8, 100, (3, 3, 3)),
        (1, 16, 500, (1, 1, 1)),
        (2, 5, 300, (1, 1, 1)),
        (2, 10, 100, (12, 0, 0)),
        (3, 5, 100, (1, 1, 1)),
        (2, 12, 100, (1, 1, 1)),
    ):
        out += _per_model(
            f"k{k}-N{N}-t{trials}", counts, "covariance", partial(_covariance, k, N, trials)
        )
    return out


STRATA = {
    "spectral": _spectral_strata(),
    "montecarlo": _montecarlo_strata(),
    # p50 falls among the k=1, L=6 words; p90 among the k=1, L=9 words at
    # N=3; the kL=10 words and k=3, L=3 at N=6 lie above it.
    "oracle": [
        Stratum("k1-L4", 6, "oracle", _oracle(1, 4, (3, 5, 8, 16))),
        Stratum("k2-L2", 6, "oracle", _oracle(2, 2, (3, 5, 8, 16))),
        Stratum("k2-L2-twisted", 6, "oracle", _oracle(2, 2, (3, 5, 8, 16), twisted=True)),
        Stratum("k2-L3", 8, "oracle", _oracle(2, 3, (3, 5, 8, 16))),
        Stratum("k1-L5", 8, "oracle", _oracle(1, 5, (3, 5, 8))),
        Stratum("k3-L2", 8, "oracle", _oracle(3, 2, (3, 4, 6, 8, 16))),
        Stratum("k1-L6", 20, "oracle", _oracle(1, 6, (3, 5, 8))),
        Stratum("k2-L3-twisted", 8, "oracle", _oracle(2, 3, (3, 5, 8, 16), twisted=True)),
        Stratum("k3-L2-twisted", 8, "oracle", _oracle(3, 2, (3, 5, 8, 16), twisted=True)),
        Stratum("k1-L7", 6, "oracle", _oracle(1, 7, (3, 5, 8))),
        Stratum("k2-L4", 2, "oracle", _oracle(2, 4, (3,))),
        Stratum("k2-L4-twisted", 2, "oracle", _oracle(2, 4, (3,), twisted=True)),
        Stratum("k1-L8", 2, "oracle", _oracle(1, 8, (3,))),
        # heavy, kL >= 9, with fixed N and model
        Stratum("k1-L9-N3-complex", 12, "oracle", _oracle(1, 9, (3,), model=0)),
        Stratum("k2-L5-N3-real", 1, "oracle", _oracle(2, 5, (3,), model=1)),
        Stratum("k3-L3-N6-diluted", 1, "oracle", _oracle(3, 3, (6,), model=2)),
        Stratum("k1-L10-N3-complex", 1, "oracle", _oracle(1, 10, (3,), model=0)),
    ],
    # p50 falls among the L=10 words; p90 among the mixtures with the
    # character on both factors; the L=16 words lie above it.
    "limit": [
        Stratum("word-k2-L8", 14, "word", _word(2, 8, 2, 1.0)),
        Stratum("word-k3-L8", 14, "word", _word(3, 8, 1, 0.0)),
        Stratum("mix-character", 14, "mixture", _mixture("character", 3)),
        Stratum("word-k2-L10", 10, "word", _word(2, 10, 1, 0.0)),
        Stratum("word-k3-L10", 10, "word", _word(3, 10, 2, 1.0)),
        Stratum("word-k2-L12", 5, "word", _word(2, 12, 2, 1.0)),
        Stratum("word-k3-L12", 5, "word", _word(3, 12, 1, 1.0)),
        Stratum("mix-parastat", 3, "mixture", _mixture("parastat", 2)),
        Stratum("mix-S1", 3, "mixture", _mixture("S1", 2)),
        Stratum("mix-S2", 2, "mixture", _mixture("S2", 2)),
        Stratum("word-k2-L14", 4, "word", _word(2, 14, 1, 0.0)),
        Stratum("word-k3-L14", 4, "word", _word(3, 14, 2, 1.0)),
        Stratum("mix-S3", 4, "mixture", _mixture("S3", 2)),
        Stratum("mix-character-both", 10, "mixture", _mixture("character", 3, left_delta=False)),
        # heavy, L=16
        Stratum("word-k2-L16", 2, "word", _word(2, 16, 1, 1.0)),
        Stratum("word-k3-L16", 2, "word", _word(3, 16, 2, 0.0)),
    ],
}

# Every workload reaches k = 3, so set-up fills the perms.group caches up to
# degree 2k = 6.
MAX_DEGREE = 6


def _variant(workload, stratum, index):
    rng = random.Random(f"{workload}/{stratum.name}/{index}")
    return {"id": f"{stratum.name}/{index}", "kind": stratum.kind, "spec": stratum.make(rng)}


def op_list(workload, seed):
    """The op list of one pass: the same seed gives the same list.

    Each stratum's ops are spread evenly over the pass, so that a percentile
    samples the machine's speed across the whole run rather than in one
    short stretch.  The order depends on the strata only, so every seed
    allocates memory in the same sequence and peak RSS does not depend on
    the seed."""
    rng = random.Random(f"{workload}:{seed}")
    placed = []
    for position, stratum in enumerate(STRATA[workload]):
        picks = sorted(rng.sample(range(stratum.count * POOL_FACTOR), stratum.count))
        for j, index in enumerate(picks):
            placed.append(((j + 0.5) / stratum.count, position, _variant(workload, stratum, index)))
    placed.sort(key=lambda item: item[:2])
    return [op for _, _, op in placed]


def pool(workload):
    """Every op any seed can pick."""
    return [
        _variant(workload, stratum, index)
        for stratum in STRATA[workload]
        for index in range(stratum.count * POOL_FACTOR)
    ]


# --- running one op ----------------------------------------------------------


def _cli_argv(kind, spec, hist_path):
    if kind == "spectrum":
        argv = [
            "spectrum", "--target", spec["target"], "--k", str(spec["k"]), "--N", str(spec["N"]),
            "--model", spec["model"], "--trials", str(spec["trials"]),
            "--n-max", str(spec["n_max"]), "--seed", str(spec["seed"]),
        ]
        if spec["hist"]:
            argv += ["--hist", str(hist_path)]
    elif kind == "covariance":
        argv = [
            "covariance", "--k", str(spec["k"]), "--N", str(spec["N"]), "--model", spec["model"],
            "--trials", str(spec["trials"]), "--sigma", json.dumps(spec["sigma"]),
            "--sigma2", json.dumps(spec["sigma2"]), "--eps", spec["eps"], "--eps2", spec["eps2"],
            "--eta", json.dumps(spec["eta"]), "--seed", str(spec["seed"]),
        ]
    else:
        argv = [
            "oracle", "--word", json.dumps(spec["word"]), "--N", str(spec["N"]),
            "--model", spec["model"],
        ]
    return argv + ["--format", "json"]


def _build_mixture(spec):
    k, cp = spec["k"], spec["cp"]
    name = spec["mixture"]
    if name in ("S1", "S2"):
        return moments.all_sigma_mixture(k, 1.0, signed=name == "S2")
    if name == "S3":
        return moments.hermitized_mixture(k, 1.0, cp)
    if name == "parastat":
        return moments.parastat_mixture(k, tuple(spec["lam"]))
    return moments.character_mixture(k, tuple(spec["rho"]), left_delta=spec["left_delta"])


def prepare(op, scratch_dir):
    """A zero-argument callable running the op, with its inputs already
    converted, so the timed call is the op alone.  Library functions are
    looked up on their module at call time, so a tracer's patches apply."""
    kind, spec = op["kind"], op["spec"]
    if kind in ("spectrum", "covariance", "oracle"):
        hist_path = Path(scratch_dir) / "hist.svg"
        argv = _cli_argv(kind, spec, hist_path)

        def run_cli():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects the argv
                    code = exc.code
            return code, out.getvalue(), hist_path if spec.get("hist") else None

        return run_cli
    if kind == "word":
        word = moments.Word.from_json(spec["word"])
        cp = spec["cp"]

        def run_word():
            return (
                moments.word_expectation(word, 1.0, cp),
                moments.word_expectation_enumerated(word, 1.0, cp),
            )

        return run_word
    if kind == "mixture":
        etas = group(spec["k"])

        def run_mixture():
            m = _build_mixture(spec)
            return [
                moments.mixture_covariance(m, eta, m, 1.0, spec["cp"], conj_second=spec["conj"])
                for eta in etas
            ]

        return run_mixture
    raise ValueError(f"unknown op kind {kind!r}")


# --- what the golden gate compares -----------------------------------------


def _cpx(value):
    value = complex(value)
    return [value.real, value.imag]


def _coeffs(element, k):
    return [v for eta in group(k) for v in _cpx(element.coeff(eta))]


def reduce(op, raw):
    """The op's output as {"code", "ints", "exact", "mc"}: exit code, integer
    outputs, values of exact paths and Monte Carlo values."""
    kind, spec = op["kind"], op["spec"]
    rec = {"code": 0, "ints": [], "exact": [], "mc": []}
    if kind == "word":
        rec["exact"] = _coeffs(raw[0], spec["word"]["k"]) + _coeffs(raw[1], spec["word"]["k"])
        return rec
    if kind == "mixture":
        rec["exact"] = [v for element in raw for v in _coeffs(element, spec["k"])]
        return rec
    code, text, hist_path = raw
    rec["code"] = code
    if code == 2:
        return rec
    payload = json.loads(text)
    if kind == "spectrum":
        report = payload["report"]
        rec["ints"].append(int(payload["passed"]))
        for row in report["moments"]:
            rec["exact"].append(row["predicted"])
            rec["mc"] += [row["empirical"], row["stderr"]]
        if hist_path is not None:
            hist = report["histogram"]
            rec["ints"] += hist["counts"] + [hist["zero_mass"], int(hist_path.stat().st_size > 0)]
            rec["mc"] += [hist["zero_band"]] + hist["edges"]
            hist_path.unlink()
    elif kind == "covariance":
        rec["ints"].append(int(payload["passed"]))
        for row in payload["rows"]:
            rec["exact"] += row["oracle"] + row["limit"]
            rec["mc"] += row["mc_mean"] + [row["mc_stderr"]]
    else:
        # partition counts are diagnostics, not outputs, and are not compared
        rec["exact"] = payload["exact"]
    return rec


def mismatch(rec, golden):
    """None when rec matches the golden record, else a one-line reason."""
    if rec["code"] == 2:
        return "exit code 2"
    if rec["code"] != golden["code"]:
        return f"exit code {rec['code']} != golden {golden['code']}"
    if rec["ints"] != golden["ints"]:
        return "integer outputs differ from golden"
    for key, rtol in (("exact", EXACT_RTOL), ("mc", MC_RTOL)):
        got, want = rec[key], golden[key]
        if len(got) != len(want):
            return f"{len(got)} {key} values, golden has {len(want)}"
        tol = rtol * max([1.0] + [abs(v) for v in want])
        for index, (a, b) in enumerate(zip(got, want)):
            if not abs(a - b) <= tol:
                return f"{key}[{index}] = {a!r}, golden {b!r}"
    return None


def golden_path(workload):
    return Path(__file__).resolve().parent / "golden" / f"{workload}.json"


def load_golden(workload):
    with open(golden_path(workload)) as fh:
        return json.load(fh)["ops"]


def check(op, raw, golden):
    """Run the gate on one op's raw output; None when it passes."""
    if isinstance(raw, BaseException):
        return f"raised {type(raw).__name__}: {raw}"
    if op["id"] not in golden:
        return "no golden output recorded"
    try:
        rec = reduce(op, raw)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return mismatch(rec, golden[op["id"]])

