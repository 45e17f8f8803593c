import argparse
import json
import math
import os
import string
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorflat import cli, tensors
from tensorflat.cli import build_parser, main, parse_command_line, tolerance, with_config_flags
from tensorflat.moments import Word
from tensorflat.perms import Permutation, group
from tensorflat.tensors import (
    MAX_MAP_ENTRIES,
    cond_expect_N,
    flatten,
    parse_model,
    perm_matrix,
    sample_tensor,
)
from tensorflat.traffic import full_trace_expect, word_cond_expect_exact


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_model():
    assert parse_model(None).kind == "complex_ginibre"
    assert parse_model("real_ginibre").kind == "real_ginibre"
    d = parse_model("diluted:p=0.25")
    assert d.kind == "diluted" and d.p == 0.25
    for spec in ("unknown", "diluted2", "dilutedx:p=0.3"):
        with pytest.raises(ValueError, match=f"unknown model spec '{spec}'"):
            parse_model(spec)


def test_check_passes(capsys):
    code, out = run(capsys, "check", "--k", "2", "--N", "3", "--seed", "1")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_check_json_reproducible(capsys):
    args = ["check", "--k", "1", "--N", "3", "--seed", "2", "--format", "json"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    # everything but the stage timings and the peak RSS is reproducible
    first, second = json.loads(out1), json.loads(out2)
    assert set(first.pop("timings")) == set(second.pop("timings"))
    assert first == second
    payload = first
    assert payload["failures"] == 0
    assert payload["config"]["version"]


def test_check_reports_counters_and_timings(capsys):
    code, out = run(capsys, "check", "--k", "2", "--N", "2", "--seed", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # intertwining: 5 flattenings x 2! x 2! pairs of operators, two
    # products each, per k; the bimodule identity: two more per k
    matmuls = sum(2 * 5 * math.factorial(k) ** 2 + 2 for k in (1, 2))
    assert payload["counters"] == {"checks": len(payload["results"]), "side": 4, "matmuls": matmuls}
    stages = {"identities_s", "cosets_s", "characters_s", "choi_s"}
    assert set(payload["timings"]) == stages | {"peak_rss_mb"}
    assert all(payload["timings"][name] >= 0 for name in stages)
    assert payload["timings"]["peak_rss_mb"] > 1


def test_covariance_command(capsys):
    code, out = run(
        capsys,
        "covariance",
        "--k",
        "1",
        "--sigma",
        "[1,2]",
        "--sigma2",
        "[1,2]",
        "--eps",
        "1",
        "--eps2",
        "*",
        "--N",
        "6",
        "--trials",
        "40",
        "--seed",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    limit = {tuple(r["eta"]): r["limit"] for r in payload["rows"]}
    assert limit[(1,)] == [1.0, 0.0]
    # 2 N^2k = 72 normals a trial, below the threading cutoff: one worker
    assert payload["counters"] == {
        "side": 6, "trials": 40, "pairings": 1, "matmuls": 0, "map_entries": 36, "workers": 1
    }
    assert set(payload["timings"]) == {"maps_s", "seed_s", "sample_s", "estimate_s", "peak_rss_mb"}
    assert all(v >= 0 for v in payload["timings"].values())
    assert payload["timings"]["peak_rss_mb"] > 1


def test_covariance_counts_the_workers_it_used(capsys, monkeypatch):
    # 2 N^2k = 4802 normals a trial at k = 2, N = 7: the trials are split
    monkeypatch.setattr(tensors, "usable_cpus", lambda: 3)
    argv = ["covariance", "--k", "2", "--N", "7", "--sigma", "[3,1,4,2]", "--sigma2", "[1,2,3,4]",
            "--format", "json"]
    for trials, workers in [(2, 2), (5, 3)]:
        code, out = run(capsys, *argv, "--trials", str(trials))
        assert code == 0
        assert json.loads(out)["counters"]["workers"] == workers


def formed_product(t, sigma, eps, eta, sigma2, eps2):
    """M_sigma^eps U_eta M_sigma2^eps2 on the tensor t, with the dense
    permutation operator."""

    def letter(image, e):
        m = flatten(t, Permutation(image))
        return m if e == "1" else m.conj().T

    return letter(sigma, eps) @ perm_matrix(Permutation(eta), t.N) @ letter(sigma2, eps2)


@pytest.mark.parametrize(
    "k,N,sigma,sigma2,eta,eps,eps2,model",
    [
        (1, 5, [2, 1], [1, 2], [1], "1", "*", "real_ginibre"),
        (2, 4, [3, 1, 4, 2], [1, 2, 3, 4], [2, 1], "*", "1", "complex_ginibre"),
        (2, 3, [2, 1, 4, 3], [4, 3, 2, 1], [2, 1], "1", "1", "diluted:p=0.3"),
        (3, 2, [2, 3, 1, 4, 5, 6], [1, 2, 3, 6, 4, 5], [3, 1, 2], "*", "*", "complex_ginibre"),
    ],
)
def test_covariance_rows_equal_the_formed_product_reference(
    capsys, k, N, sigma, sigma2, eta, eps, eps2, model
):
    trials, seed = 6, 5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # N < k: coefficients are not unique
        code, out = run(
            capsys, "covariance", "--k", str(k), "--N", str(N), "--model", model,
            "--sigma", json.dumps(sigma), "--sigma2", json.dumps(sigma2), "--eta", json.dumps(eta),
            "--eps", eps, "--eps2", eps2, "--trials", str(trials), "--seed", str(seed),
            "--format", "json",
        )
        # per trial, the projection of the formed product of the whole word
        samples = []
        for trial in range(trials):
            t = sample_tensor(parse_model(model), N, k, seed, trial)
            est = cond_expect_N(formed_product(t, sigma, eps, eta, sigma2, eps2), k)
            samples.append([est.coeff(h) for h in group(k)])
    assert code == 0
    rows = json.loads(out)["rows"]
    for row, h, vals in zip(rows, group(k), np.array(samples).T, strict=True):
        assert row["eta"] == list(h.image)
        mean, se = vals.mean(), vals.std(ddof=1) / math.sqrt(trials)
        assert abs(complex(*row["mc_mean"]) - mean) <= 1e-12 * max(1.0, abs(mean))
        assert abs(row["mc_stderr"] - se) <= 1e-12 * max(1.0, se)


def test_covariance_dump_is_the_last_formed_product(capsys, tmp_path):
    dump = tmp_path / "last.bin"  # written as named: no .npy suffix is added
    sigma, sigma2, eta = [3, 1, 4, 2], [1, 2, 3, 4], [2, 1]
    code, _ = run(
        capsys, "covariance", "--k", "2", "--N", "3", "--sigma", json.dumps(sigma),
        "--sigma2", json.dumps(sigma2), "--eta", json.dumps(eta), "--eps", "*",
        "--trials", "3", "--seed", "4", "--dump", str(dump),
    )
    assert code == 0
    last = sample_tensor(parse_model("complex_ginibre"), 3, 2, 4, trial=2)
    want = formed_product(last, sigma, "*", eta, sigma2, "*")
    np.testing.assert_allclose(np.load(dump, allow_pickle=False), want, rtol=0, atol=1e-12)


def test_moments_command(capsys, tmp_path):
    word = {
        "k": 1,
        "letters": [
            {"sigma": [1, 2], "eps": "1"},
            {"sigma": [1, 2], "eps": "*"},
            {"sigma": [1, 2], "eps": "1"},
            {"sigma": [1, 2], "eps": "*"},
        ],
        "etas": [[1], [1], [1], [1]],
    }
    path = tmp_path / "word.json"
    path.write_text(json.dumps(word))
    code, out = run(capsys, "moments", "--word", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["limit_phi"] == [2.0, 0.0]
    assert payload["enum_agreement"] <= 1e-12


@pytest.mark.parametrize("L, pairings", [(3, 0), (6, 5)])
def test_moments_reports_counters_and_timings(capsys, L, pairings):
    letters = [{"sigma": [1, 2], "eps": "1*"[i % 2]} for i in range(L)]
    word = json.dumps({"k": 1, "letters": letters})
    code, out = run(capsys, "moments", "--word", word, "--N-list", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counters"] == {"letters": L, "nc_pairings": pairings}
    assert set(payload["timings"]) == {"recursion_s", "enumeration_s", "oracle_s", "peak_rss_mb"}
    assert all(t >= 0 for t in payload["timings"].values())


def test_moments_walks_the_word_once_for_every_size(capsys, monkeypatch):
    walks, walk = [], cli.full_trace_expect_detailed

    def counted(w, model):
        walks.append(w)
        return walk(w, model)

    monkeypatch.setattr(cli, "full_trace_expect_detailed", counted)
    letters = [{"sigma": [2, 1], "eps": e} for e in "1*1*1*"]
    word = json.dumps({"k": 1, "letters": letters})
    argv = ["moments", "--word", word, "--N-list", "4,6,8", "--model", "real_ginibre"]
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0 and len(walks) == 1
    for row in json.loads(out)["trend"]:
        want = full_trace_expect(Word.from_json(word), row["N"], parse_model("real_ginibre"))
        assert abs(complex(*row["oracle_phi"]) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("spec", ["complex_ginibre", "real_ginibre", "diluted:p=0.3"])
def test_moments_reports_the_polynomial_of_the_oracle(capsys, spec):
    letters = [{"sigma": [2, 1, 4, 3], "eps": e} for e in "1*1*"]
    word = json.dumps({"k": 2, "letters": letters})
    outs = [
        json.loads(run(capsys, command, "--word", word, "--model", spec, "--format", "json")[1])
        for command in ("moments", "oracle")
    ]
    assert outs[0]["polynomial"] == outs[1]["polynomial"] != []
    code, out = run(capsys, "moments", "--word", word, "--model", spec)
    assert code == 0
    line = f"as a polynomial in N: {cli.polynomial_text(outs[1]['polynomial'])}"
    assert line in out.splitlines()


def test_oracle_json_builds_no_table_lines(capsys, monkeypatch):
    def refuse(terms):
        raise AssertionError("table lines built for a JSON report")

    monkeypatch.setattr(cli, "polynomial_text", refuse)
    word = json.dumps({"k": 1, "letters": [{"sigma": [1, 2], "eps": eps} for eps in "1*"]})
    code, out = run(capsys, "oracle", "--word", word, "--format", "json")
    assert code == 0 and json.loads(out)["polynomial"] == [[0, 1.0, 0.0]]


def test_oracle_command(capsys):
    word = json.dumps(
        {
            "k": 1,
            "letters": [
                {"sigma": [1, 2], "eps": "1"},
                {"sigma": [1, 2], "eps": "*"},
            ],
            "etas": [[1], [1]],
        }
    )
    code, out = run(capsys, "oracle", "--word", word, "--N", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # one line of sorted-key JSON
    assert out == json.dumps(payload, sort_keys=True) + "\n"
    assert payload["exact"][0] == pytest.approx(1.0)
    # the trace of X X^* is 1 at every N
    assert payload["polynomial"] == [[0, 1.0, 0.0]]
    # letter partitions: {0, 1} summed, the singleton {0} pruned
    assert payload["per_partition_count"] == 1
    assert payload["pruned_count"] == 1
    # complex Ginibre's only nonzero cumulant is kappa[1, 1]
    assert payload["counters"] == {
        "plain": 1, "adjoint": 1, "cumulant_support": 1, "coverable": True,
    }
    assert set(payload["timings"]) == {"cumulants_s", "walk_s", "peak_rss_mb"}
    assert payload["timings"]["cumulants_s"] >= 0 and payload["timings"]["walk_s"] >= 0
    assert payload["timings"]["peak_rss_mb"] > 1


@pytest.mark.parametrize("model, support", [("complex_ginibre", 1), ("real_ginibre", 3),
                                            ("diluted:p=0.5", 1)])
def test_oracle_rejects_a_word_by_its_letter_counts(capsys, model, support):
    # three letters, two plain: odd, so no blocks with a nonzero cumulant of
    # these laws (balanced or of even order) cover them
    letters = [{"sigma": [1, 2], "eps": e} for e in "1*1"]
    word = json.dumps({"k": 1, "letters": letters})
    code, out = run(capsys, "oracle", "--word", word, "--model", model, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == [0.0, 0.0] and payload["polynomial"] == []
    assert (payload["per_partition_count"], payload["pruned_count"]) == (0, 0)
    # the nonzero cumulants of order at most 3: kappa[1, 1] of the complex
    # and diluted laws, and the three of order 2 of the real law
    assert payload["counters"] == {
        "plain": 2, "adjoint": 1, "cumulant_support": support, "coverable": False,
    }
    code, out = run(capsys, "oracle", "--word", word, "--model", model)
    assert out.splitlines()[1] == "as a polynomial in N: 0"
    assert out.splitlines()[2] == (
        "letter partitions: 0 summed, 0 candidate blocks pruned, the word rejected by its"
        " letter counts (2 plain, 1 adjoint), which no blocks with nonzero cumulants cover"
    )


@pytest.mark.parametrize(
    "model, polynomial, line",
    [
        ("complex_ginibre", [[0, 5, 0], [-2, 1, 0]], "+5 N^0 +1 N^-2"),
        ("real_ginibre", [[0, 5, 0], [-1, 6, 0], [-2, 4, 0]], "+5 N^0 +6 N^-1 +4 N^-2"),
    ],
)
def test_oracle_reports_the_polynomial_in_N(capsys, model, polynomial, line):
    # (m_tau m_tau^*)^3 at k = 1: exactly 5 + N^-2 under complex Ginibre
    letters = [{"sigma": [2, 1], "eps": e} for e in "1*1*1*"]
    word = json.dumps({"k": 1, "letters": letters})
    argv = ["oracle", "--word", word, "--model", model, "--N", "2"]
    code, out = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["polynomial"] == polynomial
    assert payload["exact"] == [sum(c * 2.0**p for p, c, _ in polynomial), 0.0]
    code, out = run(capsys, *argv)
    assert out.splitlines()[1] == f"as a polynomial in N: {line}"


def test_oracle_twisted_word_reports_counts(capsys):
    data = {
        "k": 2,
        "letters": [{"sigma": [2, 1, 3, 4], "eps": "1"}, {"sigma": [1, 2, 4, 3], "eps": "*"}],
        "etas": [[2, 1], [1, 2]],
    }
    code, out = run(capsys, "oracle", "--word", json.dumps(data), "--N", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    want = word_cond_expect_exact(Word.from_json(data), 3, parse_model(None)).phi()
    assert payload["exact"] == pytest.approx([want.real, want.imag], abs=1e-15)
    assert payload["per_partition_count"] == 1 and payload["pruned_count"] == 1


def test_spectrum_command(capsys, tmp_path):
    svg = tmp_path / "hist.svg"
    code, out = run(
        capsys,
        "spectrum",
        "--target",
        "S1",
        "--k",
        "1",
        "--N",
        "16",
        "--trials",
        "6",
        "--n-max",
        "2",
        "--seed",
        "5",
        "--tol",
        "0.35",
        "--hist",
        str(svg),
    )
    assert code == 0
    assert "PASS" in out
    assert svg.read_text().startswith("<svg")


def spectrum_argv(**changes):
    """A small spectrum run; changes maps flag names (n_max for --n-max) to
    values."""
    flags = {"k": "1", "N": "16", "trials": "6", "n_max": "2", "seed": "5", **changes}
    argv = ["spectrum"]
    for name, value in flags.items():
        argv += ["--" + name.replace("_", "-"), value]
    return argv


@pytest.mark.parametrize(
    "name, value",
    [("k", "0"), ("N", "0"), ("trials", "0"), ("trials", "-1"), ("n_max", "0"), ("n_max", "13")],
)
def test_spectrum_rejects_out_of_range_flags(capsys, name, value):
    code = main(spectrum_argv(**{name: value}))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "--" + name.replace("_", "-") in lines[0]


def test_spectrum_tol_zero_is_a_value(capsys):
    code, out = run(capsys, *spectrum_argv())
    assert code == 0 and "PASS" in out
    # the same run at tolerance 0 cannot match the prediction exactly
    code, out = run(capsys, *spectrum_argv(tol="0"))
    assert code == 1 and "FAIL" in out


def test_spectrum_json_counters(capsys):
    code, out = run(capsys, *spectrum_argv(k="2", format="json"))
    assert code in (0, 1)
    report = json.loads(out)["report"]
    # side N^k = 256, Sym^2 of C^16 has dimension 136, n_max 2 needs B*B
    # only, and C(19, 4) = 3876 multisets of 4 indices in [16] hold the bins
    assert report["counters"] == {
        "side": 256, "compressed_side": 136, "matmuls": 1, "orbit_bins": 3876,
    }
    assert set(report["timings"]) == {
        "maps_s", "sample_s", "build_s", "moments_s", "hist_s", "peak_rss_mb"
    }
    assert all(v >= 0 for v in report["timings"].values())
    assert report["timings"]["peak_rss_mb"] > 1


def test_spectrum_rejects_an_unknown_target(capsys):
    code = main(spectrum_argv(target="S9"))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "--target" in lines[0] and "'S9'" in lines[0]


def test_spectrum_json_names_the_target(capsys):
    code, out = run(capsys, *spectrum_argv(target="S3", format="json"))
    assert code in (0, 1)
    payload = json.loads(out)
    assert payload["config"]["target"] == payload["report"]["target"] == "S3"


@pytest.mark.parametrize("k, N, draws", [("2", "200", 200**4), ("9", "20", 20**18)])
def test_spectrum_guards_the_draws(capsys, k, N, draws):
    # both sizes are refused before any array is allocated
    code = main(spectrum_argv(k=k, N=N))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: spectrum trial draws N^(2k) = {draws} exceeds the guard of 16777216\n"
    )


def test_freeness_command(capsys):
    code, out = run(capsys, "freeness", "--k", "2", "--rho", "2", "--rho2", "1,1")
    assert code == 0
    assert "cross_free=True" in out
    code, _ = run(capsys, "freeness", "--k", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv, counters",
    [
        # each character mixture has one term per element of S_2
        (["--rho", "2", "--rho2", "1,1"], {"mixture_terms": 4, "letters": 0}),
        (["--letters", '[{"sigma": [1, 2, 3, 4]}, {"sigma": [2, 1, 3, 4]}]'],
         {"mixture_terms": 0, "letters": 2}),
    ],
)
def test_freeness_reports_counters_and_timings(capsys, argv, counters):
    code, out = run(capsys, "freeness", "--k", "2", *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counters"] == counters
    assert set(payload["timings"]) == {"characters_s", "letters_s", "peak_rss_mb"}
    # a stage that does not run takes no time
    ran = "characters_s" if counters["mixture_terms"] else "letters_s"
    assert all(t == 0 for name, t in payload["timings"].items() if name not in (ran, "peak_rss_mb"))
    assert payload["timings"][ran] >= 0 and payload["timings"]["peak_rss_mb"] > 1


@pytest.mark.parametrize(
    "sigmas, scalar",
    # the transpose pair at k = 1 is scalar, two members of one coset at k = 2 are not
    [([[1, 2], [2, 1]], True), ([[1, 2, 3, 4], [2, 1, 3, 4]], False)],
)
def test_freeness_letters_do_not_read_eps(capsys, sigmas, scalar):
    outputs = []
    for eps in (None, "1", "*"):
        letters = [{"sigma": s} if eps is None else {"sigma": s, "eps": eps} for s in sigmas]
        k = str(len(sigmas[0]) // 2)
        argv = ["freeness", "--k", k, "--letters", json.dumps(letters), "--format", "json"]
        code, out = run(capsys, *argv)
        assert code == 0
        outputs.append(json.loads(out)["scalar_circular"])
    assert outputs == [scalar] * 3
    # an eps that is given is still checked
    bad = json.dumps([{"sigma": sigmas[0], "eps": "x"}])
    assert "eps must be '1' or '*'" in usage_error(capsys, "freeness", "--letters", bad)


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=1\nN=3\nseed=4\n")
    code, out = run(capsys, "check", "--config", str(cfg), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["k"] == 1
    # flags override the file
    code, out = run(
        capsys, "check", "--config", str(cfg), "--k", "2", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["config"]["k"] == 2


def flag_value(action):
    """Values for one flag, in range or not: a bad value must fail the same
    way from a config file as from the command line."""
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.type is tolerance:
        return st.floats().map(repr)
    if action.type is not None:  # a bounded int
        return st.integers(-2, 40).map(str)
    # no surrounding whitespace, which a config file strips
    return st.text(string.ascii_letters + string.digits + "[],.:=#-_*", max_size=12)


def parsed(argv):
    try:
        args = vars(build_parser().parse_args(with_config_flags(argv)))
    except ValueError as exc:
        return str(exc)
    del args["config"]
    return args


def test_a_flag_value_spelled_like_the_config_flag_is_reported_by_its_flag(capsys):
    message = usage_error(capsys, "covariance", "--sigma", "[1,2]", "--sigma2", "--config")
    assert message == "error: tensorflat covariance: argument --sigma2: expected one argument"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flags_survive_a_round_trip_through_config(tmp_path_factory, data):
    # the parse of a command's flags equals the parse of a config file
    # holding them, keyed by flag or by dest, required flags included; no
    # command runs
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    command = data.draw(st.sampled_from(sorted(commands)))
    actions = [a for a in commands[command]._actions if a.dest not in ("help", "config")]
    optional = st.lists(st.sampled_from([a for a in actions if not a.required]), unique_by=id)
    chosen = data.draw(optional.map(lambda some: [a for a in actions if a.required] + some))
    argv, lines = [command], []
    for action in chosen:
        value = data.draw(flag_value(action))
        flag = action.option_strings[0]
        key = data.draw(st.sampled_from([flag[2:], action.dest]))
        argv += [flag, value]
        lines.append(f"{key}={value}\n")
    cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfg.write_text("".join(lines))
    assert parsed([command, "--config", str(cfg)]) == parsed(argv)
    # the command's own subparser parses as the top-level parser does
    assert parse_outcome(parse_command_line, argv) == parse_outcome(top_level_parse, argv)


def top_level_parse(argv):
    return build_parser().parse_args(with_config_flags(argv))


def parse_outcome(parse, argv):
    """The namespace of a parse (command included), or its error message, or
    the code of the exit it asks for."""
    try:
        return vars(parse(argv))
    except ValueError as exc:
        return str(exc)
    except SystemExit as exc:
        return f"exit {exc.code}"


def usage_error(capsys, *argv):
    """The one stderr line of a run that must exit 2 with no report."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    return lines[0]


COVARIANCE_K1 = ["covariance", "--k", "1", "--sigma", "[1,2]", "--sigma2", "[1,2]", "--N", "3"]
WORD_K1 = json.dumps({"k": 1, "letters": [{"sigma": [1, 2], "eps": "1"}] * 2})


@pytest.mark.parametrize(
    "argv",
    [
        COVARIANCE_K1 + ["--tol", "nan"],
        COVARIANCE_K1 + ["--tol", "-1"],
        COVARIANCE_K1 + ["--tol", "inf"],
        spectrum_argv(N="4", trials="1", tol="nan"),
        ["moments", "--word", WORD_K1, "--tol", "nan"],
    ],
    ids=["covariance-nan", "covariance-negative", "covariance-inf", "spectrum-nan", "moments-nan"],
)
def test_a_tolerance_no_check_can_use_exits_2(capsys, argv):
    line = usage_error(capsys, *argv)
    assert f"argument --tol: must be a finite number >= 0, got {argv[-1]}" in line


@pytest.mark.parametrize(
    "argv, code",
    [
        ([], 2),
        (["--version"], 0),
        (["-h"], 0),
        (["spectra"], 2),
        (["oracle", "-h"], 0),
        (["oracle", "--word", WORD_K1, "--bogus", "1"], 2),
        (["oracle", "--word", WORD_K1, "--N", "0"], 2),
    ],
    ids=["empty", "version", "help", "unknown-command", "command-help", "bad-flag", "bad-value"],
)
def test_a_command_line_parses_the_same_on_either_route(capsys, argv, code):
    routes = []
    for parse in (top_level_parse, parse_command_line):
        routes.append((parse_outcome(parse, argv), capsys.readouterr()))
    assert routes[0] == routes[1]
    outcome, printed = routes[0]
    if code == 0:  # help and version print to stdout and exit 0
        assert outcome == "exit 0" and printed.out and not printed.err
        with pytest.raises(SystemExit, match="0"):
            main(argv)
        assert capsys.readouterr() == printed
    else:  # a rejected command line: main prints its one error line
        assert usage_error(capsys, *argv) == f"error: {outcome}"


@pytest.mark.parametrize(
    "argv", [["check"], COVARIANCE_K1, spectrum_argv()], ids=["check", "covariance", "spectrum"]
)
def test_a_negative_seed_names_the_flag(capsys, argv):
    assert "argument --seed: must be >= 0, got -1" in usage_error(capsys, *argv, "--seed", "-1")


def test_covariance_guards_the_size_of_its_maps(capsys):
    # k! N^(2k) = 6e18 map entries: the guard fires before anything is allocated
    identity = "[1,2,3,4,5,6]"
    line = usage_error(
        capsys, "covariance", "--k", "3", "--N", "1000", "--sigma", identity, "--sigma2", identity
    )
    assert line == (
        f"error: pair map entries k! N^(2k) = {6 * 1000**6} exceeds the guard of {MAX_MAP_ENTRIES}"
    )


@pytest.mark.parametrize(
    "k, trials", [("2", 10**11), ("2", MAX_MAP_ENTRIES // 2 + 1), ("1", MAX_MAP_ENTRIES + 1)]
)
def test_covariance_guards_its_trials(capsys, monkeypatch, k, trials):
    # k! trials estimates: refused before the maps are built or the oracle runs
    monkeypatch.setattr(cli, "PairProjection", None)
    monkeypatch.setattr(cli, "word_cond_expect_exact", None)
    identity = json.dumps(list(range(1, 2 * int(k) + 1)))
    line = usage_error(
        capsys, "covariance", "--k", k, "--trials", str(trials), "--sigma", identity,
        "--sigma2", identity,
    )
    estimates = math.factorial(int(k)) * trials
    assert line == (
        f"error: covariance estimates k! trials = {estimates} exceeds the guard of {MAX_MAP_ENTRIES}"
    )


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"trials": str(10**11)}, f"spectrum moments trials n_max = {2 * 10**11}"),
        ({"trials": str(MAX_MAP_ENTRIES // 12 + 1), "n_max": "12"},
         f"spectrum moments trials n_max = {12 * (MAX_MAP_ENTRIES // 12 + 1)}"),
        ({"trials": str(MAX_MAP_ENTRIES // 16 + 1), "hist": "h.svg"},
         f"pooled eigenvalues trials d = {16 * (MAX_MAP_ENTRIES // 16 + 1)}"),
    ],
    ids=["moments", "moments-at-n-max-12", "pooled-eigenvalues"],
)
def test_spectrum_guards_its_trials(capsys, tmp_path, changes, message):
    if "hist" in changes:
        changes["hist"] = str(tmp_path / changes["hist"])
    line = usage_error(capsys, *spectrum_argv(**changes))
    assert line == f"error: {message} exceeds the guard of {MAX_MAP_ENTRIES}"
    assert not (tmp_path / "h.svg").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--dump", "f"],
        COVARIANCE_K1 + ["--n-max", "2"],
        ["moments", "--word", WORD_K1, "--trials", "2"],
        ["oracle", "--word", WORD_K1, "--seed", "3"],
        ["spectrum", "--dump", "f"],
        ["freeness", "--rho", "2", "--N", "3"],
    ],
)
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in usage_error(capsys, *argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        COVARIANCE_K1,
        ["moments", "--word", WORD_K1],
        ["oracle", "--word", WORD_K1],
        ["freeness", "--rho", "2"],
    ],
)
def test_csv_format_only_for_spectrum(capsys, argv):
    assert "invalid choice: 'csv'" in usage_error(capsys, *argv, "--format", "csv")


def test_spectrum_csv(capsys):
    code, out = run(capsys, *spectrum_argv(format="csv"))
    assert code == 0 and out.startswith("n,predicted,empirical,stderr")


def test_spectrum_json_report_carries_no_csv(capsys):
    code, out = run(capsys, *spectrum_argv(format="json"))
    assert code == 0 and "csv" not in json.loads(out)


@pytest.mark.parametrize("flag, value, bound", [("k", "4", "1..3"), ("k", "0", "1..3"), ("N", "5", "1..4")])
def test_check_rejects_sizes_past_its_bounds(capsys, flag, value, bound):
    line = usage_error(capsys, "check", "--" + flag, value)
    assert f"--{flag}: must be in {bound}, got {value}" in line


def test_covariance_rejects_no_trials_before_dumping(capsys, tmp_path):
    # one trial has no standard error, so it is refused like none
    dump = tmp_path / "last.npy"
    for trials in ("-1", "1"):
        line = usage_error(capsys, *COVARIANCE_K1, "--trials", trials, "--dump", str(dump))
        assert f"--trials: must be >= 2, got {trials}" in line
        assert not dump.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("trails=3\n", "unrecognized arguments: --trails 3"),
        ("see=3\n", "unrecognized arguments: --see 3"),
        ("format=xml\n", "invalid choice: 'xml'"),
        ("k=0\n", "--k: must be in 1..3, got 0"),
        ("seed\n", "expected key=value"),
    ],
)
def test_config_values_are_checked_like_flags(capsys, tmp_path, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert message in usage_error(capsys, "check", "--config", str(cfg))


def test_missing_config_file_exits_2(capsys, tmp_path):
    assert "No such file" in usage_error(capsys, "check", "--config", str(tmp_path / "none.cfg"))


def test_config_block_reports_the_defaults_used(capsys):
    code, out = run(capsys, "oracle", "--word", WORD_K1, "--format", "json")
    assert code == 0
    config = json.loads(out)["config"]
    assert config["N"] == 5 and config["model"] == "complex_ginibre"
    code, out = run(capsys, "moments", "--word", WORD_K1, "--tol", "0", "--format", "json")
    config = json.loads(out)["config"]
    assert config["tol"] == 0.0 and config["N_list"] == "4,6,8"


def test_guard_errors_exit_2(capsys):
    word = json.dumps(
        {
            "k": 2,
            "letters": [{"sigma": [1, 2, 3, 4], "eps": "1"}] * 13,
            "etas": [[1, 2]] * 13,
        }
    )
    message = usage_error(capsys, "oracle", "--word", word, "--N", "4")
    assert message == "error: oracle letters L = 13 exceeds the guard of 12"


def test_moments_checks_the_oracle_guard_before_the_limit(capsys, monkeypatch):
    # the guard is checked before the limit evaluators spend their time
    def refuse(*args):
        raise AssertionError("a limit evaluator ran before the oracle guard")

    monkeypatch.setattr(cli, "word_expectation", refuse)
    monkeypatch.setattr(cli, "word_expectation_enumerated", refuse)
    letters = [{"sigma": [1, 2, 3, 4], "eps": "1*"[i % 2]} for i in range(20)]
    word = json.dumps({"k": 2, "letters": letters})
    message = usage_error(capsys, "moments", "--word", word)
    assert message == "error: oracle letters L = 20 exceeds the guard of 12"


DEPENDENT = (
    "N={N} < k={k}: permutation operators are linearly dependent; "
    "coefficients are not a unique decomposition"
)


def cli_process(*argv):
    """The exit code, stdout and stderr of the command line in a fresh
    interpreter, whose warnings reach stderr as they would in a shell."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-m", "tensorflat.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def test_a_warning_of_a_completed_command_is_one_line():
    sigma = "[1,2,3,4,5,6]"
    code, out, err = cli_process(
        "covariance", "--k", "3", "--N", "2", "--trials", "2", "--sigma", sigma, "--sigma2", sigma,
    )
    assert code == 0 and out
    assert err == f"warning: {DEPENDENT.format(N=2, k=3)}\n"


def test_an_error_after_a_warning_prints_the_error_alone():
    # N = 1 < k = 9 warns before the degree guard refuses S_9
    sigma = json.dumps(list(range(1, 19)))
    code, out, err = cli_process(
        "covariance", "--k", "9", "--N", "1", "--trials", "2", "--sigma", sigma, "--sigma2", sigma,
    )
    assert (code, out) == (2, "")
    assert err == "error: enumerated degree n = 9 exceeds the guard of 8\n"


def test_model_spec_past_diluted_exits_2(capsys):
    message = usage_error(capsys, "oracle", "--word", WORD_K1, "--N", "3", "--model", "diluted2")
    assert message == "error: unknown model spec 'diluted2'"


@pytest.mark.parametrize("command", ["oracle", "moments"])
def test_empty_word_exits_2(capsys, command):
    message = usage_error(capsys, command, "--word", '{"k": 1, "letters": []}')
    assert "at least one letter" in message


@pytest.mark.parametrize(
    "word,key", [('{"letters": []}', "'k'"), ('{"k": 1}', "'letters'"), (
        '{"k": 1, "letters": [{"sigma": [1, 2]}]}', "'eps'")]
)
@pytest.mark.parametrize("command", ["oracle", "moments"])
def test_word_missing_a_key_exits_2(capsys, command, word, key):
    assert key in usage_error(capsys, command, "--word", word)


@pytest.mark.parametrize(
    "text,message",
    [
        ("[1, 2]", "word JSON must be an object, got list"),
        ('{"k": 1, "letters": [1]}', "letters must be a list of {sigma, eps} objects"),
        ('{"k": "a", "letters": []}', "k must be an integer, got 'a'"),
        ('{"k": 0, "letters": [{"sigma": [], "eps": "1"}, {"sigma": [], "eps": "*"}]}',
         "word JSON: k must be at least 1, got 0"),
        ('{"k": -1, "letters": []}', "word JSON: k must be at least 1, got -1"),
        ('{"k": 1, "letters": [{"sigma": 5, "eps": "1"}]}', "not a list of integers"),
        ('{"k": 1, "letters": [{"sigma": [2.0, 1], "eps": "1"}]}', "not a list of integers"),
        ('{"k": 1, "letters": [{"sigma": [2, 1], "eps": "1"}], "etas": [[1], [1]]}',
         "etas must be a list of one permutation per letter"),
        ('{"k": 1, "letters": [{"sigma": [2, 1], "eps": "1"}], "etas": []}',
         "etas must be a list of one permutation per letter"),
        ('{"k": 1, "letters": [{"sigma": [2, 1], "eps": "1"}], "etas": [[true]]}',
         "not a list of integers"),
    ],
)
@pytest.mark.parametrize("command", ["oracle", "moments"])
def test_word_of_the_wrong_shape_exits_2(capsys, tmp_path, command, text, message):
    path = tmp_path / "word.json"
    path.write_text(text)
    assert message in usage_error(capsys, command, "--word", str(path))


COVARIANCE_K2 = ["covariance", "--k", "2", "--N", "2", "--trials", "2", "--sigma2", "[1,2,3,4]"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (COVARIANCE_K2 + ["--sigma", "5"], "not a list of integers: 5"),
        (COVARIANCE_K2 + ["--sigma", "null"], "not a list of integers: None"),
        (COVARIANCE_K2 + ["--sigma", "[1.5,2,3,4]"], "not a list of integers: [1.5, 2, 3, 4]"),
        (COVARIANCE_K2 + ["--sigma", "[1,2,3,4]", "--eta", "7"], "not a list of integers: 7"),
        (COVARIANCE_K2 + ["--sigma", "[1,2,3,4]", "--eta", ""], "Expecting value"),
        (["freeness", "--letters", '[{"eps":"1"}]'], "a letter lacks the key 'sigma'"),
        (["freeness", "--letters", '{"sigma":[1,2]}'], "letters must be a list of {sigma, eps}"),
        (["freeness", "--letters", '[{"sigma":5}]'], "not a list of integers: 5"),
    ],
)
def test_permutation_and_letter_json_of_the_wrong_shape_exits_2(capsys, argv, message):
    assert message in usage_error(capsys, *argv)


WRONG_DEGREE_WORD = {
    "k": 2, "letters": [{"sigma": [1, 2, 3, 4], "eps": "1"}] * 2, "etas": [[1, 2, 3], [1]]
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (COVARIANCE_K2 + ["--sigma", "[1,2,3,4]", "--eta", "[1,2,3]"],
         "error: --eta: expected degree k = 2, got 3"),
        (["oracle", "--word", json.dumps(WRONG_DEGREE_WORD), "--N", "2"],
         "error: degree mismatch: eta has degree 3, the letter k = 2"),
    ],
    ids=["covariance", "oracle"],
)
def test_an_identity_eta_of_the_wrong_degree_exits_2(capsys, argv, message):
    assert usage_error(capsys, *argv) == message


@pytest.mark.parametrize("sizes", ["0,-3", "4,0", "4,x"])
def test_moments_n_list_sizes_are_checked(capsys, sizes):
    assert "--N-list" in usage_error(capsys, "moments", "--word", WORD_K1, "--N-list", sizes)


def test_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run(
        capsys,
        "check",
        "--k",
        "1",
        "--N",
        "3",
        "--seed",
        "1",
        "--format",
        "json",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert json.loads(out_path.read_text())["failures"] == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["covariance", "--k", "1", "--sigma", "[1,2,3,4]", "--sigma2", "[1,2]"],
         "error: --sigma: expected degree 2k = 2, got 4"),
        (["covariance", "--k", "9", "--sigma", "[1,2]", "--sigma2", "[1,2]"],
         "error: --sigma: expected degree 2k = 18, got 2"),
        (["covariance", "--k", "1", "--sigma", "[1,2]", "--sigma2", "[1,2,3]"],
         "error: --sigma2: expected degree 2k = 2, got 3"),
        (["freeness", "--k", "2", "--letters", '[{"sigma": [2, 1]}]'],
         "error: --letters: expected degree 2k = 4, got 2"),
        (["freeness", "--k", "2", "--rho", "2", "--rho2", "1"],
         "error: --rho2: expected a partition of k = 2, got [1]"),
        (["freeness", "--k", "2", "--rho", "3"],
         "error: --rho: expected a partition of k = 2, got [3]"),
        (["freeness", "--k", "2", "--rho", "1.9,1.2"],
         "error: --rho: expected a partition of k = 2, got '1.9,1.2'"),
        (["freeness", "--k", "1", "--rho", "true"],
         "error: --rho: expected a partition of k = 1, got 'true'"),
        (["freeness", "--k", "2", "--rho", "2", "--rho2", "1.5,0.9"],
         "error: --rho2: expected a partition of k = 2, got '1.5,0.9'"),
        (["freeness", "--k", "2", "--letters", '[{"sigma": [1, 2, 3, 4]}]', "--rho2", "9"],
         "error: --rho2: given without --rho"),
    ],
    ids=["sigma-past-2k", "sigma-short-of-2k", "sigma2", "letters", "rho2", "rho", "rho-floats",
         "rho-bool", "rho2-floats", "rho2-without-rho"],
)
def test_a_permutation_or_partition_of_the_wrong_size_names_its_flag(capsys, argv, message):
    assert usage_error(capsys, *argv) == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (["covariance", "--k", "1", "--sigma", "[2,1", "--sigma2", "[2,1]"],
         "error: --sigma: Expecting ',' delimiter: line 1 column 5 (char 4)"),
        (["covariance", "--k", "1", "--sigma", "[2,2]", "--sigma2", "[2,1]"],
         "error: --sigma: not a bijection of [2]: (2, 2)"),
        (["covariance", "--k", "1", "--sigma", "[2,1]", "--sigma2", "5"],
         "error: --sigma2: a permutation is not a list of integers: 5"),
        (COVARIANCE_K2 + ["--sigma", "[1,2,3,4]", "--eta", "[1,1]"],
         "error: --eta: not a bijection of [2]: (1, 1)"),
        (["freeness", "--letters", '[{"sigma":[1,2,3,4]}'],
         "error: --letters: Expecting ',' delimiter: line 1 column 21 (char 20)"),
        (["freeness", "--letters", '[{"eps":"1"}]'],
         "error: --letters: a letter lacks the key 'sigma'"),
        (["oracle", "--word", '{"k": 1, "letters": ['],
         "error: --word: Expecting value: line 1 column 22 (char 21)"),
    ],
    ids=["sigma-json", "sigma-bijection", "sigma2-shape", "eta-bijection", "letters-json",
         "letters-key", "word-json"],
)
def test_malformed_json_of_a_flag_names_the_flag(capsys, argv, message):
    assert usage_error(capsys, *argv) == message
