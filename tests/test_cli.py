import json
import math
import warnings

import numpy as np
import pytest

from tensorflat.cli import main
from tensorflat.moments import Word
from tensorflat.perms import Permutation, group
from tensorflat.tensors import (
    cond_expect_N,
    flatten,
    load_matrix,
    parse_model,
    perm_matrix,
    sample_tensor,
)
from tensorflat.traffic import word_cond_expect_exact


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_model():
    assert parse_model(None).kind == "complex_ginibre"
    assert parse_model("real_ginibre").kind == "real_ginibre"
    d = parse_model("diluted:p=0.25")
    assert d.kind == "diluted" and d.p == 0.25
    with pytest.raises(ValueError):
        parse_model("unknown")


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
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["failures"] == 0
    assert payload["config"]["version"]


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
    assert payload["counters"] == {"side": 6, "trials": 40, "pairings": 1, "matmuls": 0}
    assert set(payload["timings"]) == {"sample_s", "estimate_s"}
    assert all(v >= 0 for v in payload["timings"].values())


def formed_product(t, sigma, eps, eta, sigma2, eps2):
    """M_sigma^eps U_eta M_sigma2^eps2 on the tensor t, with the dense
    permutation operator."""

    def letter(image, e):
        m = flatten(t, Permutation(image)).data
        return m if e == "1" else m.conj().T

    return letter(sigma, eps) @ perm_matrix(Permutation(eta), t.N).data @ letter(sigma2, eps2)


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
    dump = tmp_path / "last.bin"
    sigma, sigma2, eta = [3, 1, 4, 2], [1, 2, 3, 4], [2, 1]
    code, _ = run(
        capsys, "covariance", "--k", "2", "--N", "3", "--sigma", json.dumps(sigma),
        "--sigma2", json.dumps(sigma2), "--eta", json.dumps(eta), "--eps", "*",
        "--trials", "3", "--seed", "4", "--dump", str(dump),
    )
    assert code == 0
    last = sample_tensor(parse_model("complex_ginibre"), 3, 2, 4, trial=2)
    want = formed_product(last, sigma, "*", eta, sigma2, "*")
    np.testing.assert_allclose(load_matrix(dump).data, want, rtol=0, atol=1e-12)


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
    assert set(payload["timings"]) == {"recursion_s", "enumeration_s", "oracle_s"}
    assert all(t >= 0 for t in payload["timings"].values())


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
    assert payload["exact"][0] == pytest.approx(1.0)
    # letter partitions: {0, 1} summed, the singleton {0} pruned
    assert payload["per_partition_count"] == 1
    assert payload["pruned_count"] == 1


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
    counters = json.loads(out)["report"]["counters"]
    # side N^k = 256, Sym^2 of C^16 has dimension 136, n_max 2 needs B B* only
    assert counters == {"side": 256, "compressed_side": 136, "matmuls": 1}


def test_freeness_command(capsys):
    code, out = run(capsys, "freeness", "--k", "2", "--rho", "2", "--rho2", "1,1")
    assert code == 0
    assert "cross_free=True" in out
    code, _ = run(capsys, "freeness", "--k", "2")
    assert code == 2


@pytest.mark.parametrize(
    "sigmas, scalar",
    # the transpose pair at k = 1 is scalar, two members of one coset at k = 2 are not
    [([[1, 2], [2, 1]], True), ([[1, 2, 3, 4], [2, 1, 3, 4]], False)],
)
def test_freeness_letters_do_not_read_eps(capsys, sigmas, scalar):
    outputs = []
    for eps in (None, "1", "*"):
        letters = [{"sigma": s} if eps is None else {"sigma": s, "eps": eps} for s in sigmas]
        code, out = run(capsys, "freeness", "--letters", json.dumps(letters), "--format", "json")
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


@pytest.mark.parametrize("flag, value, bound", [("k", "4", "1..3"), ("k", "0", "1..3"), ("N", "5", "1..4")])
def test_check_rejects_sizes_past_its_bounds(capsys, flag, value, bound):
    line = usage_error(capsys, "check", "--" + flag, value)
    assert f"--{flag}: must be in {bound}, got {value}" in line


def test_covariance_rejects_no_trials_before_dumping(capsys, tmp_path):
    dump = tmp_path / "last.bin"
    line = usage_error(capsys, *COVARIANCE_K1, "--trials", "-1", "--dump", str(dump))
    assert "--trials: must be >= 1" in line
    assert not dump.exists()


def test_truncated_dump_file_names_the_byte_counts(capsys, tmp_path):
    dump = tmp_path / "last.bin"
    code, _ = run(capsys, *COVARIANCE_K1, "--trials", "2", "--dump", str(dump))
    assert code == 0
    assert load_matrix(dump).data.shape == (3, 3)
    dump.write_bytes(dump.read_bytes()[:-1])
    # 3 x 3 complex entries of 16 bytes each
    with pytest.raises(ValueError, match="expected 144 bytes, found 143"):
        load_matrix(dump)


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
    assert "guard of 12 letters" in usage_error(capsys, "oracle", "--word", word, "--N", "4")


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
