import json

import pytest

from tensorflat.cli import main, parse_model


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
    rows = json.loads(out)["rows"]
    limit = {tuple(r["eta"]): r["limit"] for r in rows}
    assert limit[(1,)] == [1.0, 0.0]


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
    assert payload["per_partition_count"] == 2


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


def test_guard_errors_exit_2(capsys):
    word = json.dumps(
        {
            "k": 2,
            "letters": [{"sigma": [1, 2, 3, 4], "eps": "1"}] * 8,
            "etas": [[1, 2]] * 8,
        }
    )
    code, _ = run(capsys, "oracle", "--word", word, "--N", "4")
    assert code == 2


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
