"""The runnable wrappers in scripts/, each run once at tiny sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tensorflat.cli import main
from tensorflat.moments import Word
from tensorflat.tensors import parse_model
from tensorflat.traffic import word_cond_expect_exact

ROOT = Path(__file__).resolve().parent.parent

# k = 2 with every interleaved permutation the swap; at N = 3 its exact
# trace is 0.1317, and 1.1852 with the swaps left out
TWISTED = {
    "k": 2,
    "letters": [
        {"sigma": [2, 1, 3, 4], "eps": "*"},
        {"sigma": [2, 3, 1, 4], "eps": "1"},
        {"sigma": [1, 3, 2, 4], "eps": "*"},
        {"sigma": [1, 2, 3, 4], "eps": "1"},
    ],
    "etas": [[2, 1]] * 4,
}


def run_script(name, *argv, code=0):
    """The script's stdout, or its stderr when it should fail."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == code, done.stderr
    return done.stderr if code else done.stdout


@pytest.mark.parametrize(
    "name, argv",
    [
        ("covariance_scan.py", ["--k", "1", "--N", "2", "--N2", "3", "--top", "2"]),
        ("spectrum_experiment.py", ["--k", "1", "--sizes", "3", "--trials", "2", "--n-max", "2"]),
        ("spectrum_experiment.py", ["--k", "1", "--sizes", "3", "--trials", "2", "--n-max", "2",
                                    "--target", "S3"]),
    ],
)
def test_script_runs(tmp_path, name, argv):
    if name == "spectrum_experiment.py":
        argv = argv + ["--out-dir", str(tmp_path)]
    assert run_script(name, *argv)
    # a spectrum report names its target as its file does
    for path in tmp_path.glob("*.json"):
        assert json.loads(path.read_text())["target"] == path.name.split("_")[0]


@pytest.mark.parametrize(
    "name, argv, message",
    [
        ("spectrum_experiment.py", ["--seed", "-1", "--k", "1", "--trials", "1"], "--seed"),
        ("word_trend.py", ["--word", json.dumps(TWISTED), "--trials", "2", "--seed", "-1"], "--seed"),
        ("covariance_scan.py", ["--N", "0", "--k", "1"], "--N"),
        ("word_trend.py", ["--word", '{"k": 1, "letters": []}'], "at least one letter"),
        ("word_trend.py", ["--word", json.dumps(TWISTED), "--trials", "1"],
         "--trials: must be 0 or at least 2"),
    ],
)
def test_bad_input_exits_2_in_one_line(tmp_path, name, argv, message):
    if name == "spectrum_experiment.py":
        argv = argv + ["--out-dir", str(tmp_path)]
    err = run_script(name, *argv, code=2)
    assert err.count("\n") == 1 and err.startswith("error:") and message in err


@pytest.mark.parametrize("target, model", [("S1", "complex_ginibre"), ("S3", "diluted:p=0.25")])
def test_spectrum_script_and_command_write_one_report(tmp_path, target, model):
    common = ["--k", "2", "--target", target, "--model", model, "--trials", "3", "--n-max", "3",
              "--seed", "4"]
    run_script("spectrum_experiment.py", *common, "--sizes", "5", "--out-dir", str(tmp_path))
    stem = tmp_path / f"{target}_k2_N5"
    argv = ["spectrum", *common, "--N", "5", "--hist", str(tmp_path / "cli.svg")]
    for fmt in ("json", "csv"):  # exit 1 on a moment past --tol still writes the report
        assert main([*argv, "--format", fmt, "--out", str(tmp_path / f"cli.{fmt}")]) in (0, 1)
    script = json.loads(stem.with_suffix(".json").read_text())
    printed = json.loads((tmp_path / "cli.json").read_text())["report"]
    assert script.pop("timings") and printed.pop("timings")
    assert script == printed
    # the command ends its output with a newline
    assert (tmp_path / "cli.csv").read_bytes() == stem.with_suffix(".csv").read_bytes() + b"\n"
    assert (tmp_path / "cli.svg").read_bytes() == stem.with_suffix(".svg").read_bytes()


def test_word_trend_exact_column_is_the_oracle():
    model = "diluted:p=0.5"
    out = run_script(
        "word_trend.py", "--word", json.dumps(TWISTED), "--sizes", "2,3",
        "--model", model, "--trials", "2",
    )
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [int(row[0]) for row in rows] == [2, 3]
    w = Word.from_json(TWISTED)
    for row in rows:
        exact = word_cond_expect_exact(w, int(row[0]), parse_model(model)).phi()
        assert row[1] == f"{exact.real:+.8f}{exact.imag:+.8f}j"


def test_pool_digest_lists_every_pooled_op_the_same_way_twice(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    first = run_script("pool_digest.py", "--workload", "oracle")
    lines = first.splitlines()
    assert len(lines) == 420
    assert [line.split()[0] for line in lines] == [op["id"] for op in workloads.pool("oracle")]
    assert all(len(line.split()) == 2 for line in lines)
    assert run_script("pool_digest.py", "--workload", "oracle") == first


def test_pool_digest_values_prints_the_golden_gate_record(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # the script sets them on import
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import pool_digest

    # one canned oracle op and its CLI output: the record keeps the exit
    # code and the exact value, bit for bit, and drops the counts
    op = {"id": "k1-L4/0", "kind": "oracle", "spec": {"N": 3, "model": "complex_ginibre", "word": {}}}
    text = json.dumps({"exact": [0.1 + 0.2, -0.0], "per_partition_count": 2, "pruned_count": 5,
                       "timings": {"walk_s": 0.001}})
    line = pool_digest.values(op, (0, text, None))
    assert "\n" not in line
    assert json.loads(line) == {"code": 0, "ints": [], "exact": [0.30000000000000004, -0.0], "mc": []}
    assert line == '{"code": 0, "exact": [0.30000000000000004, -0.0], "ints": [], "mc": []}'


def test_pool_digest_hashes_indented_and_one_line_json_alike(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # the script sets them on import
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import pool_digest

    # the hash reads the payload, not its layout, so that a checkout printing
    # indented JSON compares with one printing one line
    op = {"id": "k1-L4/0", "kind": "oracle", "spec": {}}
    payload = {"exact": [0.1 + 0.2, -0.0], "counters": {"plain": 2, "adjoint": 2},
               "per_partition_count": 2, "timings": {"walk_s": 0.001}}
    indented = json.dumps(payload, indent=2, sort_keys=True, default=str)
    one_line = json.dumps(payload, sort_keys=True, default=str)
    assert "\n" in indented and "\n" not in one_line
    digests = {pool_digest.digest(op, (0, text, None), "/scratch") for text in (indented, one_line)}
    assert len(digests) == 1
    assert digests != {pool_digest.digest(op, (1, one_line, None), "/scratch")}


def bench_result(wall_s, rss_mb, failed=0):
    """A bench/run.py last-line result with two metrics."""
    return {
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                    "peak_rss_mb": {"value": rss_mb, "unit": "MB"}},
    }


def test_bench_pairs_summarizes_canned_results(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench_pairs

    walls = [(1.0, 0.9), (1.2, 1.0), (0.8, 0.85), (1.1, 1.0), (1.0, 0.95)]
    pairs = [{"parent": bench_result(p, 90.0), "change": bench_result(c, 80.0, failed=i == 2)}
             for i, (p, c) in enumerate(walls)]
    got = bench_pairs.summarize(pairs)
    assert got["pairs"] == 5
    assert got["failed"] == {"parent": 0, "change": 1}
    assert got["attempted"] == {"parent": 500, "change": 500}
    wall = got["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    # inclusive quartiles of 0.8, 1.0, 1.0, 1.1, 1.2 and of 0.85, 0.9, 0.95, 1.0, 1.0
    assert wall["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.1, "n": 5}
    assert wall["change"] == pytest.approx({"q1": 0.9, "median": 0.95, "q3": 1.0, "n": 5})
    assert wall["change_over_parent"] == pytest.approx(0.95)
    assert wall["pairs_change_lower"] == 4
    assert wall["runs"] == {"parent": [p for p, _ in walls], "change": [c for _, c in walls]}
    rss = got["metrics"]["peak_rss_mb"]
    assert rss["pairs_change_lower"] == 5 and rss["change_over_parent"] == pytest.approx(8 / 9)
    one = bench_pairs.summarize(pairs[:1])["metrics"]["wall_s"]
    assert one["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.0, "n": 1}


@pytest.mark.parametrize("text", ["1", "1:0", "a:3", "1:2,x"])
def test_bench_pairs_refuses_a_bad_seed_list(text):
    err = run_script("bench_pairs.py", "--parent", str(ROOT), "--change", str(ROOT), "--workload", "limit",
                     "--seeds", text, "--out", "unused.json", code=2)
    assert err.count("\n") == 1 and err.startswith("error: --seeds")
