"""Tests of the benchmark itself: seeded op lists, the golden gate, the
tracer's patching and restoring, and the BENCHMARK.json contract.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import sys

import pytest

import run
import tracer
import worker
import workloads
from tensorflat import cli, group_algebra, moments, perms, spectra, tensors
from tensorflat.group_algebra import AlgebraElement
from tensorflat.perms import Permutation

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def one_op_per_stratum(workload):
    seen, out = set(), []
    for op in workloads.op_list(workload, workloads.DEV_SEED):
        stratum = op["id"].rsplit("/", 1)[0]
        if stratum not in seen:
            seen.add(stratum)
            out.append(op)
    return out


def run_ops(ops, golden, tmp_path):
    calls = [workloads.prepare(op, tmp_path) for op in ops]
    return worker.run_passes(ops, calls, golden, seconds=0.0, min_passes=1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_op_list(workload):
    first = workloads.op_list(workload, workloads.DEV_SEED)
    assert workloads.op_list(workload, workloads.DEV_SEED) == first
    assert workloads.op_list(workload, workloads.HELD_OUT_SEED) != first
    assert sorted(op["id"] for op in first) != sorted(
        op["id"] for op in workloads.op_list(workload, workloads.HELD_OUT_SEED)
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_ten_op_latencies_lie_above_p90(workload):
    n = len(workloads.op_list(workload, workloads.DEV_SEED))
    latencies = [float(i) for i in range(n)]
    p90 = run.statistics.quantiles(latencies, n=10)[-1]
    assert sum(t > p90 for t in latencies) >= 10


def test_an_op_latency_is_its_median_pass_scaled_by_the_reference():
    ref = run.REF_S
    result = {
        "latencies": [[0.3, 0.1, 0.4], [0.5, 0.7, 0.4]],
        "refs": [[ref, ref, 2 * ref], [ref, ref, ref]],
    }
    assert run.op_latencies(result) == [0.2, 0.5]
    assert run.wall_s(result) == 0.7
    assert run.op_latencies(result, scaled=False) == [0.3, 0.5]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_op_a_seed_can_pick_has_a_golden_record(workload):
    golden = workloads.load_golden(workload)
    pool = workloads.pool(workload)
    assert {op["id"] for op in pool} == set(golden)
    assert all(op in pool for op in workloads.op_list(workload, 12345))
    assert all(rec["code"] in (0, 1) for rec in golden.values())


def test_a_perturbed_golden_value_raises_fail_frac(tmp_path):
    ops = [op for op in one_op_per_stratum("limit") if op["id"].startswith("word-k2-L8")]
    ops += [op for op in one_op_per_stratum("oracle") if op["id"].startswith("k2-L2/")]
    golden = {**workloads.load_golden("limit"), **workloads.load_golden("oracle")}
    assert len(ops) == 2

    _, _, passes, failed, _ = run_ops(ops, golden, tmp_path)
    assert (passes, failed) == (1, 0)

    perturbed = copy.deepcopy(golden)
    record = perturbed[ops[0]["id"]]["exact"]
    index = max(range(len(record)), key=lambda i: abs(record[i]))
    record[index] += 1e-9 * max(1.0, abs(record[index]))
    _, _, passes, failed, failures = run_ops(ops, perturbed, tmp_path)
    assert failed / (passes * len(ops)) == 0.5
    assert failures[0].startswith(ops[0]["id"])


def test_gate_counts_exit_code_2_and_raising_ops_as_failed():
    op = {"id": "x", "kind": "oracle", "spec": {}}
    golden = {"x": {"code": 2, "ints": [], "exact": [], "mc": []}}
    assert workloads.check(op, (2, "", None), golden) == "exit code 2"
    assert workloads.check(op, ValueError("boom"), golden).startswith("raised ValueError")


def test_monte_carlo_values_compare_at_rounding_level():
    golden = {"code": 0, "ints": [1], "exact": [0.5], "mc": [0.25, 0.01]}
    near = {"code": 0, "ints": [1], "exact": [0.5], "mc": [0.25 + 1e-14, 0.01]}
    other_stream = {"code": 0, "ints": [1], "exact": [0.5], "mc": [0.2501, 0.01]}
    assert workloads.mismatch(near, golden) is None
    assert workloads.mismatch(other_stream, golden).startswith("mc[0]")


def namespace_state():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "tensorflat" or name.startswith("tensorflat."))
        for attr, value in vars(module).items()
    }


def test_tracer_patches_every_namespace_holding_a_reference():
    original_flatten = tensors.flatten
    with tracer.Tracer() as trace:
        assert tensors.flatten is not original_flatten
        assert spectra.flatten is tensors.flatten is cli.flatten
        import tensorflat

        assert tensorflat.flatten is tensors.flatten
        assert cli.covariance is moments.covariance
        assert hasattr(cli.main, "__wrapped__")

        a = AlgebraElement.basis(Permutation([2, 1]))
        _ = a * a  # AlgebraElement.__mul__ -> group_algebra.multiply
        assert trace.stats["group_algebra.multiply"]["calls"] == 1
        assert trace.stats["group_algebra.multiply"]["term_products"] == 1
        composed = trace.stats["perms.compose"]["calls"]
        _ = Permutation([2, 1]) * Permutation([2, 1])  # Permutation.__mul__ -> compose
        assert trace.stats["perms.compose"]["calls"] == composed + 1
    assert tensors.flatten is original_flatten and spectra.flatten is original_flatten
    assert not hasattr(group_algebra.multiply, "__wrapped__")
    assert not hasattr(perms.compose, "__wrapped__")


def test_tracer_restores_every_patched_attribute():
    before = namespace_state()
    with tracer.Tracer():
        assert namespace_state() != before
    assert namespace_state() == before
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("op failed")
    assert namespace_state() == before


def test_self_time_excludes_child_spans():
    trace = tracer.Tracer()
    with trace:
        t = tensors.sample_tensor(tensors.TensorModel.complex_ginibre(), 6, 2, 1)
        spectra.build_target(t, "S1", tensors.TensorModel.complex_ginibre())
    build, flat = trace.stats["spectra.build_target"], trace.stats["tensors.flatten"]
    assert flat["calls"] == 24 and build["calls"] == 1
    assert flat["bytes_computed"] == 24 * 2 * 16 * 6**4
    assert build["side_max"] == 36
    assert 0 < build["self_s"] and 0 < flat["self_s"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_ops_pass_the_golden_gate_and_reach_their_layers(workload, tmp_path):
    ops = one_op_per_stratum(workload)
    with tracer.Tracer() as trace:
        _, _, _, failed, failures = run_ops(ops, workloads.load_golden(workload), tmp_path)
    assert failed == 0, failures
    for layer, mapped in tracer.MAPPED_WORKLOADS.items():
        if workload in mapped:
            assert trace.stats[layer]["calls"] > 0, layer


def test_every_layer_is_mapped_to_a_workload():
    assert set(tracer.MAPPED_WORKLOADS) == set(tracer.SPANS + tracer.COUNTS)
    assert all(set(w) <= set(workloads.WORKLOADS) for w in tracer.MAPPED_WORKLOADS.values())


def test_benchmark_json_names_what_the_benchmark_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == tracer.METRICS
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
