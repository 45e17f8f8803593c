import ast
import itertools
import math
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import apply_perm_left, apply_perm_right
from tensorflat import tensors
from tensorflat.group_algebra import AlgebraElement, max_coeff_diff
from tensorflat.moments import Letter, Word, plain_word
from tensorflat.perms import Permutation, compose, embed_join, group, tau
from tensorflat.tensors import (
    PairProjection,
    TensorModel,
    choi_check,
    cond_expect_N,
    draw_halves,
    flatten,
    perm_matrix,
    phi_N,
    sample_tensor,
    trial_rng,
    trial_states,
    tuple_index_map,
    word_eval,
)

CG = TensorModel.complex_ginibre()


def brute_force_flatten(t, sigma):
    """Reference implementation straight from the entry formula, with
    0-based multi-indices decoded row-major."""
    N, k = t.N, t.k
    side = N**k
    out = np.zeros((side, side), dtype=complex)
    for r in range(side):
        for c in range(side):
            i = np.unravel_index(r, (N,) * k) + np.unravel_index(c, (N,) * k)
            out[r, c] = t.entries[tuple(i[sigma(p) - 1] for p in range(1, 2 * k + 1))]
    return out


@pytest.mark.parametrize("k,N", [(1, 4), (2, 3)])
def test_flatten_matches_brute_force(k, N):
    t = sample_tensor(CG, N, k, 0)
    rng = np.random.default_rng(1)
    perms = group(2 * k)
    for _ in range(4):
        sigma = perms[rng.integers(len(perms))]
        assert np.array_equal(flatten(t, sigma), brute_force_flatten(t, sigma))


def test_flatten_identity_and_transpose():
    t = sample_tensor(CG, 3, 1, 0)
    m = flatten(t, Permutation.identity(2))
    assert np.array_equal(m, t.entries)
    swapped = flatten(t, Permutation([2, 1]))
    assert np.array_equal(swapped, m.T)


def test_flatten_degree_check():
    t = sample_tensor(CG, 3, 1, 0)
    with pytest.raises(ValueError):
        flatten(t, Permutation.identity(3))


@pytest.mark.parametrize("k,N", [(1, 3), (2, 3)])
def test_perm_matrix_representation(k, N):
    for eta in group(k):
        U = perm_matrix(eta, N)
        assert phi_N(U) == N ** (eta.cycle_count() - k)
        for eta2 in group(k):
            U2 = perm_matrix(eta2, N)
            assert np.array_equal(U @ U2, perm_matrix(eta * eta2, N))
    assert np.array_equal(perm_matrix(Permutation.identity(k), N), np.eye(N**k))


@pytest.mark.parametrize("k,N", [(1, 4), (2, 3)])
def test_intertwining_identity(k, N):
    t = sample_tensor(CG, N, k, 5)
    rng = np.random.default_rng(2)
    perms = group(2 * k)
    for _ in range(3):
        sigma = perms[rng.integers(len(perms))]
        M = flatten(t, sigma)
        for eta in group(k):
            for eta2 in group(k):
                lhs = perm_matrix(eta, N) @ M @ perm_matrix(eta2, N).conj().T
                rhs = flatten(t, compose(embed_join(eta, eta2), sigma))
                assert np.abs(lhs - rhs).max() <= 1e-12


@pytest.mark.parametrize("k,N", [(1, 4), (2, 3)])
def test_half_swap_is_transpose(k, N):
    t = sample_tensor(CG, N, k, 6)
    for sigma in group(2 * k)[:8]:
        assert np.array_equal(
            flatten(t, compose(tau(k), sigma)), flatten(t, sigma).T
        )


def test_index_maps_match_dense_products():
    k, N = 2, 3
    rng = np.random.default_rng(3)
    A = rng.standard_normal((N**k, N**k)) + 1j * rng.standard_normal((N**k, N**k))
    for eta in group(k):
        U = perm_matrix(eta, N)
        assert np.allclose(apply_perm_left(eta, A), U @ A)
        assert np.allclose(apply_perm_right(A, eta), A @ U)


def test_phi_N_basics():
    assert phi_N(np.eye(3, dtype=complex)) == 1
    assert phi_N(np.zeros((3, 3), dtype=complex)) == 0


def test_phi_N_tracial():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    B = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    assert abs(phi_N(A @ B) - phi_N(B @ A)) <= 1e-12


def test_cond_expect_of_identity():
    k, N = 2, 4
    ce = cond_expect_N(np.eye(N**k, dtype=complex), k)
    for eta in group(k):
        assert ce.coeff(eta) == N ** (eta.cycle_count() - k)


def test_cond_expect_unit_coeff_is_phi():
    k, N = 2, 3
    rng = np.random.default_rng(5)
    A = rng.standard_normal((N**k, N**k)) + 0j
    assert abs(cond_expect_N(A, k).phi() - phi_N(A)) <= 1e-13


def test_cond_expect_bimodule():
    k, N = 2, 3
    rng = np.random.default_rng(6)
    A = rng.standard_normal((N**k, N**k)) + 1j * rng.standard_normal((N**k, N**k))
    for eta in group(k):
        for eta2 in group(k):
            U = perm_matrix(eta, N)
            U2 = perm_matrix(eta2, N)
            lhs = cond_expect_N(U @ A @ U2, k)
            rhs = AlgebraElement.basis(eta) * cond_expect_N(A, k) * AlgebraElement.basis(eta2)
            assert max_coeff_diff(lhs, rhs) <= 1e-12


def test_cond_expect_warns_below_uniqueness_threshold():
    with pytest.warns(UserWarning):
        cond_expect_N(np.eye(1, dtype=complex), 2)


def test_sampling_statistics():
    N, k = 4, 2
    t = sample_tensor(CG, N, k, 7)
    scaled = N**k * np.abs(t.entries) ** 2
    assert abs(scaled.mean() - 1) < 5 / math.sqrt(t.entries.size)
    sq = N**k * t.entries**2
    assert abs(sq.mean()) < 5 / math.sqrt(t.entries.size)
    tr = sample_tensor(TensorModel.real_ginibre(), N, k, 7)
    assert abs((N**k * tr.entries**2).mean().real - 1) < 5 * math.sqrt(2 / tr.entries.size)
    assert np.abs(tr.entries.imag).max() == 0


def test_sampling_deterministic():
    a = sample_tensor(CG, 3, 2, 42, trial=5)
    b = sample_tensor(CG, 3, 2, 42, trial=5)
    c = sample_tensor(CG, 3, 2, 42, trial=6)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)


# a diluted law whose base is not centred and given only by its moments
MOMENTS_ONLY = TensorModel.diluted(
    0.4, base_moments={(1, 0): 0.3 - 0.2j, (0, 1): 0.3 + 0.2j, (1, 1): 2.0, (2, 0): 0.5, (0, 2): 0.5}
)
# a diluted law with a Gaussian base of scale 1.7: c = 1.7^2
SCALED = TensorModel.diluted(0.4, base_scale=1.7)
LAWS = [CG, TensorModel.real_ginibre(), TensorModel.diluted(0.5)]
SAMPLABLE = LAWS + [SCALED]


def test_diluted_model_normalization():
    # every law the samplers draw is the law the model states: mean 0, and
    # N^k E|x|^2 = c, N^k E x^2 = c' to 5 standard errors of the mean
    N, k = 16, 2
    for model in SAMPLABLE:
        x = sample_tensor(model, N, k, 8).entries.reshape(-1)
        for values, want in ((x, 0), (N**k * np.abs(x) ** 2, model.c), (N**k * x**2, model.c_prime)):
            se = math.hypot(values.real.std(), values.imag.std()) / math.sqrt(x.size)
            assert abs(values.mean() - want) <= 5 * se, (model, want)


def test_only_the_tensors_module_reads_a_law_kind():
    # the entry law is one record: every other module reads what TensorModel
    # derives from its kind (moments, cumulants, parts, gain, buffers)
    readers = []
    for path in sorted(Path(tensors.__file__).parent.glob("*.py")):
        if path.name != "tensors.py":
            tree = ast.parse(path.read_text(), str(path))
            readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute) and node.attr == "kind"]
    assert readers == []


def test_diluted_validation():
    with pytest.raises(ValueError):
        TensorModel.diluted(0.0)
    with pytest.raises(ValueError, match="degenerate variance"):
        TensorModel.diluted(0.5, base_moments={(1, 0): 2.0, (1, 1): 1.0})
    with pytest.raises(ValueError, match=r"base moment \(1, 1\) not provided"):
        TensorModel.diluted(0.5, base_moments={(1, 0): 0.0})
    with pytest.raises(ValueError, match="not both"):
        TensorModel.diluted(0.5, base_moments={(1, 0): 0.0, (1, 1): 1.0}, base_scale=2.0)
    # alpha and beta2 are read off the base, never set
    with pytest.raises(TypeError):
        TensorModel.diluted(0.5, alpha=0.5)
    assert (MOMENTS_ONLY.alpha, MOMENTS_ONLY.beta2) == (0.3 - 0.2j, 2.0)
    assert (SCALED.alpha, SCALED.beta2) == (0, 1.7**2)


def test_samplers_refuse_a_base_given_only_by_its_moments():
    w = Word(1, (Letter(Permutation([2, 1]), "1"), Letter(Permutation([1, 2]), "*")))
    for draw in (lambda: sample_tensor(MOMENTS_ONLY, 3, 1, 0),
                 lambda: PairProjection(w, 3).samples(MOMENTS_ONLY, 0, 2)):
        with pytest.raises(ValueError, match="given only by its moments cannot be sampled") as caught:
            draw()
        assert "\n" not in str(caught.value)


def test_word_eval():
    k, N = 1, 3
    t = sample_tensor(CG, N, k, 9)
    assert np.array_equal(word_eval(t, plain_word(k, [])), np.eye(N))
    sigma = Permutation([2, 1])
    assert np.array_equal(word_eval(t, plain_word(k, [(sigma, "1")])), flatten(t, sigma))
    m = flatten(t, sigma)
    prod = word_eval(t, plain_word(k, [(sigma, "1"), (sigma, "*")]))
    assert np.allclose(prod, m @ m.conj().T)
    # the identity flattening is a view of the tensor; the word is a copy
    out = word_eval(t, plain_word(k, [(Permutation.identity(2), "1")]))
    assert np.array_equal(out, t.entries) and not np.shares_memory(out, t.entries)


def test_tuple_index_map_is_shared_and_read_only():
    eta = Permutation([2, 3, 1])
    m = tuple_index_map(eta, 3)
    assert tuple_index_map(Permutation([2, 3, 1]), 3) is m
    assert not m.flags.writeable
    assert np.array_equal(m[tuple_index_map(eta.inverse(), 3)], np.arange(27))


def assert_same_projection(fast, slow):
    """The paired projection's coefficients (in group(k) order) agree with
    those of the formed product to 1e-12 relative to the largest one."""
    want = np.array([slow.coeff(eta) for eta in group(slow.k)])
    assert np.abs(fast - want).max() <= 1e-12 * np.abs(want).max()


def assert_samples_match_the_formed_products(model, w, N, seed, trials):
    """PairProjection.samples against cond_expect_N of the formed word on
    each trial's sample_tensor, trial by trial."""
    fast = PairProjection(w, N).samples(model, seed, trials)
    assert fast.shape == (math.factorial(w.k), trials)
    for trial in range(trials):
        t = sample_tensor(model, N, w.k, seed, trial)
        assert_same_projection(fast[:, trial], cond_expect_N(word_eval(t, w), w.k))


@pytest.mark.parametrize("model", LAWS, ids=lambda m: m.kind)
@pytest.mark.parametrize("k,N", [(1, 1), (1, 4), (2, 2), (2, 3), (3, 2)])
def test_draw_halves_is_the_stream_of_sample_tensor(model, k, N):
    # sample_tensor, built on draw_halves, against the formula it replaced,
    # which drew the tensor's halves and its mask itself: equal up to the
    # sign of the diluted law's masked zeros, which np.array_equal ignores
    shape = (N,) * (2 * k)
    for trial in range(3):
        rng = trial_rng(9, trial)
        if model.kind == "complex_ginibre":
            raw = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
        elif model.kind == "real_ginibre":
            raw = rng.standard_normal(shape).astype(complex)
        else:
            base = (
                model.base_scale
                * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                / math.sqrt(2)
            )
            raw = (rng.random(shape) < model.p) * base
        assert np.array_equal(sample_tensor(model, N, k, 9, trial).entries, raw / model.scale(N, k))


@pytest.mark.parametrize("k,N", [(1, 1), (1, 5), (2, 1), (2, 3), (2, 6), (3, 2), (3, 4)])
def test_paired_projection_matches_the_formed_product(k, N):
    rng = np.random.default_rng(10 * k + N)
    perms, etas = group(2 * k), group(k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # N < k: coefficients are not unique
        for a, b in itertools.product("1*", repeat=2):
            first = Letter(perms[rng.integers(len(perms))], a)
            second = Letter(perms[rng.integers(len(perms))], b)
            w = Word(k, (first.followed_by(etas[rng.integers(len(etas))]), second))
            assert_samples_match_the_formed_products(CG, w, N, int(rng.integers(2**16)), 3)


@pytest.mark.parametrize("L", [0, 1, 3])
def test_paired_projection_needs_two_letters(L):
    w = Word(1, (Letter(Permutation([2, 1]), "1"),) * L)
    with pytest.raises(ValueError, match=f"a word of 2 letters, got {L}"):
        PairProjection(w, 3)


def test_paired_projection_applies_the_base_scale():
    sigma = Permutation([3, 1, 4, 2])
    for eps in itertools.product("1*", repeat=2):
        w = Word(2, (Letter(sigma, eps[0]).followed_by(Permutation([2, 1])), Letter(sigma, eps[1])))
        assert_samples_match_the_formed_products(SCALED, w, 3, 4, 3)


def threaded_samples(monkeypatch, cpus, model, w, N, seed, trials):
    """PairProjection.samples with cpus usable CPUs and threads at any size."""
    monkeypatch.setattr(tensors, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(tensors, "MIN_THREADED_DRAWS", 1)
    project = PairProjection(w, N)
    return project, project.samples(model, seed, trials)


@pytest.mark.parametrize("model", SAMPLABLE, ids=lambda m: f"{m.kind}-{m.p}")
@pytest.mark.parametrize("trials", [1, 2, 5])
def test_samples_are_bit_identical_for_any_worker_count(monkeypatch, model, trials):
    sigma = Permutation([3, 1, 4, 2])
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can go
    try:
        for eps in itertools.product("1*", repeat=2):
            w = Word(2, (Letter(sigma, eps[0]).followed_by(Permutation([2, 1])), Letter(sigma, eps[1])))
            _, one = threaded_samples(monkeypatch, 1, model, w, 3, 6, trials)
            for cpus in (2, 3):
                project, many = threaded_samples(monkeypatch, cpus, model, w, 3, 6, trials)
                assert project.workers == min(cpus, trials)
                assert set(project.timings) == {"seed_s", "sample_s", "estimate_s"}
                assert np.array_equal(many, one)
    finally:
        sys.setswitchinterval(switch)


def rng_state(seed, trial):
    state = trial_rng(seed, trial).bit_generator.state["state"]
    return state["state"], state["inc"]


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128, 2**200 + 11])
def test_trial_states_are_the_streams_of_trial_rng(seed):
    for trials in (1, 2, 300):
        assert trial_states(seed, range(trials)) == [rng_state(seed, t) for t in range(trials)]
    # the last trial that the covariance guard lets through, at k = 1, and
    # the last spawn key of one 32-bit word
    for last in (tensors.MAX_MAP_ENTRIES - 1, 2**32 - 1):
        assert trial_states(seed, range(last - 1, last + 1)) == [
            rng_state(seed, last - 1), rng_state(seed, last)
        ]
    assert trial_states(seed, range(0)) == []


@pytest.mark.parametrize("seed, trials", [(-1, range(2)), (0, range(2**32, 2**32 + 1)),
                                          (0, range(-1, 1))])
def test_trial_states_refuse_what_trial_rng_does_not_seed_by_one_word(seed, trials):
    with pytest.raises(ValueError):
        trial_states(seed, trials)


def reference_samples(model, project, seed, trials):
    """PairProjection.samples as a loop over a fresh trial_rng and fresh
    arrays per trial, with the same arithmetic."""
    size, side = project.N ** (2 * project.k), project.N**project.k
    real = model.kind == "real_ginibre"
    dot = {
        ("1", "1"): np.dot,
        ("*", "1"): np.vdot,
        ("1", "*"): lambda met, z: np.vdot(z, met),
        ("*", "*"): lambda met, z: np.dot(met, z).conjugate(),
    }[project.eps]
    out = np.empty((len(project.maps), trials), dtype=complex)
    for trial in range(trials):
        buf = draw_halves(model, size, trial_rng(seed, trial), np.empty(size if real else 2 * size))
        z = buf if real else np.empty(size, dtype=complex)
        if not real:
            z.real, z.imag = buf[:size], buf[size:]
        for row, q in enumerate(project.maps):
            out[row, trial] = dot(z[q], z)
    gain = 1.0 if real else model.base_scale / math.sqrt(2)
    out *= gain**2 / (model.scale(project.N, project.k) ** 2 * side)
    return out


@pytest.mark.parametrize("model", LAWS, ids=lambda m: m.kind)
@pytest.mark.parametrize("cpus", [1, 2])
def test_samples_equal_the_loop_over_trial_rng(monkeypatch, model, cpus):
    sigma = Permutation([3, 1, 4, 2])
    for eps in itertools.product("1*", repeat=2):
        w = Word(2, (Letter(sigma, eps[0]).followed_by(Permutation([2, 1])), Letter(sigma, eps[1])))
        project, fast = threaded_samples(monkeypatch, cpus, model, w, 3, 12, 7)
        assert project.workers == cpus
        assert np.array_equal(fast, reference_samples(model, project, 12, 7))


def test_samples_seed_each_worker_in_blocks(monkeypatch):
    # blocks of 2 trials: 5 trials on 2 workers seed 0..1 | 2..3, 4..4 and
    # still draw every trial's own stream
    monkeypatch.setattr(tensors, "SEED_BLOCK", 2)
    blocks = []
    monkeypatch.setattr(tensors, "trial_states",
                        lambda seed, block: blocks.append(block) or trial_states(seed, block))
    w = Word(1, (Letter(Permutation([2, 1]), "1"), Letter(Permutation([1, 2]), "*")))
    project, fast = threaded_samples(monkeypatch, 2, CG, w, 3, 8, 5)
    assert sorted(blocks, key=lambda r: r.start) == [range(0, 2), range(2, 4), range(4, 5)]
    assert np.array_equal(fast, reference_samples(CG, project, 8, 5))


@pytest.mark.parametrize("model", LAWS, ids=lambda m: m.kind)
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("bound, block", [(3 * 81, 3), (80, 1)])
def test_samples_cross_block_boundaries(monkeypatch, model, cpus, bound, block):
    # 81 entries a trial at k = 2, N = 3: a bound of 243 makes blocks of 3
    # trials, 7 trials 0..2, 3..5, 6 on one worker and 0..2 | 3..5, 6 on two,
    # which seed blocks of 2 cut across; a bound below one trial, blocks of 1
    monkeypatch.setattr(tensors, "BLOCK_ENTRIES", bound)
    monkeypatch.setattr(tensors, "SEED_BLOCK", 2)
    rows = []

    def draw(model, size, rng, out):  # out is a row of the block's buffer
        rows.append((out.ctypes.data - out.base.ctypes.data) // out.nbytes)
        return draw_halves(model, size, rng, out)

    monkeypatch.setattr(tensors, "draw_halves", draw)
    sigma = Permutation([3, 1, 4, 2])
    for eps in itertools.product("1*", repeat=2):
        w = Word(2, (Letter(sigma, eps[0]).followed_by(Permutation([2, 1])), Letter(sigma, eps[1])))
        rows.clear()
        project, fast = threaded_samples(monkeypatch, cpus, model, w, 3, 12, 7)
        assert project.block_trials == block
        assert sorted(rows) == sorted(t % block for t in [0, 1, 2, 0, 1, 2, 0])
        assert np.array_equal(fast, reference_samples(model, project, 12, 7))


def test_samples_stay_on_one_thread_below_the_cutoff(monkeypatch):
    # 2 N^2k = 2592 complex draws at k = 2, N = 6; 4096 real ones at N = 8
    monkeypatch.setattr(tensors, "usable_cpus", lambda: 2)
    w = Word(2, (Letter(Permutation([3, 1, 4, 2]), "1"), Letter(Permutation([1, 2, 3, 4]), "*")))
    for model, N, workers in [(CG, 6, 1), (TensorModel.real_ginibre(), 7, 1),
                              (TensorModel.real_ginibre(), 8, 2), (CG, 8, 2)]:
        project = PairProjection(w, N)
        project.samples(model, 1, 3)
        assert project.workers == workers


def patch_draws(monkeypatch, seed, trials, failing=()):
    """Patches draw_halves to raise on the streams of the failing trials,
    each once some trial has been drawn, as a failure met while another
    worker draws; returns the list it fills with (trial, the drawing
    thread's ident, threading.active_count()) for every other draw."""
    trial_of = {rng_state(seed, t)[0]: t for t in range(trials)}
    drawn, drawing = [], threading.Event()

    def draw(model, size, rng, out):
        trial = trial_of[rng.bit_generator.state["state"]["state"]]
        if trial in failing:
            drawing.wait(5)
            raise RuntimeError(f"trial {trial} failed")
        drawn.append((trial, threading.get_ident(), threading.active_count()))
        drawing.set()
        return draw_halves(model, size, rng, out)

    monkeypatch.setattr(tensors, "draw_halves", draw)
    return drawn


PAIR_K1 = Word(1, (Letter(Permutation([2, 1]), "1"), Letter(Permutation([1, 2]), "*")))


def test_a_failing_worker_fails_the_call(monkeypatch):
    # 5 trials on 2 workers: chunks 0..1 and 2..4; trial 3 raises in the second
    drawn = patch_draws(monkeypatch, 6, 5, failing={3})
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="trial 3 failed"):
        threaded_samples(monkeypatch, 2, CG, PAIR_K1, 3, 6, 5)
    assert threading.active_count() == before
    # trials 0 to 2: the first chunk ran to its end on the caller, the second
    # to its failure
    assert sorted(trial for trial, *_ in drawn) == [0, 1, 2]
    assert {trial for trial, ident, _ in drawn if ident == threading.get_ident()} == {0, 1}


def test_a_failing_caller_chunk_is_raised_after_the_other_workers(monkeypatch):
    # 5 trials on 2 workers: the caller's chunk 0..1 fails at trial 0 while
    # the worker of chunk 2..4 draws, which still draws every trial
    drawn = patch_draws(monkeypatch, 6, 5, failing={0})
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="trial 0 failed"):
        threaded_samples(monkeypatch, 2, CG, PAIR_K1, 3, 6, 5)
    assert sorted(trial for trial, *_ in drawn) == [2, 3, 4]
    assert threading.active_count() == before


def test_a_failure_within_a_block_is_raised_after_the_other_workers(monkeypatch):
    # blocks of 3 trials, seeded 2 at a time: 7 trials on 2 workers, chunks
    # 0..2 and 3..6; the caller's block 0..2 fails at trial 1 while the
    # worker of chunk 3..6 draws, which still draws its blocks 3..5 and 6
    monkeypatch.setattr(tensors, "BLOCK_ENTRIES", 3 * 81)
    monkeypatch.setattr(tensors, "SEED_BLOCK", 2)
    drawn = patch_draws(monkeypatch, 6, 7, failing={1})
    before = threading.active_count()
    w = Word(2, (Letter(Permutation([3, 1, 4, 2]), "1"), Letter(Permutation([1, 2, 3, 4]), "*")))
    with pytest.raises(RuntimeError, match="trial 1 failed"):
        threaded_samples(monkeypatch, 2, CG, w, 3, 6, 7)
    assert [trial for trial, *_ in drawn if trial != 0] == [3, 4, 5, 6]
    assert threading.active_count() == before


def test_of_two_failing_chunks_the_lower_is_raised(monkeypatch):
    # 6 trials on 3 workers: chunks 0..1, 2..3 and 4..5; chunk 2 fails at
    # its first trial, chunk 1 at its second
    drawn = patch_draws(monkeypatch, 6, 6, failing={3, 4})
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="trial 3 failed"):
        threaded_samples(monkeypatch, 3, CG, PAIR_K1, 3, 6, 6)
    assert sorted(trial for trial, *_ in drawn) == [0, 1, 2]
    assert threading.active_count() == before


def test_one_worker_starts_no_thread(monkeypatch):
    drawn = patch_draws(monkeypatch, 6, 5)
    before = threading.active_count()
    project, _ = threaded_samples(monkeypatch, 1, CG, PAIR_K1, 3, 6, 5)
    assert project.workers == 1
    assert drawn == [(trial, threading.get_ident(), before) for trial in range(5)]


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 3),
    N=st.integers(1, 5),
    letters=st.lists(
        st.tuples(st.integers(0, 719), st.sampled_from("1*"), st.integers(0, 5)),
        min_size=2, max_size=2,
    ),
    model=st.sampled_from(LAWS),
    seed=st.integers(0, 2**16),
)
def test_paired_projection_of_a_word_property(k, N, letters, model, seed):
    perms, etas = group(2 * k), group(k)
    word = Word(k, tuple(
        Letter(perms[s % len(perms)], e).followed_by(etas[h % len(etas)]) for s, e, h in letters
    ))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        project = PairProjection(word, N)
        fast = project.samples(model, seed, 2)
        slow = [cond_expect_N(word_eval(sample_tensor(model, N, k, seed, trial), word), k)
                for trial in range(2)]
    # the maps warn once, when they are built; the formed product once per trial
    assert len(caught) == (3 if N < k else 0)
    assert set(project.timings) == {"seed_s", "sample_s", "estimate_s"}
    for trial in range(2):
        assert_same_projection(fast[:, trial], slow[trial])


def test_choi_check():
    mineig, defect = choi_check(3, 1)
    assert abs(mineig - 1) <= 1e-12 and defect <= 1e-12
    for N in (2, 3):
        mineig, defect = choi_check(N, 2)
        assert mineig >= -1e-10
        assert defect <= 1e-10
    with pytest.raises(ValueError):
        choi_check(9, 2)
