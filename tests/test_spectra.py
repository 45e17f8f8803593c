import functools
import itertools
import json
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from tensorflat import spectra
from tensorflat.cli import spectrum_csv
from tensorflat.moments import Target, Word
from tensorflat.perms import Permutation, group
from tensorflat.spectra import (
    CHUNK_ENTRIES,
    build_target,
    empirical_spectrum,
    gram,
    histogram,
    histogram_svg,
    orbit_maps,
    percentiles,
    run_experiment,
    trace_power_moments,
)
from tensorflat.tensors import (
    TensorModel,
    chunk_views,
    draw_buffer,
    draw_chunks,
    draw_halves,
    flatten,
    parse_model,
    perm_matrix,
    sample_tensor,
    trial_rng,
)
from tensorflat.traffic import full_trace_expect_detailed

CG = TensorModel.complex_ginibre()


# --- dense references for the fast path -------------------------------------


def dense_target(t, target, model):
    """The target's library Mixture, evaluated one flattening at a time."""
    mixture = target.mixture(t.k, model.c, model.c_prime)
    total = np.zeros((t.N**t.k, t.N**t.k), dtype=complex)
    for letter, coeff in mixture.terms:
        m = flatten(t, letter.sigma)
        total += coeff * (m if letter.eps == "1" else m.conj().T)
    return total


@functools.cache
def symmetry_basis(N, k, antisymmetric):
    """Row-major indices of the orbit representatives of [N]^k under
    permutations of the coordinates (sorted tuples; strictly increasing
    when antisymmetric) and the square roots of their orbit sizes."""
    if antisymmetric:
        reps = list(itertools.combinations(range(N), k))
        orbits = [math.factorial(k)] * len(reps)
    else:
        reps = list(itertools.combinations_with_replacement(range(N), k))
        orbits = [
            math.factorial(k)
            // math.prod(math.factorial(c) for c in Counter(r).values())
            for r in reps
        ]
    index = np.ravel_multi_index(np.array(reps, dtype=np.intp).reshape(-1, k).T, (N,) * k)
    return index, np.sqrt(np.array(orbits, dtype=float))


def compress(dense, target, N, k):
    """The block B[r, s] = sqrt(o_r o_s) A[r, s] of a dense target on Sym^k
    (S1, S3) or Lambda^k (S2), in the orbit basis of symmetry_basis."""
    index, weight = symmetry_basis(N, k, target.signed)
    return dense[np.ix_(index, index)] * np.multiply.outer(weight, weight)


def draws(model, N, k, seed, trial=0):
    """The unscaled draws that sample_tensor(model, N, k, seed, trial) scales."""
    size = N ** (2 * k)
    return draw_halves(model, size, trial_rng(seed, trial), np.empty(model.parts * size))


def chunks(model, N, k, seed, trial=0, timings=None):
    """A trial's draws as a spectrum trial draws them: draw_chunks into a
    buffer of the size run_experiment gives it."""
    step = orbit_maps(N, k, False).step
    timings = {"sample_s": 0.0} if timings is None else timings
    out = draw_buffer(model, N**k, step)
    return draw_chunks(model, N**k, step, trial_rng(seed, trial), out, timings)


def block(model, N, k, target, seed, trial=0):
    return build_target(chunks(model, N, k, seed, trial), target, model, N, k)


def stacked(matrix, parts=2):
    """A dense matrix in the stacked real form of build_target: its real part
    on its imaginary part, or its real part alone (parts = 1)."""
    return np.stack([matrix.real, matrix.imag][:parts])


def unstacked(A):
    """The complex (or, with one part, real) matrix of a stacked form."""
    return A[0] if len(A) == 1 else A[0] + 1j * A[1]


def padded(eigs, side):
    """A block's eigenvalues with the side - d zeros of its target's
    spectrum, sorted."""
    return np.sort(np.concatenate([eigs, np.zeros(side - eigs.size)]))


def dense_spectrum(data, hermitian):
    return np.sort(np.linalg.eigvalsh(data if hermitian else data @ data.conj().T))


def dense_moments(data, hermitian, n_max):
    """Normalized traces by iterated full products."""
    base = data if hermitian else data @ data.conj().T
    power = np.eye(base.shape[0], dtype=complex)
    out = []
    for _ in range(n_max):
        power = power @ base
        out.append(complex(np.trace(power)) / base.shape[0])
    return out


def _models(N):
    return (CG, TensorModel.real_ginibre(), TensorModel.diluted(1.0 / N))


FAST_CASES = [
    (which, k, N, index)
    for k, sizes in ((1, (1, 4, 16)), (2, (1, 2, 5, 16)), (3, (2, 4, 6)))
    for N in sizes
    for which in (t.name for t in Target)
    for index in range(3)
]


@pytest.mark.parametrize("which, k, N, index", FAST_CASES)
def test_fast_path_matches_dense(which, k, N, index):
    model, target = _models(N)[index], Target[which]
    herm = target.hermitian
    side = N**k
    B = block(model, N, k, target, 17, index)
    dense = dense_target(sample_tensor(model, N, k, 17, index), target, model)
    # a Hermitian block is the real part of the dense reference, whose
    # imaginary part is rounding noise
    if herm:
        assert np.abs(dense.imag).max() <= 1e-12 * np.abs(dense).max(initial=0.0)
    want = stacked(compress(dense, target, N, k), 1 if herm else model.parts)
    assert B.shape == want.shape
    base = B if herm else gram(B)
    spec = empirical_spectrum(base)
    assert spec.shape == (B.shape[-1],)
    spec = padded(spec, side)
    n_max = 12
    moms = trace_power_moments(base, n_max, side)
    if target.signed and N < 2 * k:
        # S2 antisymmetrizes all 2k axes, so it vanishes for N < 2k: the
        # block is exactly 0, the dense sum only rounding noise
        assert not B.any() and np.abs(dense).max() <= 1e-12
        assert not spec.any() and moms == [0] * n_max
        return
    assert np.abs(B - want).max() <= 1e-10 * np.abs(dense).max()
    eigs = dense_spectrum(dense, herm)
    assert np.abs(spec - eigs).max() <= 1e-10 * np.abs(eigs).max()
    # moment n is pinned relative to the mean of |eigenvalue|^n
    scales = [np.mean(np.abs(eigs) ** n) for n in range(1, n_max + 1)]
    dense_base = stacked(dense) if herm else gram(stacked(dense))
    for got in (moms, trace_power_moments(dense_base, n_max)):
        for m, want_m, scale in zip(got, dense_moments(dense, herm, n_max), scales):
            assert abs(m - want_m) <= 1e-10 * scale


@pytest.mark.parametrize("N, k", [(1, 1), (5, 1), (1, 2), (3, 2), (7, 2), (16, 2), (2, 3), (5, 3), (3, 4)])
@pytest.mark.parametrize("signed", [False, True])
def test_orbit_maps_count_every_arrangement(N, k, signed):
    maps = orbit_maps(N, k, signed)
    m = 2 * k
    bins = math.comb(N, m) if signed else math.comb(N + m - 1, m)
    assert maps.stab.size == bins
    # the orbits are the basis' representatives, in its order
    index, weight = symmetry_basis(N, k, signed)
    assert np.array_equal(maps.root, weight)
    assert np.array_equal(maps.orbit[index], np.arange(index.size))
    # a k-tuple's sign is +-1 unless a signed tuple repeats an index, where
    # sign and orbit are 0, and the orbits of the others have their sizes
    tuples = list(itertools.product(range(N), repeat=k))
    distinct = np.array([not signed or len(set(t)) == k for t in tuples])
    assert np.array_equal(np.abs(maps.sign), distinct)
    assert not maps.orbit[~distinct].any()
    sizes = np.rint(maps.root**2)
    assert np.array_equal(np.bincount(maps.orbit[distinct], minlength=sizes.size), sizes)
    # a multiset's arrangements are the arrangements of the (row, column)
    # orbit pairs that merge into it
    arrangements = math.factorial(m) / maps.stab
    pairs = np.multiply.outer(sizes, sizes)
    met = maps.pair_bin == 2 * bins
    folded = np.bincount(maps.pair_bin[~met] % max(bins, 1), pairs[~met], minlength=bins)
    assert np.array_equal(folded, arrangements)
    assert arrangements.sum() == (math.perm(N, m) if signed else N**m)
    if not signed:
        assert not met.any() and (maps.pair_bin < bins).all()
    check_plan(maps, N, k)


def pattern_sign(t):
    """The signature of the permutation i -> rank of t_i, for distinct t_i."""
    return Permutation(tuple(sorted(t).index(x) + 1 for x in t)).signature()


@pytest.mark.parametrize("N, k", [(5, 2), (4, 3)])
def test_orbit_maps_signs(N, k):
    # the sign of a k-tuple and of an orbit pair's merge, by cycle counts
    maps = orbit_maps(N, k, True)
    tuples = list(itertools.product(range(N), repeat=k))
    for i, t in enumerate(tuples):
        want = 0 if len(set(t)) < k else pattern_sign(t)
        assert maps.sign[i] == want
    reps = list(itertools.combinations(range(N), k))
    bins = maps.stab.size
    for r, a in enumerate(reps):
        for s, b in enumerate(reps):
            code = maps.pair_bin[r, s]
            if set(a) & set(b):
                assert code == 2 * bins
            else:
                assert (code >= bins) == (pattern_sign(a + b) < 0)


def check_plan(maps, N, k):
    """Each chunk of maps.step rows reaches the orbits of its rows of nonzero
    sign, and each such row's offset points at its orbit's place."""
    side, d = N**k, maps.root.size
    assert len(maps.plan) == -(-side // maps.step)
    for c, (live, offset, reached) in enumerate(maps.plan):
        rows = np.arange(c * maps.step, min(side, (c + 1) * maps.step))
        assert np.array_equal(rows[live], rows[maps.sign[rows] != 0])
        assert np.array_equal(reached, np.unique(maps.orbit[rows[live]]))
        assert not (offset % max(d, 1)).any()
        assert np.array_equal(reached[offset // max(d, 1)], maps.orbit[rows[live]])


@pytest.mark.parametrize("entries", [7, 80])
def test_chunking_changes_nothing(monkeypatch, entries):
    # at N = 5, k = 2, 80 entries give chunks of 3 rows and of 1 orbit pair
    # row, 7 entries chunks of 1 row
    wide = {target: block(CG, 5, 2, target, 3) for target in Target}
    maps = {signed: orbit_maps(5, 2, signed) for signed in (False, True)}
    monkeypatch.setattr(spectra, "CHUNK_ENTRIES", entries)
    spectra.orbit_maps.cache_clear()
    try:
        for signed, want in maps.items():
            got = orbit_maps(5, 2, signed)
            for name in ("orbit", "sign", "pair_bin", "stab", "root"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert (want.step, got.step) == (25, max(1, entries // 25))
            for plan in (want, got):
                check_plan(plan, 5, 2)
        for target, want in wide.items():
            assert np.abs(block(CG, 5, 2, target, 3) - want).max() <= 1e-12
    finally:
        spectra.orbit_maps.cache_clear()


@pytest.mark.parametrize("N, k", [(1, 1), (7, 1), (3, 2), (6, 2), (3, 3)])
@pytest.mark.parametrize("index", range(3))
def test_chunks_are_the_stream_of_draw_halves(monkeypatch, N, k, index):
    # 2 N^k + 3 entries give chunks of 2 rows: the last chunk of a half is
    # partial where N^k is odd
    model = _models(N)[index]
    monkeypatch.setattr(spectra, "CHUNK_ENTRIES", 2 * N**k + 3)
    spectra.orbit_maps.cache_clear()
    try:
        step = orbit_maps(N, k, False).step
        assert step == min(2, N**k)
        timings = {"sample_s": 0.0}
        got = [c.copy() for c in chunks(model, N, k, 8, 2, timings)]
    finally:
        spectra.orbit_maps.cache_clear()
    whole = draws(model, N, k, 8, 2)
    assert all(c.shape[1] == N**k and c.shape[0] <= step for c in got)
    assert np.array_equal(np.concatenate(got).ravel(), whole)
    assert all(np.array_equal(a, b) for a, b in zip(got, chunk_views(whole, N**k, step)))
    assert timings["sample_s"] > 0


@pytest.mark.parametrize("N, k", [(5, 2), (20, 2), (64, 1), (300, 1), (7, 3)])
@pytest.mark.parametrize("index", range(2))
def test_gaussian_chunks_share_one_small_buffer(N, k, index):
    model = _models(N)[index]
    bound = max(CHUNK_ENTRIES, N**k)
    bases = set()
    count = 0
    for count, chunk in enumerate(chunks(model, N, k, 4), 1):
        assert chunk.base is not None and chunk.base.size <= bound
        bases.add(id(chunk.base))
    assert len(bases) == 1
    assert count == (1 if index else 2) * len(orbit_maps(N, k, False).plan)


def test_gaussian_trial_holds_no_draw_buffer():
    # k = 3, N = 10: N^2k draws take 8 MB, a trial's chunk buffer 0.5 MB;
    # the first run fills the caches
    run_experiment(CG, Target.S1, 3, 10, 1, 2, seed=0)
    tracemalloc.start()
    try:
        report = run_experiment(CG, Target.S1, 3, 10, 1, 2, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6 * 8
    assert report["timings"]["sample_s"] > 0 and report["timings"]["build_s"] > 0


def test_sample_s_times_the_draws_alone(monkeypatch):
    # each standard_normal call of a slowed generator sleeps 50 ms
    class Slow:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, out):
            time.sleep(0.05)
            return self.rng.standard_normal(out=out)

    monkeypatch.setattr(spectra, "trial_rng", lambda seed, trial: Slow(trial_rng(seed, trial)))
    timings = run_experiment(CG, Target.S1, 2, 4, 2, 2, seed=1)["timings"]
    assert timings["sample_s"] >= 4 * 0.05 and timings["build_s"] < 0.05


def test_build_target_checks_the_chunks():
    step = orbit_maps(4, 2, False).step
    with pytest.raises(ValueError, match="chunk 0 of shape"):
        build_target([np.zeros((3, 16))], Target.S1, CG, 4, 2)
    with pytest.raises(ValueError, match="1 chunks given, the plan has 2"):
        build_target(chunk_views(np.zeros(256), 16, step), Target.S1, CG, 4, 2)


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("d", [0, 1, 5, 40])
def test_gram_is_the_complex_product(parts, d):
    rng = np.random.default_rng(10 * d + parts)
    A = rng.standard_normal((parts, d, d))
    got = gram(A)
    assert got.shape == A.shape
    want = unstacked(A).conj().T @ unstacked(A)
    assert np.abs(unstacked(got) - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)


@pytest.mark.parametrize("target", [Target.S1, Target.S3])
@pytest.mark.parametrize("index", range(3))
def test_moments_of_the_stacked_operand_are_traces_of_complex_powers(target, index):
    # n_max = 12 takes the powers up to 6, the odd ones 3 and 5 among them
    N, k, n_max = 6, 2, 12
    B = block(_models(N)[index], N, k, target, 21)
    base = B if target.hermitian else gram(B)
    got = trace_power_moments(base, n_max, N**k)
    C = unstacked(base)
    eigs = np.linalg.eigvalsh(C)
    power = np.eye(C.shape[0])
    for n in range(1, n_max + 1):
        power = power @ C
        # moment n relative to the normalized trace of |C|^n
        scale = np.sum(np.abs(eigs) ** n) / N**k
        assert abs(got[n - 1] - np.trace(power).real / N**k) <= 1e-12 * scale


def test_a_complex_trial_holds_a_few_blocks():
    # k = 2, N = 32: d = 528, so 5 d^2 doubles are 11.2 MB; the block and
    # B*B take 4 d^2, the chunk buffer and its bincounts the rest
    N, k = 32, 2
    d = orbit_maps(N, k, False).root.size
    run_experiment(CG, Target.S1, k, N, 1, 2, seed=0)  # builds the maps
    tracemalloc.start()
    try:
        run_experiment(CG, Target.S1, k, N, 1, 2, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * d * d * 8


def histogram_cases():
    """(values, zeros) pairs: all positive, mixed signs, all negative, with
    exact zeros among the values, no padding, and no values."""
    rng = np.random.default_rng(31)
    for case in range(120):
        d, zeros = int(rng.integers(0, 40)), int(rng.integers(0, 60))
        if case % 10 == 0:
            zeros = 0
        elif case % 10 == 1:
            d = 0
        if d + zeros == 0:
            d = 3
        values = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 3)
        values = {0: np.abs(values), 1: values, 2: -np.abs(values)}[case % 3]
        if case % 7 == 0:
            values[: d // 3] = 0.0
        yield values, zeros


def padded_histogram(full, side):
    """histogram of an array that holds its zeros, by np.percentile and
    np.histogram over all of it."""
    q75, q25 = np.percentile(full, [75, 25])
    iqr = q75 - q25
    width = 2 * iqr / len(full) ** (1 / 3) if iqr > 0 else None
    nbins = min(512, max(1, math.ceil((full.max() - full.min()) / width))) if width else 32
    counts, edges = np.histogram(full, bins=nbins)
    delta = 3 * iqr / side if iqr > 0 else 1e-3
    return {
        "edges": edges.tolist(), "counts": counts.tolist(), "zero_band": delta,
        "zero_mass": int(np.sum(np.abs(full) <= delta)),
    }


def test_padding_is_counted_not_formed():
    for values, zeros in histogram_cases():
        full = np.concatenate([values, np.zeros(zeros)])
        q = [75, 25, 0, 50, 100, 33.3]
        assert percentiles(np.sort(values), zeros, q) == list(np.percentile(full, q))
        for side in (7, full.size):
            want = padded_histogram(full, side)
            assert histogram(values, side, zeros) == want == histogram(full, side)


def test_symmetry_basis_dimensions():
    for N, k in ((40, 2), (64, 2), (6, 3), (2, 3)):
        index, weight = symmetry_basis(N, k, False)
        assert index.size == math.comb(N + k - 1, k)
        assert (weight**2).sum() == pytest.approx(N**k)
        index, weight = symmetry_basis(N, k, True)
        assert index.size == math.comb(N, k)
        assert (weight**2).sum() == pytest.approx(math.factorial(k) * math.comb(N, k))
        if N < 64:  # the maps' pair table at N = 64 holds 35 MB
            assert orbit_maps(N, k, True).root.size == index.size
    assert symmetry_basis(40, 2, False)[0].size == 820
    assert symmetry_basis(64, 2, False)[0].size == 2080


@pytest.mark.parametrize("k, N", [(2, 1), (3, 2)])
def test_empty_exterior_power(k, N):
    # Lambda^k of C^N is empty for N < k: S2 vanishes identically
    B = block(CG, N, k, Target.S2, 9)
    assert B.shape == (2, 0, 0)
    base = gram(B)
    assert trace_power_moments(base, 4, N**k) == [0, 0, 0, 0]
    assert empirical_spectrum(base).shape == (0,)
    report = run_experiment(CG, Target.S2, k, N, 1, 4, seed=9, with_hist=True)
    assert [row["empirical"] for row in report["moments"]] == [0.0] * 4
    assert report["histogram"]["zero_mass"] == N**k
    assert report["counters"] == {"side": N**k, "compressed_side": 0, "matmuls": 0, "orbit_bins": 0}


def test_empty_matrix():
    empty = np.zeros((2, 0, 0))
    for base in (gram(empty), empty):
        assert empirical_spectrum(base).shape == (0,)
        with pytest.raises(ValueError, match="empty 0x0"):
            trace_power_moments(base, 2)


def test_hermitian_target_is_hermitian():
    # N = 20, k = 2: chunks of 163 rows, three to a half
    assert len(orbit_maps(20, 2, False).plan) == 3
    for model in _models(20):
        B = unstacked(block(model, 20, 2, Target.S3, 0))
        assert np.array_equal(B, B.conj().T)


@pytest.mark.parametrize("k, N", [(1, 9), (2, 5), (3, 3)])
@pytest.mark.parametrize("index", range(3))
def test_s1_block_is_symmetric(k, N, index):
    # B[r, s] reads only the multiset r u s, so S3 = B + B^H = 2 Re B, one real part
    model = _models(N)[index]
    B = block(model, N, k, Target.S1, 11)
    assert np.abs(B - B.transpose(0, 2, 1)).max() <= 1e-15 * np.abs(B).max()
    assert block(model, N, k, Target.S3, 11).shape == (1,) + B.shape[1:]


@pytest.mark.parametrize("k, N", [(1, 9), (2, 5), (3, 3)])
def test_s3_moments_are_those_of_the_real_half(k, N):
    # the real law draws the complex law's real half, at the same gain over scale
    got, want = (
        run_experiment(model, Target.S3, k, N, 3, 6, seed=8)["moments"]
        for model in (CG, TensorModel.real_ginibre())
    )
    for a, b in zip(got, want):
        assert abs(a["empirical"] - b["empirical"]) <= 1e-12 * abs(b["empirical"])


@pytest.mark.parametrize("k, N", [(1, 9), (2, 5), (2, 20)])
def test_s3_trial_draws_only_the_real_half(k, N):
    rng, step = trial_rng(6, 0), orbit_maps(N, k, False).step
    out = draw_buffer(CG, N**k, step)
    draws = draw_chunks(CG, N**k, step, rng, out, {"sample_s": 0.0})
    build_target(draws, Target.S3, CG, N, k)
    stream = trial_rng(6, 0).standard_normal(N ** (2 * k) + 1)
    assert rng.standard_normal() == stream[-1]


def test_target_invariant_under_permutation_operators():
    A = dense_target(sample_tensor(CG, 3, 2, 1), Target.S1, CG)
    for eta in group(2):
        for eta2 in group(2):
            U = perm_matrix(eta, 3)
            U2 = perm_matrix(eta2, 3)
            assert np.abs(U @ A @ U2.conj().T - A).max() <= 1e-12


def test_trace_power_moments_basics():
    eye = np.eye(3)[None]
    assert trace_power_moments(eye, 3) == [1, 1, 1]
    zero = np.zeros((2, 3, 3))
    assert trace_power_moments(gram(zero), 3) == [0, 0, 0]


def test_first_moment_is_frobenius_norm():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m1 = trace_power_moments(gram(stacked(data)), 1)[0]
    assert abs(m1 - (np.abs(data) ** 2).sum() / 9) <= 1e-12


def test_moment_spectrum_consistency():
    for target in (Target.S1, Target.S3):
        B = block(CG, 3, 2, target, 3)
        base = B if target.hermitian else gram(B)
        eigs = empirical_spectrum(base)  # the side - d zero eigenvalues add nothing
        moms = trace_power_moments(base, 4, 3**2)
        for n in range(1, 5):
            assert abs((eigs**n).sum() / 3**2 - moms[n - 1]) <= 1e-8


def test_empirical_spectrum_diag():
    diag = stacked(np.diag([5.0, 3, 1, 4, 2]))
    assert np.allclose(empirical_spectrum(diag), [1, 2, 3, 4, 5])


def test_normalization_invariance():
    # scaling the base law and dividing by the declared variance must give
    # identical moments for the same seed
    base = TensorModel.diluted(1.0)
    scaled = TensorModel.diluted(1.0, base_scale=3.0)
    assert scaled.c == pytest.approx(9.0)
    for trial in range(2):
        blocks = [block(model, 3, 1, Target.S1, 13, trial) for model in (base, scaled)]
        m1, m2 = (trace_power_moments(gram(B), 3) for B in blocks)
        assert np.allclose(m1, m2, atol=1e-10)


def test_run_experiment_small():
    report = run_experiment(CG, Target.S1, 1, 16, 8, 3, seed=4, with_hist=True)
    assert len(report["moments"]) == 3
    # pure square case: first moment close to 1
    row = report["moments"][0]
    assert row["predicted"] == 1.0
    assert abs(row["empirical"] - 1.0) <= max(5 * row["stderr"], 0.2)
    payload = json.loads(json.dumps(report))
    assert payload["N"] == 16 and payload["seed"] == 4
    csv_text = spectrum_csv(report["moments"])
    assert csv_text.splitlines()[0] == "n,predicted,empirical,stderr"
    assert report["histogram"]["zero_mass"] >= 0
    # B*B and its square for n_max 3; the spectrum reuses B*B
    assert report["counters"] == {"side": 16, "compressed_side": 16, "matmuls": 2, "orbit_bins": 136}


def test_run_experiment_guards_the_draws_before_drawing():
    # 65^4 > 2^24 draws; no allocation is attempted
    with pytest.raises(ValueError) as error:
        run_experiment(CG, Target.S1, 2, 65, 1, 2, seed=0)
    assert str(error.value) == (
        "spectrum trial draws N^(2k) = 17850625 exceeds the guard of 16777216"
    )


@functools.cache
def exact_moment(target, spec):
    """The exact finite-N moment that the target's two-letter words give at
    k = 2, m_1 (of A A*) or, for the Hermitian S3, m_2 (of A A), as
    {power of N: coefficient}: the oracle's polynomial of every pair of the
    target's letters, weighted by the product of their coefficients."""
    model = parse_model(spec)
    first = target.mixture(2, model.c, model.c_prime)
    second = first if target.hermitian else first.adjoint
    out = {}
    for l1, c1 in first.terms:
        for l2, c2 in second.terms:
            for power, coeff in full_trace_expect_detailed(Word(2, (l1, l2)), model).terms:
                out[power] = out.get(power, 0) + c1 * c2 * coeff
    return out


LAWS = ("complex_ginibre", "real_ginibre", "diluted:p=0.25")
# the exact moment is prod (N - r) / (2 N^3) over these r: (N+1)(N+2)(N+3)
# / (2N^3) for S1 and S3, and (N-1)(N-2)(N-3) / (2N^3) for S2, 0 for N < 2k
ROOTS = {Target.S1: (-1, -2, -3), Target.S2: (1, 2, 3), Target.S3: (-1, -2, -3)}


@pytest.mark.parametrize("spec", LAWS)
@pytest.mark.parametrize("target", list(Target))
def test_oracle_gives_the_closed_form_spectral_moment(target, spec):
    want = dict(zip((0, -1, -2, -3), np.poly(ROOTS[target]) / 2))
    got = exact_moment(target, spec)
    for power in set(want) | set(got):
        assert abs(got.get(power, 0) - want.get(power, 0)) <= 1e-12


@pytest.mark.parametrize("N", [5, 8])
@pytest.mark.parametrize("spec", LAWS)
@pytest.mark.parametrize("target", list(Target))
def test_monte_carlo_moment_is_within_3_se_of_the_exact_one(target, spec, N):
    n = 2 if target.hermitian else 1
    row = run_experiment(parse_model(spec), target, 2, N, 300, 2, seed=3)["moments"][n - 1]
    exact = sum(coeff * N**power for power, coeff in exact_moment(target, spec).items())
    assert abs(row["empirical"] - exact.real) <= 3 * row["stderr"]


def test_s2_matches_s1_statistics():
    moments1 = run_experiment(CG, Target.S1, 1, 12, 10, 2, seed=5)["moments"]
    moments2 = run_experiment(CG, Target.S2, 1, 12, 10, 2, seed=6)["moments"]
    for r1, r2 in zip(moments1, moments2):
        assert abs(r1["empirical"] - r2["empirical"]) <= 2 * (r1["stderr"] + r2["stderr"]) + 0.1


def test_zero_atom_visible_in_spectrum():
    B = block(CG, 16, 2, Target.S3, 7)
    eigs = padded(empirical_spectrum(B), 16**2)
    frac = np.mean(np.abs(eigs) <= 0.05)
    assert frac >= 0.4  # half the spectrum collapses at zero in the limit


def test_histogram_and_svg():
    rng = np.random.default_rng(8)
    hist = histogram(rng.standard_normal(500), 500)
    assert sum(hist["counts"]) == 500
    svg = histogram_svg(hist)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
