import json
import math

import numpy as np
import pytest

from tensorflat.moments import all_sigma_mixture, hermitized_mixture
from tensorflat.perms import group
from tensorflat.spectra import (
    build_target,
    compressed_moments,
    compressed_spectrum,
    empirical_spectrum,
    histogram,
    histogram_svg,
    run_experiment,
    symmetry_basis,
    trace_power_moments,
)
from tensorflat.tensors import (
    TensorModel,
    flatten,
    perm_matrix,
    sample_tensor,
)

CG = TensorModel.complex_ginibre()


# --- dense references for the fast path -------------------------------------


def dense_target(t, which, model):
    """The target's library Mixture, evaluated one flattening at a time."""
    if which == "S3":
        mixture = hermitized_mixture(t.k, model.c, model.c_prime)
    else:
        mixture = all_sigma_mixture(t.k, model.c, signed=which == "S2")
    total = np.zeros((t.N**t.k, t.N**t.k), dtype=complex)
    for letter, coeff in mixture.terms:
        m = flatten(t, letter.sigma).data
        total += coeff * (m if letter.eps == "1" else m.conj().T)
    return total


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
    for k, sizes in ((1, (1, 4, 16)), (2, (2, 5, 16)), (3, (2, 4, 6)))
    for N in sizes
    for which in ("S1", "S2", "S3")
    for index in range(3)
    # S2 antisymmetrizes all 2k axes, so it vanishes for N < 2k and only
    # rounding noise is left to compare
    if not (which == "S2" and N < 2 * k)
]


@pytest.mark.parametrize("which, k, N, index", FAST_CASES)
def test_fast_path_matches_dense(which, k, N, index):
    model = _models(N)[index]
    herm = which == "S3"
    t = sample_tensor(model, N, k, 17, index)
    A = build_target(t, which, model)
    dense = dense_target(t, which, model)
    assert np.abs(A.data - dense).max() <= 1e-10 * np.abs(dense).max()
    eigs = dense_spectrum(dense, herm)
    spec = compressed_spectrum(A, which)
    assert spec.shape == (N**k,)
    assert np.abs(spec - eigs).max() <= 1e-10 * np.abs(eigs).max()
    n_max = 12
    # moment n is pinned relative to the mean of |eigenvalue|^n
    scales = [np.mean(np.abs(eigs) ** n) for n in range(1, n_max + 1)]
    for moms in (compressed_moments(A, which, n_max), trace_power_moments(dense, herm, n_max)):
        for got, want, scale in zip(moms, dense_moments(dense, herm, n_max), scales):
            assert abs(got - want) <= 1e-10 * scale


def test_symmetry_basis_dimensions():
    for N, k in ((40, 2), (64, 2), (6, 3), (2, 3)):
        index, weight = symmetry_basis(N, k, False)
        assert index.size == math.comb(N + k - 1, k)
        assert (weight**2).sum() == pytest.approx(N**k)
        index, weight = symmetry_basis(N, k, True)
        assert index.size == math.comb(N, k)
        assert (weight**2).sum() == pytest.approx(math.factorial(k) * math.comb(N, k))
    assert symmetry_basis(40, 2, False)[0].size == 820
    assert symmetry_basis(64, 2, False)[0].size == 2080


@pytest.mark.parametrize("k, N", [(2, 1), (3, 2)])
def test_empty_exterior_power(k, N):
    # Lambda^k of C^N is empty for N < k: S2 vanishes identically
    t = sample_tensor(CG, N, k, 9)
    A = build_target(t, "S2", CG)
    assert not A.data.any()
    assert compressed_moments(A, "S2", 4) == [0, 0, 0, 0]
    assert not compressed_spectrum(A, "S2").any()
    report = run_experiment(CG, "S2", k, N, 1, 4, seed=9, with_hist=True)
    assert [row[1] for row in report.rows] == [0.0] * 4
    assert report.hist["zero_mass"] == N**k
    assert report.counters == {"side": N**k, "compressed_side": 0, "matmuls": 0}


def test_empty_matrix():
    empty = np.zeros((0, 0), dtype=complex)
    for hermitian in (False, True):
        assert empirical_spectrum(empty, hermitian).shape == (0,)
        with pytest.raises(ValueError, match="empty 0x0"):
            trace_power_moments(empty, hermitian, 2)


def test_hermitian_target_is_hermitian():
    t = sample_tensor(CG, 4, 2, 0)
    A = build_target(t, "S3", CG)
    assert np.abs(A.data - A.data.conj().T).max() == 0


def test_target_invariant_under_permutation_operators():
    t = sample_tensor(CG, 3, 2, 1)
    A = build_target(t, "S1", CG).data
    for eta in group(2):
        for eta2 in group(2):
            U = perm_matrix(eta, 3).data
            U2 = perm_matrix(eta2, 3).data
            assert np.abs(U @ A @ U2.conj().T - A).max() <= 1e-12


def test_trace_power_moments_basics():
    eye = np.eye(3, dtype=complex)
    assert trace_power_moments(eye, True, 3) == [1, 1, 1]
    zero = np.zeros((3, 3), dtype=complex)
    assert trace_power_moments(zero, False, 3) == [0, 0, 0]


def test_first_moment_is_frobenius_norm():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m1 = trace_power_moments(data, False, 1)[0]
    assert abs(m1 - (np.abs(data) ** 2).sum() / 9) <= 1e-12


def test_moment_spectrum_consistency():
    t = sample_tensor(CG, 3, 2, 3)
    for which, herm in (("S1", False), ("S3", True)):
        A = build_target(t, which, CG)
        eigs = empirical_spectrum(A.data, herm)
        moms = trace_power_moments(A.data, herm, 4)
        for n in range(1, 5):
            assert abs((eigs**n).sum() / A.side - moms[n - 1]) <= 1e-8


def test_empirical_spectrum_diag():
    diag = np.diag([5.0, 3, 1, 4, 2]).astype(complex)
    assert np.allclose(empirical_spectrum(diag, True), [1, 2, 3, 4, 5])
    nonh = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        empirical_spectrum(nonh, True)


def test_normalization_invariance():
    # scaling the base law and dividing by the declared variance must give
    # identical moments for the same seed
    base = TensorModel.diluted(1.0)
    scaled = TensorModel.diluted(1.0, base_scale=3.0)
    assert scaled.c == pytest.approx(9.0)
    for trial in range(2):
        t1 = sample_tensor(base, 3, 1, 13, trial)
        t2 = sample_tensor(scaled, 3, 1, 13, trial)
        m1 = trace_power_moments(build_target(t1, "S1", base).data, False, 3)
        m2 = trace_power_moments(build_target(t2, "S1", scaled).data, False, 3)
        assert np.allclose(m1, m2, atol=1e-10)


def test_run_experiment_small():
    report = run_experiment(CG, "S1", 1, 16, 8, 3, seed=4, with_hist=True)
    assert len(report.rows) == 3
    # pure square case: first moment close to 1
    n, emp, se, pred = report.rows[0]
    assert pred == 1.0
    assert abs(emp - 1.0) <= max(5 * se, 0.2)
    payload = json.loads(report.to_json())
    assert payload["N"] == 16 and payload["seed"] == 4
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "n,predicted,empirical,stderr"
    assert report.hist["zero_mass"] >= 0


def test_s2_matches_s1_statistics():
    moments1 = run_experiment(CG, "S1", 1, 12, 10, 2, seed=5).rows
    moments2 = run_experiment(CG, "S2", 1, 12, 10, 2, seed=6).rows
    for (n1, e1, s1, _), (n2, e2, s2, _) in zip(moments1, moments2):
        assert abs(e1 - e2) <= 2 * (s1 + s2) + 0.1


def test_zero_atom_visible_in_spectrum():
    t = sample_tensor(CG, 16, 2, 7)
    eigs = empirical_spectrum(build_target(t, "S3", CG).data, True)
    frac = np.mean(np.abs(eigs) <= 0.05)
    assert frac >= 0.4  # half the spectrum collapses at zero in the limit


def test_histogram_and_svg():
    rng = np.random.default_rng(8)
    hist = histogram(rng.standard_normal(500), 500)
    assert sum(hist["counts"]) == 500
    svg = histogram_svg(hist)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
