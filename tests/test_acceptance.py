"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS line when it
holds; any assertion failure marks the criterion as failed.  The suite runs
the exact identities at full precision, the convergence claims with constants
fitted at the smallest size, and the Monte Carlo claims at three standard
errors.
"""

import math

import numpy as np
import pytest

from references import (
    apply_perm_left,
    apply_perm_right,
    inj_trace_of_graph,
    set_partitions,
    trace_of_graph,
)
from tensorflat.characters import character_convolution_check
from tensorflat.group_algebra import AlgebraElement, max_coeff_diff
from tensorflat.moments import (
    Target,
    Word,
    plain_word,
    word_expectation,
    word_expectation_enumerated,
    word_phi,
)
from tensorflat.perms import Permutation, compose, coset_key, embed_join, group, tau
from tensorflat.spectra import (
    build_target,
    gram,
    orbit_maps,
    trace_power_moments,
)
from tensorflat.tensors import (
    TensorModel,
    choi_check,
    chunk_views,
    cond_expect_N,
    draw_halves,
    flatten,
    phi_N,
    sample_tensor,
    trial_rng,
    word_eval,
)
from tensorflat.traffic import (
    dependence_classes,
    full_trace_expect,
    inj_trace_expect,
    n_blocks,
    q_profile,
)

CG = TensorModel.complex_ginibre()


def report(capsys, line):
    with capsys.disabled():
        print(line)


def canonical(labels):
    uniq = {}
    return tuple(uniq.setdefault(b, len(uniq)) for b in labels)


def mc_gap_and_se(samples, exact):
    samples = np.asarray(samples)
    se = math.hypot(samples.real.std(ddof=1), samples.imag.std(ddof=1)) / math.sqrt(
        len(samples)
    )
    return abs(samples.mean() - exact), se


def _worst_share(gaps, bars):
    """Asserts every gap is within its bar; the largest gap as a share of
    its bar."""
    gaps, bars = np.asarray(gaps), np.asarray(bars)
    assert (gaps <= bars).all(), (gaps, bars)
    return float((gaps / bars).max())


def test_criterion_1_exact_identities(capsys):
    rng = np.random.default_rng(101)
    intertwining, bimodule = [], []
    for k in (1, 2):
        for N in (3, 4):
            sigmas = [
                group(2 * k)[rng.integers(math.factorial(2 * k))] for _ in range(10)
            ]
            t = sample_tensor(CG, N, k, 11 * k + N)
            for sigma in sigmas:
                M = flatten(t, sigma)
                for eta in group(k):
                    for eta2 in group(k):
                        twisted = flatten(t, compose(embed_join(eta, eta2), sigma))
                        moved = apply_perm_right(
                            apply_perm_left(eta, M), eta2.inverse()
                        )
                        intertwining.append(np.abs(moved - twisted).max())
                # transpose equals the half-swap twist, bit for bit
                assert np.array_equal(flatten(t, compose(tau(k), sigma)), M.T)
            # trace of a permutation operator counts its cycles exactly
            for eta in group(k):
                U = np.eye(N**k, dtype=complex)
                assert phi_N(apply_perm_left(eta, U)) == N ** (eta.cycle_count() - k)
            # two-sided module property of the conditional expectation
            side = N**k
            A = rng.standard_normal((side, side)) + 1j * rng.standard_normal(
                (side, side)
            )
            for eta in group(k):
                for eta2 in group(k):
                    lhs = cond_expect_N(
                        apply_perm_right(apply_perm_left(eta, A), eta2), k
                    )
                    rhs = (
                        AlgebraElement.basis(eta)
                        * cond_expect_N(A, k)
                        * AlgebraElement.basis(eta2)
                    )
                    bimodule.append(max_coeff_diff(lhs, rhs))
    worst = {
        "intertwining": _worst_share(intertwining, 1e-12),
        "bimodule": _worst_share(bimodule, 1e-12),
    }
    report(
        capsys,
        "[PASS] criterion 1: twist intertwining, permutation traces, "
        "bimodule property, transpose identity (k in {1,2}, N in {3,4}); "
        "worst gap as a share of its bar: "
        + ", ".join(f"{name} {share:.2g}" for name, share in worst.items()),
    )


def test_criterion_2_characters_and_cosets(capsys):
    for k in (1, 2, 3, 4):
        assert character_convolution_check(k)
    for k in (1, 2, 3):
        keys = {coset_key(s, "Skk") for s in group(2 * k)}
        tkeys = {coset_key(s, "SkkTau") for s in group(2 * k)}
        expected = math.factorial(2 * k) // math.factorial(k) ** 2
        assert len(keys) == expected
        assert len(tkeys) == expected // 2
    report(
        capsys,
        "[PASS] criterion 2: exact character convolution identity (k <= 4) "
        "and double-coset counts (k <= 3)",
    )


def test_criterion_3_covariance_convergence(capsys):
    k = 2
    pairs = [
        (s, s2, e2) for s in group(4) for s2 in group(4) for e2 in ("1", "*")
    ]
    words = [plain_word(k, [(sigma, "1"), (sigma2, eps2)]) for sigma, sigma2, eps2 in pairs]
    gaps, bars = [], []
    for word in words:
        limit = complex(word_phi(word, CG.c, CG.c_prime))
        gap4 = abs(full_trace_expect(word, 4, CG) - limit)
        C = 4 * gap4
        gaps.append(abs(full_trace_expect(word, 8, CG) - limit))
        bars.append(C / 8 + 1e-12)
    worst = {"C/N": _worst_share(gaps, bars)}
    # Monte Carlo cross-check on a spread of pairs at a larger size; the
    # trace of a two-letter product is phi_N(AB) = sum A * B^T / side, so the
    # product is never formed
    rng = np.random.default_rng(303)
    N, trials = 16, 200
    chosen = [words[rng.integers(len(words))] for _ in range(6)]
    samples = {i: [] for i in range(len(chosen))}
    for trial in range(trials):
        t = sample_tensor(CG, N, k, 31, trial)
        for i, word in enumerate(chosen):
            A, B = word_eval(t, word[:1]), word_eval(t, word[1:])
            samples[i].append(complex((A * B.T).sum()) / N**k)
    gaps, bars = [], []
    for i, word in enumerate(chosen):
        gap, se = mc_gap_and_se(samples[i], full_trace_expect(word, N, CG))
        gaps.append(gap)
        bars.append(3 * se + 1e-12)
    worst["3 SE"] = _worst_share(gaps, bars)
    report(
        capsys,
        "[PASS] criterion 3: pair-moment oracle within C/N of the limit "
        "(all 1152 pairs, k=2) and within 3 SE of Monte Carlo at N=16; "
        "worst gap as a share of its bar: "
        + ", ".join(f"{name} {share:.2f}" for name, share in worst.items()),
    )


def _random_plain_words(rng, count):
    shapes = [(1, 2), (1, 4), (1, 6), (1, 8), (2, 2), (2, 4)]
    words = []
    for _ in range(count):
        k, L = shapes[rng.integers(len(shapes))]
        words.append(
            plain_word(
                k,
                [
                    (
                        group(2 * k)[rng.integers(math.factorial(2 * k))],
                        "1" if rng.integers(2) else "*",
                    )
                    for _ in range(L)
                ],
            )
        )
    return words


def test_criterion_4_oracle_engine_simulation(capsys):
    rng = np.random.default_rng(404)
    words = _random_plain_words(rng, 20)
    # (a) the exact finite-size expectation matches simulation at N=5
    N, trials = 5, 500
    samples = {i: [] for i in range(len(words))}
    for trial in range(trials):
        tensors = {k: sample_tensor(CG, N, k, 41 + k, trial) for k in (1, 2)}
        for i, word in enumerate(words):
            samples[i].append(phi_N(word_eval(tensors[word.k], word)))
    gaps, bars = [], []
    for i, word in enumerate(words):
        gap, se = mc_gap_and_se(samples[i], full_trace_expect(word, N, CG))
        gaps.append(gap)
        bars.append(3 * se + 1e-12)
    worst = {"3 SE": _worst_share(gaps, bars)}
    # (b) the exact expectation approaches the limit at rate 1/N
    gaps, bars = [], []
    for word in words:
        limit = complex(word_phi(word, CG.c, CG.c_prime))
        at = {n: abs(full_trace_expect(word, n, CG) - limit) for n in (4, 6, 8)}
        C = 4 * at[4]
        gaps += [at[6], at[8]]
        bars += [C / 6 + 1e-12, C / 8 + 1e-12]
    worst["C/N"] = _worst_share(gaps, bars)
    # (c) the pairing recursion agrees with brute-force enumeration
    gaps = []
    for _ in range(20):
        word = _random_plain_words(rng, 1)[0]
        k = word.k
        etas = tuple(
            group(k)[rng.integers(math.factorial(k))] for _ in range(len(word))
        )
        w = Word(k, tuple(l.followed_by(eta) for l, eta in zip(word.letters, etas)))
        a = word_expectation(w, 1.0, 0.3 + 0.2j)
        b = word_expectation_enumerated(w, 1.0, 0.3 + 0.2j)
        gaps.append(max_coeff_diff(a, b))
    worst["1e-12"] = _worst_share(gaps, 1e-12)
    report(
        capsys,
        "[PASS] criterion 4: 20 random words - simulation within 3 SE, "
        "1/N convergence to the limit, recursion = enumeration to 1e-12; "
        "worst gap as a share of its bar: "
        + ", ".join(f"{name} {share:.2f}" for name, share in worst.items()),
    )


# Finite-size bias of the moment estimators decays like 1/N with constants
# large enough that raw values at N=32 sit 20-90% above their limits.  The
# three-point Richardson combination below removes the 1/N and 1/N^2 terms,
# leaving the 1/N^3 tail, which the measured trend puts well inside the
# stated tolerances.
_SIZES = ((16, 20), (32, 20), (64, 4))
_WEIGHTS = (1.0 / 3.0, -2.0, 8.0 / 3.0)


def _extrapolated_moments(model_fn, targets, seed):
    """{target: (value, se)} for each target, every target built from chunk
    views of the same draws of each (N, trial), drawn once."""
    rows = {target: [[] for _ in _SIZES] for target in targets}
    for size, (N, trials) in enumerate(_SIZES):
        model = model_fn(N)
        draws = np.empty(2 * N**4)  # complex and diluted laws
        step = orbit_maps(N, 2, False).step
        for trial in range(trials):
            draw_halves(model, N**4, trial_rng(seed, trial), draws)
            for target in targets:
                B = build_target(chunk_views(draws, N**2, step), target, model, N, 2)
                base = B if target.hermitian else gram(B)
                moments = trace_power_moments(base, 4, N**2)
                rows[target][size].append([m.real for m in moments])
    out = {}
    for target, per_size in rows.items():
        per_size = [np.array(r) for r in per_size]
        means = [r.mean(axis=0) for r in per_size]
        ses = [r.std(axis=0, ddof=1) / math.sqrt(len(r)) for r in per_size]
        value = sum(w * m for w, m in zip(_WEIGHTS, means))
        out[target] = value, np.sqrt(sum((w * s) ** 2 for w, s in zip(_WEIGHTS, ses)))
    return out


def test_criterion_5_limiting_spectral_moments(capsys):
    k, n_max = 2, 4
    targets_sq = np.array(Target.S1.predicted_moments(k, n_max))
    herm = np.array(Target.S3.predicted_moments(k, n_max))
    cg = lambda N: CG  # noqa: E731
    dil = lambda N: TensorModel.diluted(1.0 / N)  # noqa: E731
    worst = {}
    drawn = _extrapolated_moments(cg, tuple(Target), 51)
    for target in (Target.S1, Target.S2):
        value, _ = drawn[target]
        worst[target.name] = _worst_share(abs(value - targets_sq), 0.10 * targets_sq)
    value, se = drawn[Target.S3]
    bars = np.where(herm != 0, 0.10 * herm, 3 * se + 1e-2)
    worst["S3"] = _worst_share(abs(value - herm), bars)
    value, _ = _extrapolated_moments(dil, (Target.S1,), 52)[Target.S1]
    worst["diluted S1"] = _worst_share(abs(value - targets_sq), 0.15 * targets_sq)
    report(
        capsys,
        "[PASS] criterion 5: size-extrapolated moments at k=2 (20 trials at "
        "N=32) match the predictions for all three sums and the diluted model; "
        "worst gap as a share of its bar: "
        + ", ".join(f"{name} {share:.2f}" for name, share in worst.items()),
    )


def test_criterion_6_graph_combinatorics(capsys):
    rng = np.random.default_rng(606)
    gaps, bars = [], []
    # partition decomposition of the trace is exact on fixed tensors
    for k, L, N in ((1, 8, 3), (2, 4, 2), (2, 2, 3), (1, 6, 2)):
        word = plain_word(k, [
            (
                group(2 * k)[rng.integers(math.factorial(2 * k))],
                "1" if rng.integers(2) else "*",
            )
            for _ in range(L)
        ])
        t = sample_tensor(CG, N, k, 61 + k * L)
        direct = trace_of_graph(word, t)
        total = sum(inj_trace_of_graph(word, lab, t) for lab in set_partitions(k * L))
        gaps.append(abs(direct - total))
        bars.append(1e-10 * max(1.0, abs(direct)))
        # the exponent profile never increases along the word, exhaustively
        for lab in set_partitions(k * L):
            seq, final = q_profile(word, lab)
            assert all(a >= b for a, b in zip(seq, seq[1:]))
            assert final <= 0
    worst = _worst_share(gaps, bars)
    # closed-form value of the glued four-letter example
    k = 3
    g = group(6)
    s_a, s_b = g[123], g[45]
    word = plain_word(k, [(s_a, "1"), (s_b, "1"), (s_b, "*"), (s_a, "*")])
    lab = list(range(12))
    for r in range(3):
        lab[9 + r] = 3 + r
    lab = canonical(lab)
    value = inj_trace_expect(word, lab, 10, CG)
    assert value == pytest.approx(0.0036288, abs=1e-15)
    # twisted six-letter example resolves into exactly three matched classes
    eta1 = Permutation.from_cycles(3, [(1, 2)])
    eta2 = Permutation.from_cycles(3, [(1, 3, 2)])
    ident = Permutation.identity(3)
    s4, s5, s6 = (g[rng.integers(720)] for _ in range(3))
    s3 = embed_join(eta1.inverse(), ident) * s4
    s2 = embed_join(eta2.inverse(), eta1.inverse()) * s5
    s1 = embed_join(ident, eta2.inverse()) * s6
    word = plain_word(k, [(s1, "1"), (s2, "1"), (s3, "1"), (s4, "*"), (s5, "*"), (s6, "*")])
    lab = list(range(18))
    for i in (1, 2, 3):
        lab[12 + eta1(i) - 1] = 6 + i - 1
        lab[15 + eta2(i) - 1] = 3 + i - 1
    lab = canonical(lab)
    assert n_blocks(lab) == 12
    assert sorted(dependence_classes(word, lab)) == [(1, 1)] * 3
    report(
        capsys,
        "[PASS] criterion 6: exact trace decomposition, monotone exponent "
        "profiles, glued-example value 0.0036288, twisted three-class split; "
        f"worst decomposition gap as a share of its bar: {worst:.2g}",
    )


def test_criterion_7_choi_positivity(capsys):
    k = 2
    negativity, defects = [], []
    for N in (2, 3):
        min_eig, defect = choi_check(N, k)
        assert min_eig >= -1e-10
        assert defect <= 1e-10
        negativity.append(max(0.0, -min_eig))
        defects.append(defect)
    worst = {"min eig": max(negativity) / 1e-10, "defect": max(defects) / 1e-10}
    report(
        capsys,
        "[PASS] criterion 7: projection certificate positive with "
        "idempotency defect below 1e-10 (k=2, N in {2,3}); "
        "worst gap as a share of its bar: "
        + ", ".join(f"{name} {share:.2g}" for name, share in worst.items()),
    )
