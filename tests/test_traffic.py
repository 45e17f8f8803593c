import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import entry_cumulants_per_N, inj_trace_of_graph, set_partitions, trace_of_graph
from test_moments import paired_word
from tensorflat.group_algebra import max_coeff_diff
from tensorflat.moments import Letter, Word, plain_word, word_expectation, word_phi
from tensorflat.perms import Permutation, compose, embed_join, group, tau
from tensorflat.tensors import (
    TensorModel,
    cond_expect_N,
    flatten,
    perm_matrix,
    phi_N,
    sample_tensor,
    word_eval,
)
from tensorflat.traffic import (
    MAX_LETTERS,
    dependence_classes,
    full_trace_expect,
    full_trace_expect_detailed,
    inj_trace_expect,
    n_blocks,
    q_profile,
    strip_entries,
    word_cond_expect_exact,
)

CG = TensorModel.complex_ginibre()
RG = TensorModel.real_ginibre()


def shifted_real_base_moments(a=0.6 + 0.3j, s=0.8, max_order=12):
    """E[y^m conj(y)^n] of y = a + s g with g standard real Gaussian: a base
    that is neither centred nor circular (E y = a, E y^2 = a^2 + s^2)."""

    def gauss(r):
        return s**r * math.prod(range(r - 1, 0, -2)) if r % 2 == 0 else 0.0

    return {
        (m, n): sum(
            math.comb(m, i) * math.comb(n, j) * a ** (m - i) * a.conjugate() ** (n - j)
            * gauss(i + j)
            for i in range(m + 1) for j in range(n + 1)
        )
        for m in range(max_order + 1) for n in range(max_order + 1 - m) if m + n
    }


def cube_root_base_moments(max_order=12):
    """E[y^m conj(y)^n] of y uniform on the three cube roots of unity: 1 when
    3 divides m - n, else 0.  The diluted law on it is centred, and its joint
    cumulants vanish unless 3 divides m - n, so its support is sparse and
    neither balanced nor even: three plain letters can make a block."""
    return {
        (m, n): float((m - n) % 3 == 0)
        for m in range(max_order + 1) for n in range(max_order + 1 - m) if m + n
    }


def roots_base_moments(s=0.5, max_order=12):
    """E[y^m conj(y)^n] of y = u + s v, with u uniform on the cube roots of
    unity and v on the fifth roots, independent: E y = E y^2 = E y^4 = 0 and
    E y^3, E y^5 != 0.  Every value is a dyadic rational, so the cumulant
    recursion over them is exact."""

    def roots(order, i, j):
        return float((i - j) % order == 0)

    return {
        (m, n): sum(
            math.comb(m, i) * math.comb(n, j) * roots(3, i, j)
            * s ** (m - i + n - j) * roots(5, m - i, n - j)
            for i in range(m + 1) for j in range(n + 1)
        )
        for m in range(max_order + 1) for n in range(max_order + 1 - m) if m + n
    }


def models(N):
    """complex, real, diluted at p = 1/N, a diluted law whose base is
    neither centred nor circular, so every mixed cumulant is in play, and
    two diluted laws with sparse cumulant supports: that of
    cube_root_base_moments, and that of roots_base_moments, under which a
    block can leave letters that no blocks cover."""
    return {
        "complex": CG,
        "real": RG,
        "diluted": TensorModel.diluted(1 / N),
        "diluted-shifted": TensorModel.diluted(0.3, base_moments=shifted_real_base_moments()),
        "diluted-sparse": TensorModel.diluted(0.4, base_moments=cube_root_base_moments()),
        "diluted-roots": TensorModel.diluted(0.5, base_moments=roots_base_moments()),
    }


def vertex_partition_reference(w, N, model):
    """The expected trace as the sum of the injective traces of all
    Bell(kL) vertex-partition quotients."""
    return sum(inj_trace_expect(w, lab, N, model) for lab in set_partitions(w.k * len(w)))


def assert_pinned(value, ref):
    assert abs(value - ref) <= 1e-12 * abs(ref), (value, ref)


def bell(n):
    row = [1]
    for _ in range(n - 1):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
    return row[-1]


def canonical(labels):
    uniq = {}
    return tuple(uniq.setdefault(b, len(uniq)) for b in labels)


def random_plain_word(rng, k, L):
    return plain_word(k, [
        (
            group(2 * k)[rng.integers(math.factorial(2 * k))],
            "1" if rng.integers(2) else "*",
        )
        for _ in range(L)
    ])


def test_strip_entries():
    # vertex (row r, column c) has id (c-1)k + (r-1); letter l reads its
    # rows in column l and its columns in column l+1, cyclically
    k = 3
    ident = Permutation.identity(6)
    assert strip_entries(plain_word(k, [(ident, "1")] * 4)) == [
        (0, 1, 2, 3, 4, 5), (3, 4, 5, 6, 7, 8), (6, 7, 8, 9, 10, 11), (9, 10, 11, 0, 1, 2)
    ]
    # coordinate p reads place sigma(p) of the rows (0, 1), then the columns
    # (2, 3); an adjoint letter swaps them first, to (2, 3, 0, 1)
    sigma = Permutation([2, 4, 1, 3])
    assert strip_entries(plain_word(2, [(sigma, "1")] * 2))[0] == (1, 3, 0, 2)
    assert strip_entries(plain_word(2, [(sigma, "*")] * 2))[0] == (3, 1, 2, 0)
    # one letter at k = 1: its row and its column are the same vertex
    assert strip_entries(plain_word(1, [(group(2)[0], "1")])) == [(0, 0)]
    with pytest.raises(ValueError, match="at least one letter"):
        strip_entries(plain_word(1, []))


def test_set_partitions_counts():
    for n, count in ((1, 1), (3, 5), (5, 52), (8, 4140)):
        parts = list(set_partitions(n))
        assert len(parts) == count == bell(n)
        assert len(set(parts)) == count


def test_singleton_partition_two_letter_value():
    # all vertices distinct: (1/N) * N(N-1) * E|entry|^2 = (N-1)/N
    k, N = 1, 4
    sigma = group(2)[0]
    w = plain_word(k, [(sigma, "1"), (sigma, "*")])
    assert inj_trace_expect(w, (0, 1), N, CG) == pytest.approx(0.75)
    # the merged labeling carries the rest of the full trace
    assert inj_trace_expect(w, (0, 0), N, CG) == pytest.approx(0.25)


def test_full_trace_unit_word():
    for k in (1, 2):
        sigma = Permutation.identity(2 * k)
        for N in (2, 3, 5):
            val = full_trace_expect(plain_word(k, [(sigma, "1"), (sigma, "*")]), N, CG)
            assert val == pytest.approx(1.0, abs=1e-13)


def test_odd_words_vanish():
    k = 1
    sigma = group(2)[1]
    assert full_trace_expect(plain_word(k, [(sigma, "1")] * 3), 4, CG) == 0


def test_worked_example_four_letter_quotient():
    # quotient merging outputs of the second edge with inputs of the third;
    # both letter pairs matched with one adjoint each
    k = 3
    g = group(6)
    s_a, s_b = g[123], g[45]
    word = plain_word(k, [(s_a, "1"), (s_b, "1"), (s_b, "*"), (s_a, "*")])
    lab = list(range(12))
    for r in range(3):
        lab[9 + r] = 3 + r
    lab = canonical(lab)
    assert sorted(dependence_classes(word, lab)) == [(1, 1), (1, 1)]
    assert inj_trace_expect(word, lab, 10, CG) == pytest.approx(0.0036288, abs=1e-15)
    seq, final = q_profile(word, lab)
    assert final == 0
    # breaking the middle letter match leaves two unmatched singletons
    word2 = plain_word(k, [(s_a, "1"), (s_b, "1"), (g[44], "*"), (s_a, "*")])
    assert sorted(dependence_classes(word2, lab)) == [(0, 1), (1, 0), (1, 1)]
    assert inj_trace_expect(word2, lab, 10, CG) == 0


def test_worked_example_twisted_six_letter_quotient():
    # the six-letter strip whose middle and outer columns are glued with two
    # nontrivial twists; the three letter pairs must compensate the twists
    k = 3
    eta1 = Permutation.from_cycles(3, [(1, 2)])
    eta2 = Permutation.from_cycles(3, [(1, 3, 2)])
    ident = Permutation.identity(3)
    rng = np.random.default_rng(0)
    g = group(6)
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
    # perturbing one letter destroys the three-class structure
    bad = word.letters[:2] + (Letter(s4, "*"),) + word.letters[3:]
    if s3 != s4:
        assert len(dependence_classes(Word(k, bad), lab)) > 3


@pytest.mark.parametrize("k,L,N", [(1, 4, 3), (1, 4, 2), (2, 2, 2), (1, 6, 2)])
def test_trace_decomposition_fixed_tensor(k, L, N, seed=3):
    rng = np.random.default_rng(seed)
    word = random_plain_word(rng, k, L)
    t = sample_tensor(CG, N, k, seed)
    direct = trace_of_graph(word, t)
    total = sum(inj_trace_of_graph(word, lab, t) for lab in set_partitions(k * L))
    assert abs(direct - total) <= 1e-10 * max(1.0, abs(direct))
    via_product = phi_N(word_eval(t, word))
    assert abs(direct - via_product) <= 1e-10 * max(1.0, abs(direct))


@pytest.mark.parametrize(
    "k,N,L",
    [(1, 2, 1), (1, 3, 4), (2, 1, 2), (2, 2, 1), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 1),
     (3, 3, 2)],
)
def test_folding_matches_the_product_with_permutation_operators(k, N, L):
    # on a fixed tensor, the word whose letters (sigma, eps) are each
    # followed by u_eta is the product of the flattenings (or their
    # adjoints) with the dense permutation operators, formed here from the
    # raw triples; its strip has the trace of that product, and the strip of
    # the word twisted by h the coefficient of u_h
    rng = np.random.default_rng(100 * k + 10 * N + L)
    perms = group(k)
    moving = perms[1:] or perms  # S_1 has the identity only
    for first in "1*":
        letters = random_plain_word(rng, k, L).letters
        triples = [(l.sigma, l.eps, moving[rng.integers(len(moving))]) for l in letters]
        triples[0] = (triples[0][0], first, triples[0][2])
        w = Word(k, tuple(Letter(s, e).followed_by(eta) for s, e, eta in triples))
        t = sample_tensor(CG, N, k, int(rng.integers(2**16)))
        product = np.eye(N**k, dtype=complex)
        for sigma, eps, eta in triples:
            m = flatten(t, sigma)
            product = product @ (m if eps == "1" else m.conj().T) @ perm_matrix(eta, N)
        scale = np.abs(product).max()
        assert np.abs(word_eval(t, w) - product).max() <= 1e-12 * scale
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # N < k: coefficients are not unique
            projection = cond_expect_N(product, k)
        refs = {h: trace_of_graph(w.twisted(h), t) for h in perms}
        scale = max(abs(ref) for ref in refs.values())
        direct = trace_of_graph(w, t)
        assert abs(phi_N(product) - direct) <= 1e-10 * scale
        for h, ref in refs.items():
            assert abs(projection.coeff(h) - ref) <= 1e-10 * scale


def test_full_trace_matches_monte_carlo():
    k, N, trials = 1, 4, 400
    rng = np.random.default_rng(5)
    word = random_plain_word(rng, k, 4)
    exact = full_trace_expect(word, N, CG)
    samples = []
    for trial in range(trials):
        t = sample_tensor(CG, N, k, 17, trial)
        samples.append(phi_N(word_eval(t, word)))
    samples = np.array(samples)
    se = math.hypot(
        samples.real.std(ddof=1), samples.imag.std(ddof=1)
    ) / math.sqrt(trials)
    assert abs(samples.mean() - exact) <= 3 * se + 1e-12


def test_oracle_converges_to_limit_moments():
    k = 1
    sigma = group(2)[0]
    w = plain_word(k, [(sigma, "1"), (sigma, "*")] * 2)
    limit = word_expectation(w, 1.0, 0.0).phi()
    gaps = []
    for N in (4, 6, 8):
        gaps.append(abs(full_trace_expect(w, N, CG) - limit))
    C = gaps[0] * 4
    assert gaps[1] <= C / 6 + 1e-12
    assert gaps[2] <= C / 8 + 1e-12


def test_word_cond_expect_exact_matches_limit_direction():
    k = 2
    rng = np.random.default_rng(6)
    letters = tuple(
        Letter(group(4)[rng.integers(24)], e) for e in ("1", "*")
    )
    w = Word(k, (letters[0].followed_by(group(2)[1]), letters[1]))
    limit = word_expectation(w, 1.0, 0.0)
    gap_small = max_coeff_diff(word_cond_expect_exact(w, 4, CG), limit)
    gap_large = max_coeff_diff(word_cond_expect_exact(w, 8, CG), limit)
    assert gap_large <= gap_small / 1.5 + 1e-12


def test_real_ginibre_transpose_pairing():
    # a letter against its transpose letter carries weight one exactly
    k = 2
    sigma = group(4)[5]
    word = plain_word(k, [(sigma, "1"), (compose(tau(k), sigma), "1")])
    val = full_trace_expect(word, 6, TensorModel.real_ginibre())
    assert val == pytest.approx(1.0, abs=1e-12)


def test_q_profile_monotone_random():
    rng = np.random.default_rng(7)
    for k, L in ((1, 6), (2, 3)):
        w = random_plain_word(rng, k, L)
        for _ in range(200):
            lab = canonical(rng.integers(0, k * L, k * L))
            seq, final = q_profile(w, lab)
            assert all(a >= b for a, b in zip(seq, seq[1:]))
            assert seq[0] <= 0 and final <= 0


def test_final_q_bounds_contribution_order():
    # the exponent read off each nonzero contribution between two sizes must
    # stay below the combinatorial bound, and the bound is attained at zero
    k = 1
    sigma = group(2)[1]
    w = plain_word(k, [(sigma, "1"), (sigma, "*")] * 3)
    n1, n2 = 20, 40
    attained = 0
    for lab in set_partitions(k * len(w)):
        _, final = q_profile(w, lab)
        v1 = inj_trace_expect(w, lab, n1, CG)
        v2 = inj_trace_expect(w, lab, n2, CG)
        if v1 == 0 or v2 == 0:
            continue
        est = math.log(abs(v2 / v1)) / math.log(n2 / n1)
        # integer gaps between exponents leave plenty of room for the
        # finite-size drift of the falling factorials
        assert est <= final + 0.5
        # balanced conjugation count in every class, else the mean vanishes
        assert all(m == n for m, n in dependence_classes(w, lab))
        if final == 0 and est > -0.2:
            attained += 1
    assert attained > 0


def test_detailed_counts():
    # complex Ginibre pairs a plain letter with an adjoint one: the letter
    # partition {0, 1} is summed, and the candidate singleton {0} is pruned
    # for its zero cumulant kappa[1, 0]
    k = 1
    sigma = group(2)[0]
    polynomial = full_trace_expect_detailed(plain_word(k, [(sigma, "1"), (sigma, "*")]), CG)
    assert (polynomial.count, polynomial.pruned) == (1, 1)
    assert polynomial.at(4) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "model, terms",
    [
        # the 5 non-crossing pairings give the limit Catalan(3); the one
        # crossing plain/adjoint pairing of complex Ginibre loses two
        # components
        (CG, ((0, 5), (-2, 1))),
        # the real law pairs any two letters: 15 perfect matchings
        (RG, ((0, 5), (-1, 6), (-2, 4))),
    ],
    ids=["complex", "real"],
)
def test_polynomial_of_three_alternating_pairs(model, terms):
    # the k = 1 word (m_tau m_tau^*)^3, tau the transpose flattening
    word = plain_word(1, [(Permutation([2, 1]), e) for e in "1*1*1*"])
    polynomial = full_trace_expect_detailed(word, model)
    assert polynomial.terms == terms
    assert polynomial.to_json() == [[power, coeff, 0] for power, coeff in terms]
    assert polynomial.count == sum(coeff for _, coeff in terms)
    for N in (1, 2, 5):
        assert polynomial.at(N) == sum(coeff * N**power for power, coeff in terms)


def test_polynomial_of_a_paired_word_starts_at_its_limit():
    # no power of N is positive, and the N^0 coefficient is the limit:
    # exactly, in int mode, for the Gaussian laws, whose coefficients count
    # partitions, and to rounding for the diluted laws, the shifted one with
    # every mixed cumulant in play
    rng = random.Random(26)
    laws = [(CG, 1, 0), (RG, 1, 1)] + [
        (model, model.c, model.c_prime)
        for model in (TensorModel.diluted(0.3), models(3)["diluted-shifted"])
    ]
    worst = 0.0
    for _ in range(150):
        k, L = rng.randint(1, 3), rng.choice((2, 4, 6, 8))
        word = paired_word(rng, k, L, same_eps=rng.random() < 0.5)
        for model, c, cp in laws:
            terms = dict(full_trace_expect_detailed(word, model).terms)
            assert all(power <= 0 for power in terms), terms
            limit = word_phi(word, c, cp)
            if model.kind == "diluted":
                worst = max(worst, abs(terms.get(0, 0) - limit) / max(1.0, abs(limit)))
            else:
                assert terms.get(0, 0) == limit, (word.to_json(), terms, limit)
    assert worst <= 1e-12


@pytest.mark.parametrize(
    "name,count",
    [
        ("complex", 6),  # plain/adjoint pairings, 3!
        ("real", 15),  # perfect matchings of 6
        ("diluted", 16),  # circular and centred: blocks with as many * as 1
        ("diluted-shifted", 41),  # centred only: no singletons
    ],
)
def test_letter_partitions_summed_per_model(name, count):
    word = plain_word(1, [(group(2)[0], e) for e in "1*1*1*"])
    assert full_trace_expect_detailed(word, models(3)[name]).count == count


def test_guard():
    word = plain_word(2, [(group(4)[0], "1")] * (MAX_LETTERS + 1))
    with pytest.raises(ValueError) as error:
        full_trace_expect(word, 3, CG)
    assert str(error.value) == f"oracle letters L = {MAX_LETTERS + 1} exceeds the guard of 12"


@pytest.mark.parametrize("name", ["complex", "real", "diluted-shifted"])
def test_word_past_the_vertex_partition_reach(name):
    # the identity flattening of a k=2 tensor at size 2 is a 4 x 4 matrix
    # with the entry law of a k=1 tensor at size 4, so this k=2, L=8 word
    # (kL = 16, Bell(16) vertex partitions) equals a k=1 word the reference
    # can sum
    model = models(3)[name]
    eps = "1**11*1*"
    word = plain_word(2, [(Permutation.identity(4), e) for e in eps])
    value = full_trace_expect(word, 2, model)
    k1_word = plain_word(1, [(Permutation.identity(2), e) for e in eps])
    ref = vertex_partition_reference(k1_word, 4, model)
    assert value != 0
    assert_pinned(value, ref)


def balanced_word(rng, k, L, twisted):
    """L random letters, half of them adjoint; when twisted, random
    interleaved permutations, the last one twisted by a random coefficient
    eta."""
    eps = ["1", "*"] * (L // 2) + ["1"] * (L % 2)
    rng.shuffle(eps)
    letters = tuple(Letter(group(2 * k)[rng.integers(math.factorial(2 * k))], e) for e in eps)
    if not twisted:
        return plain_word(k, [(l.sigma, l.eps) for l in letters])
    perms = group(k)
    etas = tuple(perms[rng.integers(len(perms))] for _ in range(L))
    w = Word(k, tuple(l.followed_by(eta) for l, eta in zip(letters, etas)))
    return w.twisted(perms[rng.integers(len(perms))])


# an odd word vanishes for every law but the shifted diluted one, whose
# cumulants need not balance plain and adjoint letters
PINNED = [
    # N at least kL: every vertex partition has an injective labeling
    (1, 4, 5), (1, 6, 7), (1, 8, 9), (2, 2, 5), (2, 3, 7), (2, 4, 9), (3, 2, 7),
    # N below kL
    (1, 6, 2), (1, 8, 3), (1, 10, 3), (2, 3, 1), (2, 3, 2), (2, 4, 3), (2, 5, 3),
    (3, 2, 2), (3, 3, 4),
]


@pytest.mark.parametrize(
    "k,L,N,twisted", [case + (t,) for case in PINNED for t in (False, True) if t <= (case[0] > 1)]
)
def test_letter_partitions_match_vertex_partitions(k, L, N, twisted):
    rng = np.random.default_rng(100 * k + 10 * L + N + twisted)
    word = balanced_word(rng, k, L, twisted)
    for model in models(N).values():
        value = full_trace_expect(word, N, model)
        assert_pinned(value, vertex_partition_reference(word, N, model))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 2),
    letters=st.lists(
        st.tuples(st.integers(0, 23), st.sampled_from("1*")), min_size=1, max_size=4
    ),
    plain_only=st.booleans(),
    N=st.integers(1, 5),
    name=st.sampled_from(list(models(1))),
)
def test_letter_partitions_match_vertex_partitions_property(k, letters, plain_only, N, name):
    # plain_only draws the most unbalanced words, which the sparse law keeps
    # when 3 divides their length; the walk skips every block that leaves a
    # single letter under the shifted law, and two plain letters under the
    # roots law
    perms = group(2 * k)
    word = plain_word(k, [(perms[i % len(perms)], "1" if plain_only else e) for i, e in letters])
    model = models(N)[name]
    assert_pinned(full_trace_expect(word, N, model), vertex_partition_reference(word, N, model))


def cumulants_at(model, order, N, k):
    """The joint cumulants kappa[m, n] at size N that the walk's polynomial
    stands for: the law's N-free table K[m, n] times N^(-k (m + n) / 2)."""
    K = model.cumulant_table(order).K
    return {key: value * float(N) ** (-k * sum(key) / 2) for key, value in K.items()}


def test_gaussian_cumulants_closed_form():
    N, k = 4, 2
    for model, support in ((CG, {(1, 1)}), (RG, {(2, 0), (1, 1), (0, 2)})):
        kappa = cumulants_at(model, 8, N, k)
        assert set(kappa) == {(m, n) for m in range(9) for n in range(9) if 1 <= m + n <= 8}
        assert {key for key, value in kappa.items() if value != 0} == support
        assert all(kappa[key] == N**-k for key in support)
        # the one recursion over the integer moments gives the closed form
        # exactly, as floats, up to the oracle's order
        keys = [(m, n) for m in range(13) for n in range(13) if 1 <= m + n <= 12]
        K = model.cumulant_table(12).K
        assert dict(K) == {key: 1.0 if key in support else 0.0 for key in keys}
        assert all(type(value) is float for value in K.values())


def test_second_cumulants_are_c_and_c_prime_exactly():
    # c = N^k E|x|^2 and c' = N^k E x^2 in closed form: 1 and 0 (1 for the
    # real law), and E|y|^2 = 1 and E y^2 = 0 for the diluted law of a
    # standard Gaussian base, at every p; the spectral scales read c and c'
    # off K, so the table must not round them
    grid = sorted({j / 2000 for j in range(1, 2001)} | {1 / N for N in range(1, 65)})
    laws = [(CG, 1.0, 0.0), (RG, 1.0, 1.0)] + [(TensorModel.diluted(p), 1.0, 0.0) for p in grid]
    for model, c, c_prime in laws:
        K = model.cumulant_table(2).K
        assert (K[(1, 1)], K[(2, 0)]) == (c, c_prime), model
        assert (model.c, model.c_prime) == (c, c_prime), model


def test_diluted_cumulant_zeros_are_exact():
    N, k = 3, 2
    circular = cumulants_at(models(N)["diluted"], 8, N, k)
    assert all((value == 0) == (m != n) for (m, n), value in circular.items())
    shifted = cumulants_at(models(N)["diluted-shifted"], 8, N, k)
    assert shifted[(1, 0)] == shifted[(0, 1)] == 0
    assert all(value != 0 for key, value in shifted.items() if sum(key) > 1)


@pytest.mark.parametrize("name", list(models(1)))
def test_cumulants_reproduce_entry_moments(name):
    # moment-cumulant formula over the partitions of m plain and n conjugate
    # copies of one entry
    N, k, order = 3, 2, 6
    model = models(N)[name]
    kappa = cumulants_at(model, order, N, k)
    for m in range(order + 1):
        for n in range(order + 1 - m):
            if m + n == 0:
                continue
            plain = [1] * m + [0] * n
            total = 0
            for lab in set_partitions(m + n):
                blocks = [[plain[i] for i, x in enumerate(lab) if x == b] for b in range(n_blocks(lab))]
                total += math.prod(kappa[(sum(b), len(b) - sum(b))] for b in blocks)
            moment = model.entry_moment(m, n, N, k)
            assert abs(total - moment) <= 1e-12 * max(abs(moment), N ** (-k * (m + n) / 2))


@pytest.mark.parametrize("name", list(models(1)))
def test_c_and_c_prime_are_the_exact_second_moments(name):
    # the limit reads c = N^k E|x|^2 and c' = N^k E x^2, which for these
    # laws hold exactly at every N
    for N, k in ((3, 1), (4, 2)):
        model = models(N)[name]
        assert abs(N**k * model.entry_moment(1, 1, N, k) - model.c) <= 1e-12
        assert abs(N**k * model.entry_moment(2, 0, N, k) - model.c_prime) <= 1e-12


CUMULANT_LAWS = {
    "complex": CG,
    "real": RG,
    "diluted-1/3": TensorModel.diluted(1 / 3),
    "diluted-1/16": TensorModel.diluted(1 / 16),
    "diluted-1": TensorModel.diluted(1.0),
    "diluted-shifted": models(3)["diluted-shifted"],
    "diluted-sparse": models(3)["diluted-sparse"],
    "diluted-roots": models(3)["diluted-roots"],
}


@pytest.mark.parametrize("name", list(CUMULANT_LAWS))
def test_cumulant_table_matches_the_per_N_recursion(name):
    # the law's N-free table, scaled to size N; the reference reruns the
    # moment-cumulant recursion on the moments at each N
    model = CUMULANT_LAWS[name]
    for N in (1, 2, 3, 5, 16):
        for k in (1, 2, 3):
            for order in (1, 2, 5, 10):
                kappa = cumulants_at(model, order, N, k)
                ref = entry_cumulants_per_N(model, order, N, k)
                assert kappa.keys() == ref.keys()
                if model.kind != "diluted":
                    assert kappa == ref
                    continue
                for key, value in kappa.items():
                    if ref[key] == 0 or name != "diluted-1":
                        assert (value == 0) == (ref[key] == 0), (N, k, key)
                    # at p = 1 the law is complex Ginibre: the reference leaves
                    # rounding noise where the cumulant cancels to 0 against
                    # the moment, and the table holds the exact 0
                    floor = abs(model.entry_moment(*key, N, k)) if name == "diluted-1" else 0
                    assert abs(value - ref[key]) <= 1e-12 * max(abs(ref[key]), floor), (N, k, key)


def test_cumulant_table_is_free_of_N_and_cached_per_law():
    for model in CUMULANT_LAWS.values():
        K = model.cumulant_table(6).K
        assert abs(K[(1, 1)] - model.c) <= 1e-12 and abs(K[(2, 0)] - model.c_prime) <= 1e-12
    # at p = 1 the diluted law is complex Ginibre, cumulant for cumulant
    assert {key for key, K in CUMULANT_LAWS["diluted-1"].cumulant_table(10).K.items() if K} == {(1, 1)}
    # equal laws share one table, however their base moments are listed;
    # laws differing only in p, or in one base moment, do not
    assert TensorModel.diluted(0.3).cumulant_table(6) is TensorModel.diluted(0.3).cumulant_table(6)
    listed = shifted_real_base_moments()
    backwards = dict(reversed(listed.items()))
    assert (TensorModel.diluted(0.3, base_moments=listed).cumulant_table(6)
            is TensorModel.diluted(0.3, base_moments=backwards).cumulant_table(6))
    assert TensorModel.diluted(0.3).cumulant_table(6).K != TensorModel.diluted(0.4).cumulant_table(6).K
    base = shifted_real_base_moments()
    moved = dict(base)
    moved[(3, 0)] += 0.5
    one, other = (TensorModel.diluted(0.3, base_moments=b).cumulant_table(6).K for b in (base, moved))
    assert one != other and one[(3, 0)] != other[(3, 0)] and one[(2, 1)] == other[(2, 1)]


@pytest.mark.parametrize("name", list(models(1)))
def test_coverable_counts_are_the_sums_of_the_support(name):
    order = 8
    table = models(3)[name].cumulant_table(order)
    support = [key for key, K in table.K.items() if K != 0]
    assert table.support == tuple(support)
    sums = {(0, 0)}
    for _ in range(order):
        sums |= {(m + a, n + b) for m, n in sums for a, b in support if m + a + n + b <= order}
    assert table.coverable == sums


@pytest.mark.parametrize(
    "name, eps",
    [
        # 11 letters, 6 plain: odd, so no pairs or balanced blocks cover them
        ("complex", "1*1*1*1*1*1"),
        ("real", "1*1*1*1*1*1"),
        ("diluted", "1*1*1*1*1*1"),
        # one letter: every law here is centred
        ("diluted-shifted", "*"),
        # 3 does not divide 4 - 0
        ("diluted-sparse", "1111"),
    ],
)
def test_uncoverable_word_is_zero_without_a_walk(name, eps):
    word = plain_word(1, [(group(2)[i % 2], e) for i, e in enumerate(eps)])
    polynomial = full_trace_expect_detailed(word, models(3)[name])
    value = polynomial.at(3)
    assert isinstance(value, complex) and value == 0
    assert (polynomial.terms, polynomial.count, polynomial.pruned) == ((), 0, 0)


def test_walk_skips_blocks_that_leave_uncoverable_letters():
    # five plain letters under a law with K[m, 0] != 0 exactly for m = 3, 5:
    # after the first letter, the candidate blocks take 0, 1, 2, 3 or 4 of
    # the other four; those of 1, 2 and 4 letters have a zero cumulant, and
    # the 6 blocks of three leave two plain letters, which no block covers,
    # so they are skipped before the walk enters them
    model = models(3)["diluted-roots"]
    K = model.cumulant_table(5).K
    assert [m for m in range(1, 6) if K[(m, 0)] != 0] == [3, 5]
    word = plain_word(1, [(group(2)[0], "1")] * 5)
    polynomial = full_trace_expect_detailed(word, model)
    value = polynomial.at(3)
    assert polynomial.count == 1
    assert polynomial.pruned == 1 + 4 + 6 + 4
    assert value != 0
    assert_pinned(value, vertex_partition_reference(word, 3, model))
