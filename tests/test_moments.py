import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from references import covariance_by_branches, word_expectation_every_pairing
from tensorflat.group_algebra import AlgebraElement, max_coeff_diff
from tensorflat.moments import (
    Letter,
    Word,
    Mixture,
    Target,
    _nc_partner_table,
    all_sigma_mixture,
    catalan,
    character_mixture,
    covariance,
    freeness_conditions,
    hermitized_mixture,
    mixture_covariance,
    parastat_mixture,
    plain_word,
    scalar_freeness_report,
    word_expectation,
    word_expectation_enumerated,
    word_phi,
)
from tensorflat.characters import character_value, enumerate_partitions
from tensorflat.perms import (
    MAX_ENUM_DEGREE,
    Permutation,
    compose,
    coset_key,
    embed_join,
    group,
    tau,
)

id1 = Permutation.identity(1)
id2 = Permutation.identity(2)
swap2 = Permutation([2, 1])


def random_word(rng, k, L):
    """L random letters, each followed by a random permutation operator."""
    letters = tuple(
        Letter(
            group(2 * k)[rng.integers(math.factorial(2 * k))],
            "1" if rng.integers(2) else "*",
        )
        for _ in range(L)
    )
    etas = tuple(group(k)[rng.integers(math.factorial(k))] for _ in range(L))
    return Word(k, tuple(l.followed_by(eta) for l, eta in zip(letters, etas)))


def test_covariance_examples():
    # same letter against its adjoint through the unit: full weight c
    cov = covariance(Letter(swap2, "1"), id1, Letter(swap2, "*"), 1.0, 0.0)
    assert cov == AlgebraElement(1, {id1: 1.0})
    # plain-plain pair matching through the half swap picks up c'
    cov = covariance(Letter(id2, "1"), id1, Letter(swap2, "1"), 1.0, 0.25)
    assert cov == AlgebraElement(1, {id1: 0.25})
    # different half-preserving cosets have vanishing covariance
    k = 2
    reps = {}
    for s in group(4):
        reps.setdefault(coset_key(s, "Skk"), s)
    reps = list(reps.values())
    cov = covariance(Letter(reps[0], "1"), id2, Letter(reps[1], "*"), 1.0, 0.0)
    assert cov.is_zero()


def test_covariance_formula_cases():
    k = 2
    c, cp = 1.0, 0.5 + 0.25j
    sigma2 = group(4)[7]
    eta_m, eta_l = Permutation([2, 1]), Permutation([2, 1])
    # plain/adjoint: supported at the left factor when sigma = (l join m) sigma2
    sigma = compose(embed_join(eta_l, eta_m), sigma2)
    cov = covariance(Letter(sigma, "1"), eta_m, Letter(sigma2, "*"), c, cp)
    assert cov == AlgebraElement(2, {eta_l: c})
    # adjoint/plain: middle factor on the left slot
    cov = covariance(Letter(sigma, "*"), eta_l, Letter(sigma2, "1"), c, cp)
    assert cov == AlgebraElement(2, {eta_m: c})
    # plain/plain with the half swap
    sigma = compose(tau(k), compose(embed_join(eta_m, eta_l), sigma2))
    cov = covariance(Letter(sigma, "1"), eta_m, Letter(sigma2, "1"), c, cp)
    assert cov == AlgebraElement(2, {eta_l: cp})


@given(st.integers(0, 23), st.integers(0, 23), st.integers(0, 1), st.integers(0, 1))
@settings(max_examples=60)
def test_covariance_adjoint_symmetry(i, j, e, h):
    c, cp = 1.0, 0.3 - 0.4j
    sigma, sigma2 = group(4)[i], group(4)[j]
    eta = group(2)[e]
    lhs = covariance(Letter(sigma, "*"), eta, Letter(sigma2, "*"), c, cp)
    rhs = covariance(
        Letter(sigma2, "1"), eta.inverse(), Letter(sigma, "1"), c, cp
    ).adjoint()
    assert max_coeff_diff(lhs, rhs) <= 1e-14


def all_covariance_cases(k):
    """Every (sigma1, sigma2, eta, eps1, eps2) at degree k."""
    return list(itertools.product(group(2 * k), group(2 * k), group(k), "1*", "1*"))


def sampled_covariance_cases(k, count, seed):
    """count seeded cases at degree k; in every second one sigma1 lies in
    the extended Young coset of sigma2, where the letters can pair."""
    rng = random.Random(seed)
    swaps = (Permutation.identity(2 * k), tau(k))
    cases = []
    for i in range(count):
        sigma2 = rng.choice(group(2 * k))
        if i % 2:
            young = embed_join(rng.choice(group(k)), rng.choice(group(k)))
            sigma = rng.choice(swaps) * young * sigma2
        else:
            sigma = rng.choice(group(2 * k))
        cases.append((sigma, sigma2, rng.choice(group(k))) + tuple(rng.choices("1*", k=2)))
    return cases


def coset_covariance_cases(k, count, seed):
    """count seeded cases at a degree k past group's bound, each with
    sigma1 = tau^s (a join a2) tau^t sigma2 for uniform permutations and
    s, t in {0, 1}, and eta one of a, a2: a share of them pair."""
    rng = random.Random(seed)

    def draw(n):
        return Permutation(rng.sample(range(1, n + 1), n))

    swaps = (Permutation.identity(2 * k), tau(k))
    cases = []
    for _ in range(count):
        a, a2, sigma2 = draw(k), draw(k), draw(2 * k)
        sigma = rng.choice(swaps) * embed_join(a, a2) * rng.choice(swaps) * sigma2
        cases.append((sigma, sigma2, rng.choice((a, a2))) + tuple(rng.choices("1*", k=2)))
    return cases


@pytest.mark.parametrize(
    "cases",
    [
        pytest.param(all_covariance_cases(1), id="k1-all"),
        pytest.param(all_covariance_cases(2), id="k2-all"),
        pytest.param(sampled_covariance_cases(3, 2000, seed=3), id="k3-sample"),
        pytest.param(coset_covariance_cases(MAX_ENUM_DEGREE + 1, 500, seed=9), id="k9-sample"),
    ],
)
def test_covariance_table_matches_the_branch_rule(cases):
    c, cp = 0.7, 0.3 + 0.2j
    nonzero = 0
    for sigma, sigma2, eta, e1, e2 in cases:
        l, l2 = Letter(sigma, e1), Letter(sigma2, e2)
        got = covariance(l, eta, l2, c, cp)
        assert got == covariance_by_branches(l, eta, l2, c, cp)
        nonzero += not got.is_zero()
    assert nonzero  # the rule is exercised on pairs that meet


def test_nc_pairings():
    assert _nc_partner_table(2) == ((1, 0),)
    assert len(_nc_partner_table(4)) == 2
    assert len(_nc_partner_table(16)) == 1430
    assert _nc_partner_table(3) == ()
    for partner in _nc_partner_table(6):
        # a pairing of [6]: a fixed-point-free involution, and non-crossing,
        # as the points inside each pair are paired among themselves
        assert all(partner[partner[i]] == i != partner[i] for i in range(6))
        assert all(i < partner[x] < partner[i] for i in range(6) for x in range(i + 1, partner[i]))


def test_word_expectation_length_two():
    sigma = group(2)[1]
    w = plain_word(1, [(sigma, "1"), (sigma, "*")])
    assert word_expectation(w, 1.0, 0.0) == AlgebraElement(1, {id1: 1.0})


def test_odd_words_vanish():
    rng = np.random.default_rng(0)
    for k in (1, 2, 3):
        for evaluate in (word_expectation, word_expectation_enumerated):
            for L in (1, 3, 5):
                w = random_word(rng, k, L)
                assert evaluate(w, 1.0, 0.5).is_zero()
            # the empty word: the walk and the recursion both start from the unit
            assert evaluate(Word(k, ()), 1.0, 0.5) == AlgebraElement.unit(k)


def test_words_past_the_enumeration_bound():
    """covariance reads the pair rule off the two permutations, with no
    table over S_k, so words of degree past group's bound evaluate."""
    k = MAX_ENUM_DEGREE + 1
    ident = Permutation.identity(2 * k)
    assert word_phi(plain_word(k, [(ident, "1"), (ident, "*")]), 1, 0) == 1
    rng = random.Random(11)
    sigma = Permutation(rng.sample(range(1, 2 * k + 1), 2 * k))
    young = embed_join(Permutation(rng.sample(range(1, k + 1), k)), Permutation.identity(k))
    w = plain_word(k, [(sigma, "1"), (young * sigma, "*"), (tau(k) * sigma, "1"), (sigma, "1")])
    got = word_expectation(w, 0.7, 0.3 + 0.2j)
    assert not got.is_zero()
    assert got == word_expectation_enumerated(w, 0.7, 0.3 + 0.2j)
    assert got == word_expectation_every_pairing(w, 0.7, 0.3 + 0.2j)


def test_alternating_length_four():
    sigma = group(2)[0]
    w = plain_word(1, [(sigma, "1"), (sigma, "*")] * 2)
    assert word_expectation(w, 1.0, 0.0) == AlgebraElement(1, {id1: 2.0})


def test_word_phi_catalan():
    sigma = group(2)[0]
    for n in (1, 2, 3, 4):
        w = plain_word(1, [(sigma, "1"), (sigma, "*")] * n)
        assert word_phi(w, 1.0, 0.0) == catalan(n)


def test_word_phi_plain_square():
    sigma = group(2)[0]
    w = plain_word(1, [(sigma, "1"), (sigma, "1")])
    assert word_phi(w, 1.0, 0.0) == 0


@pytest.mark.parametrize("k,L", [(1, 4), (1, 6), (2, 4)])
def test_recursion_matches_enumeration(k, L):
    rng = np.random.default_rng(k * 10 + L)
    for _ in range(6):
        w = random_word(rng, k, L)
        a = word_expectation(w, 1.0, 0.3 + 0.2j)
        b = word_expectation_enumerated(w, 1.0, 0.3 + 0.2j)
        assert max_coeff_diff(a, b) <= 1e-12


@st.composite
def coset_words(draw):
    """A word of even length L <= 10 whose letters are one to three
    flattenings of one Young coset (S_k x S_k) sigma, with random eps: its
    pairings both vanish and survive."""
    k = draw(st.sampled_from([1, 2, 3]))
    base = draw(st.sampled_from(group(2 * k)))
    young = st.builds(embed_join, st.sampled_from(group(k)), st.sampled_from(group(k)))
    flats = [g * base for g in draw(st.lists(young, min_size=1, max_size=3))]
    letter = st.builds(Letter, st.sampled_from(flats), st.sampled_from("1*"))
    L = draw(st.sampled_from([0, 2, 4, 6, 8, 10]))
    return Word(k, tuple(draw(st.lists(letter, min_size=L, max_size=L))))


@given(
    w=coset_words(),
    c=st.one_of(st.integers(1, 3), st.complex_numbers(min_magnitude=0.5, max_magnitude=2)),
    cp=st.one_of(st.integers(0, 3), st.complex_numbers(max_magnitude=2)),
)
@settings(max_examples=120, deadline=None)
def test_enumeration_stops_each_pairing_without_changing_the_sum(w, c, cp):
    # exact equality: a pairing that vanishes adds nothing, in int mode (c
    # and c' integers) and in complex mode alike
    got = word_expectation_enumerated(w, c, cp)
    want = word_expectation_every_pairing(w, c, cp)
    event("zero" if want.is_zero() else "nonzero")
    assert got == want
    if isinstance(c, int) and isinstance(cp, int):
        assert all(type(v) is int for v in got.coeffs.values())


def paired_word(rng, k, L, same_eps):
    """A word of L letters built along one random non-crossing pairing, each
    pair given letters whose covariance through the value of the segment it
    encloses is nonzero (the cosets of moments._partner), so at least that
    pairing survives.  Without same_eps every pair has mixed eps, and the
    word survives at c' = 0 too."""
    partner = rng.choice(_nc_partner_table(L))
    letters = [None] * L

    def build(start, end):
        value = Permutation.identity(k)
        while start < end:
            close = partner[start]
            eta, b = build(start + 1, close), rng.choice(group(k))
            e1, e2 = rng.choice(["1*", "*1", "11", "**"] if same_eps else ["1*", "*1"])
            sigma2 = rng.choice(group(2 * k))
            if (e1, e2) == ("1", "*"):
                sigma1 = embed_join(b, eta) * sigma2
            elif (e1, e2) == ("*", "1"):
                sigma1 = embed_join(eta, b) * sigma2
            elif e1 == "1":
                sigma1 = tau(k) * embed_join(eta, b) * sigma2
            else:
                sigma1 = embed_join(eta, b) * tau(k) * sigma2
            letters[start], letters[close] = Letter(sigma1, e1), Letter(sigma2, e2)
            value, start = value * b, close + 1
        return value

    build(0, L)
    return Word(k, tuple(letters))


@pytest.mark.parametrize(
    "k,L,same_eps",
    [(2, 12, False), (3, 12, True), (2, 14, True), (3, 14, False), (2, 16, False), (3, 16, True)],
)
def test_evaluators_agree_at_the_benchmark_lengths(k, L, same_eps):
    """The recursion, the enumerator and the every-pairing reference at the
    word lengths of the limit benchmark: exactly equal in int and float
    mode, int coefficients in int mode, and 1e-12 relative at complex c'."""
    w = paired_word(random.Random(f"{k}/{L}/{same_eps}"), k, L, same_eps)
    evaluators = (word_expectation, word_expectation_enumerated, word_expectation_every_pairing)
    for c, cp in ((1, 0), (1, 1), (1.0, 0.0), (1.0, 1.0)):
        got, enum, ref = (evaluate(w, c, cp) for evaluate in evaluators)
        assert got == enum == ref
        assert not got.is_zero() or (cp == 0 and same_eps)
        if isinstance(c, int):
            assert all(type(v) is int for v in got.coeffs.values())
    got, enum, ref = (evaluate(w, 1.0, 0.3 + 0.2j) for evaluate in evaluators)
    scale = max(abs(v) for v in ref.coeffs.values())
    assert max(max_coeff_diff(got, ref), max_coeff_diff(enum, ref)) <= 1e-12 * scale


def test_word_expectation_bimodule():
    rng = np.random.default_rng(11)
    k = 2
    w = random_word(rng, k, 4)
    eta = Permutation([2, 1])
    # following the last letter by u_eta multiplies the expectation on the right
    shifted = Word(k, w.letters[:-1] + (w.letters[-1].followed_by(eta),))
    lhs = word_expectation(shifted, 1.0, 0.5)
    rhs = word_expectation(w, 1.0, 0.5) * AlgebraElement.basis(eta)
    assert max_coeff_diff(lhs, rhs) <= 1e-13


def test_word_phi_cyclic_invariance():
    rng = np.random.default_rng(12)
    k = 2
    for _ in range(5):
        w = random_word(rng, k, 4)
        base = word_phi(w, 1.0, 0.5)
        for r in range(1, 4):
            rotated = Word(k, w.letters[r:] + w.letters[:r])
            assert abs(word_phi(rotated, 1.0, 0.5) - base) <= 1e-12


def test_word_json_roundtrip():
    rng = np.random.default_rng(13)
    w = random_word(rng, 2, 4)
    assert Word.from_json(w.to_json()) == w


@pytest.mark.parametrize("k", [1, 2, 3])
def test_identity_etas_leave_the_letters_as_read(k):
    rng = np.random.default_rng(40 + k)
    letters = random_word(rng, k, 5).to_json()["letters"]
    plain = Word.from_json({"k": k, "letters": letters})
    ident = list(range(1, k + 1))
    folded = Word.from_json({"k": k, "letters": letters, "etas": [ident] * len(letters)})
    assert folded == plain
    for l in plain.letters:
        assert l.followed_by(Permutation.identity(k)) is l


def test_mixture_covariance_all_sigma():
    k = 2
    s = all_sigma_mixture(k, 1.0)
    expected = AlgebraElement(k, {eta: 0.5 for eta in group(k)})
    for eta in group(k):
        cov = mixture_covariance(s, eta, s, 1.0, 0.0, conj_second=True)
        assert max_coeff_diff(cov, expected) <= 1e-12


def test_mixture_covariance_signed():
    k = 2
    s = all_sigma_mixture(k, 1.0, signed=True)
    cov = mixture_covariance(s, id2, s, 1.0, 0.0, conj_second=True)
    expected = AlgebraElement(k, {id2: 0.5, swap2: -0.5})
    assert max_coeff_diff(cov, expected) <= 1e-12
    # signature weight flips with the middle element's sign
    cov = mixture_covariance(s, swap2, s, 1.0, 0.0, conj_second=True)
    expected = AlgebraElement(k, {id2: -0.5, swap2: 0.5})
    assert max_coeff_diff(cov, expected) <= 1e-12


def test_hermitized_mixture_covariance():
    k = 2
    c, cp = 1.0, 0.0
    s = hermitized_mixture(k, c, cp)
    cov = mixture_covariance(s, id2, s, c, cp, conj_second=True)
    expected = AlgebraElement(k, {eta: 0.5 for eta in group(k)})
    assert max_coeff_diff(cov, expected) <= 1e-12
    with pytest.raises(ValueError, match="c \\+ Re c' must be positive"):
        hermitized_mixture(k, 1.0, -1.0)


def test_target_scale():
    assert Target.S1.scale(2, 1.0) == Target.S2.scale(2, 1.0) == math.sqrt(48)
    # c' only enters the Hermitian scale; real Ginibre: c = c' = 1
    assert Target.S1.scale(2, 1.0, 1.0) == math.sqrt(48)
    assert Target.S3.scale(2, 1.0, 1.0) == math.sqrt(48 * 4)
    with pytest.raises(KeyError):
        Target["S9"]


def test_target_fields_and_mixtures():
    assert [(t.name, t.signed, t.hermitian) for t in Target] == [
        ("S1", False, False), ("S2", True, False), ("S3", False, True),
    ]
    for k in (1, 2):
        count = math.factorial(2 * k)
        for target in Target:
            terms = target.mixture(k, 2.0, 0.5).terms
            assert len(terms) == count * (2 if target.hermitian else 1)
            for letter, coeff in terms:
                sign = letter.sigma.signature() if target.signed else 1
                assert coeff == sign / target.scale(k, 2.0, 0.5)


def eta_map(s, s2, c, cp, conj_second=False):
    """The covariance map b -> E[S b S2] (E[S b S2*] with conj_second) of
    two mixtures, linear in b and read off mixture_covariance on the basis."""
    table = {mu: mixture_covariance(s, mu, s2, c, cp, conj_second) for mu in group(s.k)}

    def eta(b):
        out = AlgebraElement.zero(s.k)
        for mu, coeff in b.coeffs.items():
            out = out + coeff * table[mu]
        return out

    return eta


def semicircular_moments(eta, k, n_max):
    """phi(E_n) for n = 1..n_max, E_n = sum_{j=2..n} eta(E_{j-2}) E_{n-j}:
    the moments of an operator-valued semicircular element of covariance
    map eta."""
    E = [AlgebraElement.unit(k)]
    for n in range(1, n_max + 1):
        total = AlgebraElement.zero(k)
        for j in range(2, n + 1):
            total = total + eta(E[j - 2]) * E[n - j]
        E.append(total)
    return [e.phi() for e in E[1:]]


def hermitized_moments(s, c, k, n_max):
    """phi((S S*)^n) for n = 1..n_max at c' = 0: the (1, 1) entry of the
    semicircular element [[0, S], [S*, 0]], whose covariance map sends
    diag(b1, b2) to diag(E[S b2 S*], E[S* b1 S]).  P_m and Q_m are the
    diagonal entries of E_m; only even m are nonzero."""
    eta1 = eta_map(s, s, c, 0.0, conj_second=True)
    eta2 = eta_map(s.adjoint, s.adjoint, c, 0.0, conj_second=True)
    P, Q = [AlgebraElement.unit(k)], [AlgebraElement.unit(k)]
    for m in range(2, 2 * n_max + 1, 2):
        P.append(AlgebraElement.zero(k))
        Q.append(AlgebraElement.zero(k))
        for j in range(2, m + 1, 2):
            P[-1] = P[-1] + eta1(Q[(j - 2) // 2]) * P[(m - j) // 2]
            Q[-1] = Q[-1] + eta2(P[(j - 2) // 2]) * Q[(m - j) // 2]
    return [p.phi() for p in P[1:]]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_closed_forms_are_the_mixtures_limits(k):
    # each target's closed-form moments, from its own Mixture through the
    # operator-valued recursion over C[S_k]
    n_max, c = 8, 1.0
    cases = []
    for cp in (0.0, 1.0):
        s = Target.S3.mixture(k, c, cp)
        cases.append((Target.S3, cp, semicircular_moments(eta_map(s, s, c, cp), k, n_max)))
    for target in (Target.S1, Target.S2):
        cases.append((target, 0.0, hermitized_moments(target.mixture(k, c), c, k, n_max)))
    for target, cp, moments in cases:
        for m, want in zip(moments, target.predicted_moments(k, n_max)):
            assert abs(m - want) <= 1e-12 * abs(want), (target, cp)


def test_mixtures_in_distinct_extended_cosets_are_uncorrelated():
    k = 2
    reps = {}
    for s in group(4):
        reps.setdefault(coset_key(s, "SkkTau"), s)
    reps = list(reps.values())
    s1 = Mixture.from_map(k, {Letter(reps[0], "1"): 1.0})
    s2 = Mixture.from_map(k, {Letter(reps[1], "1"): 1.0})
    for conj_second in (False, True):
        cov = mixture_covariance(s1, id2, s2, 1.0, 0.7, conj_second=conj_second)
        assert cov.is_zero()


def pair_loop_covariance(s, eta, s2, c, cp, conj_second=False):
    """The reference for mixture_covariance: the bilinear sum of the
    two-letter covariance, by the branch rule, over every pair of terms."""
    second = s2.adjoint if conj_second else s2
    out = AlgebraElement.zero(eta.n)
    for l1, c1 in s.terms:
        for l2, c2 in second.terms:
            out = out + (c1 * c2) * covariance_by_branches(l1, eta, l2, c, cp)
    return out


@st.composite
def mixtures_near(draw, base):
    """A mixture with complex coefficients on a random support: letters of
    either eps on the extended Young coset of base, where pairs meet, and on
    any flattening."""
    k = base.n // 2
    ident = Permutation.identity(2 * k)
    coset = [
        t * embed_join(a, b) * base for t in (ident, tau(k)) for a in group(k) for b in group(k)
    ]
    sigma = st.one_of(st.sampled_from(coset), st.sampled_from(group(2 * k)))
    letter = st.builds(Letter, sigma, st.sampled_from("1*"))
    coeff = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
    return Mixture.from_map(k, draw(st.dictionaries(letter, coeff, max_size=16)))


@given(
    data=st.data(),
    k=st.sampled_from([1, 2, 3]),
    cp=st.sampled_from([0, 1, 0.3 + 0.2j]),
    conj_second=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_mixture_covariance_matches_the_pair_loop(data, k, cp, conj_second):
    base = data.draw(st.sampled_from(group(2 * k)))
    s, s2 = data.draw(mixtures_near(base)), data.draw(mixtures_near(base))
    for eta in group(k):
        got = mixture_covariance(s, eta, s2, 0.7, cp, conj_second=conj_second)
        want = pair_loop_covariance(s, eta, s2, 0.7, cp, conj_second=conj_second)
        assert max_coeff_diff(got, want) <= 1e-12


def doubled_group_mixture(k, a):
    """The mixture of a coefficient map (eta1, eta2) -> a on the plain
    flattenings by eta1 join eta2."""
    return Mixture.from_map(k, {Letter(embed_join(e1, e2), "1"): c for (e1, e2), c in a.items()})


def test_freeness_conditions_characters():
    k = 2
    cross, a_scal, a2_scal = freeness_conditions(
        character_mixture(k, (2,)), character_mixture(k, (1, 1))
    )
    assert cross and a_scal and a2_scal
    ones = doubled_group_mixture(k, {(e1, e2): 1.0 for e1 in group(k) for e2 in group(k)})
    cross, a_scal, _ = freeness_conditions(ones, ones)
    assert not cross and not a_scal


def cross_correlation(a, a2, eta1, eta2, k):
    """The shifted cross-correlation of two coefficient maps on the doubled
    group, the sum over mu of a(eta1 mu1, eta2 mu2) conj(a2(mu1, mu2))."""
    return sum(
        a.get((eta1 * mu1, eta2 * mu2), 0) * complex(a2.get((mu1, mu2), 0)).conjugate()
        for mu1 in group(k)
        for mu2 in group(k)
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_freeness_conditions_match_the_direct_correlation_sums(k):
    # two random maps on random supports, and the character maps, whose
    # correlations vanish exactly between distinct irreducibles
    rng = np.random.default_rng(30 + k)
    pairs = [(e1, e2) for e1 in group(k) for e2 in group(k)]
    maps = [
        {p: complex(*rng.standard_normal(2)) for p in pairs if rng.random() < 0.4}
        for _ in range(2)
    ]
    ident = Permutation.identity(k)
    maps += [
        {(ident, e2): character_value(rho, e2) for e2 in group(k)}
        for rho in enumerate_partitions(k)
    ]

    def scalar(m):
        return all(abs(cross_correlation(m, m, eta, ident, k)) <= 1e-10 for eta in group(k)[1:])

    for a in maps:
        for a2 in maps:
            s, s2 = doubled_group_mixture(k, a), doubled_group_mixture(k, a2)
            cross = {(e1, e2): cross_correlation(a, a2, e1, e2, k) for e1, e2 in pairs}
            scale = max(1.0, max(abs(v) for v in cross.values()))
            for eta2 in group(k):
                cov = mixture_covariance(s, eta2, s2, 1, 0, conj_second=True)
                for eta1 in group(k):
                    assert abs(cov.coeff(eta1) - cross[(eta1, eta2)]) <= 1e-12 * scale
            want = (all(abs(v) <= 1e-10 for v in cross.values()), scalar(a), scalar(a2))
            assert freeness_conditions(s, s2) == want


def test_scalar_freeness_reports():
    k = 2
    reps = {}
    for s in group(4):
        reps.setdefault(coset_key(s, "SkkTau"), s)
    assert scalar_freeness_report(list(reps.values()), 1.0, 0.5)
    # two members of one coset are correlated beyond the unit
    sigma = group(4)[3]
    twisted = compose(embed_join(swap2, id2), sigma)
    assert not scalar_freeness_report([sigma, twisted], 1.0, 0.0)
    # transpose pair at k=1 with c' = 0 is scalar-circular
    assert scalar_freeness_report([Permutation([1, 2]), Permutation([2, 1])], 1.0, 0.0)


def test_parastat_mixture_covariance_structure():
    # the symmetrizer-style combination has covariance proportional to
    # characters of the doubled group evaluated on joined permutations
    k = 2
    lam = (3, 1)
    s = parastat_mixture(k, lam)
    from tensorflat.characters import dimension

    for eta in group(k):
        cov = mixture_covariance(s, eta, s, 1.0, 0.0, conj_second=True)
        norm = dimension(lam) / math.factorial(2 * k)
        for eta2 in group(k):
            expected = norm * character_value(lam, embed_join(eta2, eta))
            assert abs(complex(cov.coeff(eta2)) - expected) <= 1e-10


def test_character_mixture_is_self_scalar():
    k = 2
    s = character_mixture(k, (1, 1))
    cov = mixture_covariance(s, id2, s, 1.0, 0.0, conj_second=True)
    assert not cov.is_zero()
    # supported somewhere, but the left-shifted self correlations vanish
    _, a_scal, _ = freeness_conditions(s, s)
    assert a_scal
    # the mixture carries delta(eta1 = id) chi(eta2), or chi(eta1) chi(eta2)
    # without left_delta, on the flattenings eta1 join eta2
    chi = {id2: 1, swap2: -1}
    for left_delta in (True, False):
        terms = dict(character_mixture(k, (1, 1), left_delta=left_delta).terms)
        for e1 in group(k):
            for e2 in group(k):
                want = ((e1 == id2) if left_delta else chi[e1]) * chi[e2]
                assert terms.get(Letter(embed_join(e1, e2), "1"), 0) == want
    both = dict(character_mixture(k, (1, 1), left_delta=False).terms)
    assert both[Letter(embed_join(swap2, swap2), "1")] == 1


def test_predicted_moments():
    assert Target.S1.predicted_moments(2, 4) == [0.5, 1.0, 2.5, 7.0]
    assert Target.S2.predicted_moments(2, 4) == [0.5, 1.0, 2.5, 7.0]
    assert Target.S1.predicted_moments(1, 4) == [1.0, 2.0, 5.0, 14.0]
    assert Target.S3.predicted_moments(2, 4) == [0.0, 0.5, 0.0, 1.0]
    with pytest.raises(ValueError) as error:
        Target.S1.predicted_moments(2, 13)
    assert str(error.value) == "moment order n_max = 13 exceeds the guard of 12"
