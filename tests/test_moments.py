import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from references import word_expectation_every_pairing
from tensorflat.group_algebra import AlgebraElement, max_coeff_diff
from tensorflat.moments import (
    Letter,
    Word,
    Mixture,
    all_sigma_mixture,
    catalan,
    character_mixture,
    covariance,
    enumerate_nc_pairings,
    freeness_conditions,
    hermitized_mixture,
    mixture_covariance,
    parastat_mixture,
    plain_word,
    predicted_moments,
    scalar_freeness_report,
    target_scale,
    word_expectation,
    word_expectation_enumerated,
    word_phi,
)
from tensorflat.characters import character_value, enumerate_partitions
from tensorflat.perms import Permutation, compose, coset_key, embed_join, group, tau

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


def test_nc_pairings():
    assert enumerate_nc_pairings(2) == [((0, 1),)]
    assert len(enumerate_nc_pairings(4)) == 2
    assert len(enumerate_nc_pairings(16)) == 1430
    assert enumerate_nc_pairings(3) == []
    for pairing in enumerate_nc_pairings(6):
        flat = sorted(x for p in pairing for x in p)
        assert flat == list(range(6))


def test_word_expectation_length_two():
    sigma = group(2)[1]
    w = plain_word(1, [(sigma, "1"), (sigma, "*")])
    assert word_expectation(w, 1.0, 0.0) == AlgebraElement(1, {id1: 1.0})


def test_odd_words_vanish():
    rng = np.random.default_rng(0)
    for L in (1, 3, 5):
        w = random_word(rng, 1, L)
        assert word_expectation(w, 1.0, 0.5).is_zero()


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
    assert target_scale("S1", 2, 1.0) == target_scale("S2", 2, 1.0) == math.sqrt(48)
    # real Ginibre: c = c' = 1
    assert target_scale("S3", 2, 1.0, 1.0) == math.sqrt(48 * 4)
    with pytest.raises(ValueError, match="unknown target"):
        target_scale("S9", 2, 1.0)


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
    two-letter covariance over every pair of terms."""
    second = s2.adjoint_letters() if conj_second else s2
    out = AlgebraElement.zero(eta.n)
    for l1, c1 in s.terms:
        for l2, c2 in second.terms:
            out = out + (c1 * c2) * covariance(l1, eta, l2, c, cp)
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
    assert predicted_moments("S1", 2, 4) == [0.5, 1.0, 2.5, 7.0]
    assert predicted_moments("S1", 1, 4) == [1.0, 2.0, 5.0, 14.0]
    assert predicted_moments("S3", 2, 4) == [0.0, 0.5, 0.0, 1.0]
    with pytest.raises(ValueError):
        predicted_moments("S9", 2, 4)
    with pytest.raises(ValueError):
        predicted_moments("S1", 2, 13)
