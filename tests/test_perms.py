import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorflat.perms import (
    Permutation,
    compose,
    coset_key,
    embed_join,
    group,
    split_join,
    tau,
)

perm3 = st.permutations(range(1, 4)).map(Permutation)
perm4 = st.permutations(range(1, 5)).map(Permutation)


def cyc(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def test_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation([1, 2, 4])


def test_one_object_per_image():
    p = Permutation((2, 3, 1))
    assert Permutation([2, 3, 1]) is p
    assert Permutation(list(p.image)) is p
    assert Permutation._trusted((2, 3, 1)) is p
    assert compose(p, Permutation.identity(3)) is p
    assert p.inverse().inverse() is p
    assert Permutation.identity(4) is Permutation([1, 2, 3, 4])


def test_copies_and_pickles_are_the_interned_object():
    p = Permutation([3, 1, 4, 2])
    assert copy.copy(p) is p
    assert copy.deepcopy(p) is p
    assert copy.deepcopy({p: [p]}) == {p: [p]}
    assert pickle.loads(pickle.dumps(p)) is p


def test_compose_examples():
    assert compose(Permutation.identity(3), cyc(3, (1, 2))) == cyc(3, (1, 2))
    assert compose(cyc(2, (1, 2)), cyc(2, (1, 2))) == Permutation.identity(2)
    # the group law evaluated directly on a 3-cycle
    assert compose(cyc(3, (1, 2, 3)), cyc(3, (1, 2, 3))) == cyc(3, (1, 3, 2))


def test_degree_mismatch():
    with pytest.raises(ValueError):
        compose(Permutation.identity(2), Permutation.identity(3))


def test_signature_and_cycles():
    assert Permutation.identity(5).signature() == 1
    assert cyc(4, (2, 3)).signature() == -1
    assert cyc(3, (1, 2, 3)).signature() == 1
    assert Permutation.identity(4).cycle_count() == 4
    assert cyc(4, (1, 2), (3, 4)).cycle_count() == 2
    assert cyc(3, (1, 2, 3)).cycle_count() == 1
    assert cyc(4, (1, 2), (3, 4)).cycle_type() == (2, 2)


@given(perm4, perm4, perm4)
def test_associativity(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(perm4)
def test_inverse(a):
    assert compose(a, a.inverse()).is_identity()
    assert compose(a.inverse(), a).is_identity()


def test_embed_join_examples():
    k = 2
    assert embed_join(Permutation.identity(k), Permutation.identity(k)).is_identity()
    assert embed_join(cyc(2, (1, 2)), Permutation.identity(2)) == cyc(4, (1, 2))
    assert embed_join(Permutation.identity(2), cyc(2, (1, 2))) == cyc(4, (3, 4))


@given(perm3, perm3, perm3, perm3)
def test_embed_join_morphism(a, b, c, d):
    lhs = embed_join(compose(a, b), compose(c, d))
    rhs = compose(embed_join(a, c), embed_join(b, d))
    assert lhs == rhs


@given(perm3, perm3)
def test_split_join_roundtrip(a, b):
    assert split_join(embed_join(a, b)) == (a, b)


def test_split_join_none():
    assert split_join(tau(2)) is None


def test_tau():
    assert tau(1) == cyc(2, (1, 2))
    assert tau(2) == cyc(4, (1, 3), (2, 4))
    assert compose(tau(3), tau(3)).is_identity()


@given(perm3, perm3)
def test_tau_commutation(a, b):
    k = 3
    assert compose(tau(k), embed_join(a, b)) == compose(embed_join(b, a), tau(k))


def test_enumerate_group():
    assert group(1) == (Permutation.identity(1),)
    assert len(group(4)) == 24
    assert len(set(group(4))) == 24
    assert group(4) is group(4)
    with pytest.raises(ValueError, match="degree 9 exceeds enumeration bound 8"):
        group(9)


perm2 = st.permutations(range(1, 3)).map(Permutation)


@given(perm4, perm2, perm2)
@settings(max_examples=30)
def test_coset_key_stable(sigma, eta, eta2):
    key = coset_key(sigma, "Skk")
    assert coset_key(compose(embed_join(eta, eta2), sigma), "Skk") == key
    tkey = coset_key(sigma, "SkkTau")
    assert coset_key(compose(tau(2), sigma), "SkkTau") == tkey


@pytest.mark.parametrize("k", [1, 2, 3])
def test_coset_counts(k):
    keys = {coset_key(s, "Skk") for s in group(2 * k)}
    tkeys = {coset_key(s, "SkkTau") for s in group(2 * k)}
    expected = math.factorial(2 * k) // math.factorial(k) ** 2
    assert len(keys) == expected
    assert len(tkeys) == expected // 2


def test_every_extended_coset_splits_into_two_plain_cosets():
    k = 2
    by_tkey = {}
    for s in group(2 * k):
        by_tkey.setdefault(coset_key(s, "SkkTau"), set()).add(coset_key(s, "Skk"))
    for plain_keys in by_tkey.values():
        assert len(plain_keys) == 2


def test_json_roundtrip():
    p = cyc(4, (1, 3, 2))
    assert Permutation.from_json(p.to_json()) == p


@pytest.mark.parametrize(
    "text", ["5", "null", "[1.5, 2, 3, 4]", "[2.0, 1.0]", "[true]", '["1"]', '{"sigma": [1, 2]}']
)
def test_from_json_reads_a_list_of_integers_only(text):
    with pytest.raises(ValueError, match="is not a list of integers"):
        Permutation.from_json(text)


def same_as_validated(got, image):
    """got is what the validating constructor makes of image: a Permutation
    holding the same tuple of ints."""
    ints = type(got.image) is tuple and all(type(v) is int for v in got.image)
    return type(got) is Permutation and ints and got is Permutation(image)


def test_products_match_the_validating_constructor():
    rng = random.Random(8)

    def sample(n, count):
        return [Permutation(rng.sample(range(1, n + 1), n)) for _ in range(count)]

    pairs = [(a, b) for a in group(4) for b in group(4)]
    pairs += [(a, b) for n in (6, 8) for a, b in zip(sample(n, 60), sample(n, 60))]
    for a, b in pairs:
        n = a.n
        assert same_as_validated(compose(a, b), [a(b(i)) for i in range(1, n + 1)])
        assert same_as_validated(a.inverse(), [a.image.index(i) + 1 for i in range(1, n + 1)])
        joined = embed_join(a, b)
        assert same_as_validated(joined, list(a.image) + [v + n for v in b.image])
        # a itself splits only when it preserves the halves, joined always
        for p in (a, joined):
            k = p.n // 2
            if p.n % 2 or any(v > k for v in p.image[:k]):
                assert p.n % 2 or split_join(p) is None
                continue
            first, second = split_join(p)
            assert same_as_validated(first, p.image[:k])
            assert same_as_validated(second, [v - k for v in p.image[k:]])
    for k in range(1, 5):
        assert same_as_validated(tau(k), [i + k if i <= k else i - k for i in range(1, 2 * k + 1)])
        assert tau(k) is tau(k)
