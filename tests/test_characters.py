import math
from collections import Counter

import pytest

from tensorflat.characters import (
    character,
    character_convolution_check,
    character_value,
    dimension,
    enumerate_partitions,
)
from tensorflat.perms import group


def hook_length_dimension(lam):
    """Independent dimension oracle via the hook length formula."""
    lam = tuple(lam)
    conj = [sum(1 for p in lam if p > i) for i in range(lam[0])]
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= (row - j) + (conj[j] - i) - 1
    return math.factorial(sum(lam)) // prod


def test_enumerate_partitions():
    assert enumerate_partitions(1) == ((1,),)
    assert len(enumerate_partitions(5)) == 7
    assert all(sum(p) == 6 for p in enumerate_partitions(6))
    assert len(set(enumerate_partitions(6))) == len(enumerate_partitions(6))


def test_character_errors():
    with pytest.raises(ValueError):
        character((2, 1), (2, 2))
    with pytest.raises(ValueError):
        character((1, 2), (3,))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_trivial_and_sign_rows(k):
    for mu in enumerate_partitions(k):
        assert character((k,), mu) == 1
        assert character((1,) * k, mu) == (-1) ** (k - len(mu))


def test_standard_rep_k3():
    # brute-force derivable values of the two-row irrep of degree 3
    assert character((2, 1), (1, 1, 1)) == 2
    assert character((2, 1), (2, 1)) == 0
    assert character((2, 1), (3,)) == -1


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_dimensions_match_hook_lengths(k):
    for lam in enumerate_partitions(k):
        assert dimension(lam) == hook_length_dimension(lam)
    assert sum(dimension(lam) ** 2 for lam in enumerate_partitions(k)) == math.factorial(k)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_row_orthogonality(k):
    # class sizes counted over the group itself, by cycle type
    sizes = Counter(sigma.cycle_type() for sigma in group(k))
    assert sorted(sizes) == sorted(enumerate_partitions(k))
    for rho in enumerate_partitions(k):
        for rho2 in enumerate_partitions(k):
            total = sum(
                size * character(rho, mu) * character(rho2, mu) for mu, size in sizes.items()
            )
            assert total == (math.factorial(k) if rho == rho2 else 0)


def test_character_value_routes_by_cycle_type():
    for sigma in group(3):
        assert character_value((2, 1), sigma) == character((2, 1), sigma.cycle_type())


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_convolution_identity(k):
    assert character_convolution_check(k)
