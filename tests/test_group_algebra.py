import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorflat.group_algebra import AlgebraElement, max_coeff_diff, multiply
from tensorflat.perms import Permutation, group

K = 3


def elements(k=K):
    coeff = st.complex_numbers(
        min_magnitude=0, max_magnitude=4, allow_nan=False, allow_infinity=False
    )
    perm = st.sampled_from(group(k))
    return st.dictionaries(perm, coeff, max_size=4).map(lambda d: AlgebraElement(k, d))


def test_unit_and_basis():
    x = AlgebraElement(2, {Permutation([2, 1]): 3.0})
    assert AlgebraElement.unit(2) * x == x
    assert x * AlgebraElement.unit(2) == x
    eta = Permutation([2, 1])
    assert AlgebraElement.basis(eta) * AlgebraElement.basis(eta.inverse()) == AlgebraElement.unit(2)


def test_k_mismatch():
    with pytest.raises(ValueError):
        multiply(AlgebraElement.unit(2), AlgebraElement.unit(3))


def test_public_constructor_checks_the_degree_of_its_keys():
    with pytest.raises(ValueError, match="degree 3 key in algebra over degree 2"):
        AlgebraElement(2, {Permutation([2, 1]): 1, Permutation([2, 1, 3]): 1})


def test_results_drop_zero_coefficients():
    eta = Permutation([2, 1])
    x = AlgebraElement.unit(2) + AlgebraElement.basis(eta)
    assert (x - x).is_zero()
    assert (0 * x).is_zero() and (x * 0).is_zero()
    assert (x * (AlgebraElement.unit(2) - AlgebraElement.basis(eta))).is_zero()


def test_square_of_id_plus_swap():
    eta = Permutation([2, 1])
    x = AlgebraElement.unit(2) + AlgebraElement.basis(eta)
    sq = x * x
    assert sq.coeff(Permutation.identity(2)) == 2
    assert sq.coeff(eta) == 2


def test_exact_integer_mode():
    # integer coefficients stay integers through products
    eta = Permutation([2, 3, 1])
    x = 2 * AlgebraElement.basis(eta) + 5 * AlgebraElement.unit(3)
    y = x * x
    for c in y.coeffs.values():
        assert isinstance(c, int)


def test_adjoint_examples():
    eta = Permutation([2, 3, 1])
    assert AlgebraElement.basis(eta).adjoint() == AlgebraElement.basis(eta.inverse())
    x = (2 + 1j) * AlgebraElement.unit(3)
    assert x.adjoint().coeff(Permutation.identity(3)) == 2 - 1j


@given(elements(), elements(), elements())
def test_star_algebra_axioms(x, y, z):
    assert max_coeff_diff((x * y) * z, x * (y * z)) <= 1e-9
    assert max_coeff_diff(x * (y + z), x * y + x * z) <= 1e-9
    assert max_coeff_diff((x * y).adjoint(), y.adjoint() * x.adjoint()) <= 1e-9
    assert max_coeff_diff(x.adjoint().adjoint(), x) == 0


@given(elements(), elements())
def test_phi_tracial(x, y):
    assert abs((x * y).phi() - (y * x).phi()) < 1e-9


def test_phi_examples():
    assert AlgebraElement.unit(2).phi() == 1
    eta = Permutation([2, 1])
    assert AlgebraElement.basis(eta).phi() == 0
    x = 3 * AlgebraElement.unit(2) + 2 * AlgebraElement.basis(eta)
    assert x.phi() == 3


def test_basis_multiplication_matches_compose():
    for a in group(3):
        for b in group(3):
            prod = AlgebraElement.basis(a) * AlgebraElement.basis(b)
            assert prod == AlgebraElement.basis(a * b)


def test_max_coeff_diff():
    eta = Permutation([2, 1])
    u = AlgebraElement.unit(2)
    assert max_coeff_diff(u, u) == 0
    assert max_coeff_diff(u, u + 1e-9 * AlgebraElement.basis(eta)) <= 1e-8
    assert max_coeff_diff(u, AlgebraElement.basis(eta)) == 1


def test_json_roundtrip():
    eta = Permutation([2, 3, 1])
    x = (1 + 2j) * AlgebraElement.basis(eta) + 0.5 * AlgebraElement.unit(3)
    y = AlgebraElement.from_json(3, x.to_json())
    assert max_coeff_diff(x, y) == 0
