"""Arithmetic in the group algebra of the symmetric group on k letters.

Elements are finitely supported maps from permutations to scalars, stored
sparsely.  Scalars may be Python ints (exact mode, preserved by all ring
operations) or complex floats; mixing is allowed and follows Python's
numeric tower.
"""

from __future__ import annotations

import json

from .perms import Permutation, compose


class AlgebraElement:
    """An element sum_eta coeffs[eta] u_eta of the group algebra."""

    __slots__ = ("k", "coeffs")

    def __init__(self, k, coeffs=None):
        self.k = k
        clean = {}
        for eta, c in (coeffs or {}).items():
            if eta.n != k:
                raise ValueError(f"degree {eta.n} key in algebra over degree {k}")
            if c != 0:
                clean[eta] = c
        self.coeffs = clean

    @classmethod
    def _trusted(cls, k, coeffs):
        """The element of a dict whose keys are known to have degree k:
        zeros are dropped (is_zero relies on it), degrees are not checked.
        Every result built inside the algebra comes from here."""
        out = object.__new__(cls)
        out.k = k
        out.coeffs = {eta: c for eta, c in coeffs.items() if c != 0}
        return out

    @classmethod
    def zero(cls, k):
        return cls._trusted(k, {})

    @classmethod
    def unit(cls, k):
        return cls._trusted(k, {Permutation.identity(k): 1})

    @classmethod
    def basis(cls, eta):
        return cls._trusted(eta.n, {eta: 1})

    def coeff(self, eta):
        return self.coeffs.get(eta, 0)

    def support(self):
        """The permutations with a nonzero coefficient, as a set: its
        iteration order varies from run to run (perms module docstring)."""
        return set(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for eta, c in other.coeffs.items():
            out[eta] = out.get(eta, 0) + c
        return AlgebraElement._trusted(self.k, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return AlgebraElement._trusted(self.k, {eta: scalar * c for eta, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return AlgebraElement._trusted(
                self.k, {eta: c * other for eta, c in self.coeffs.items()}
            )
        return multiply(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.k == other.k
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return f"AlgebraElement(k={self.k}, 0)"
        terms = " + ".join(
            f"({c})u{list(eta.image)}" for eta, c in sorted(self.coeffs.items(), key=lambda t: t[0].image)
        )
        return f"AlgebraElement(k={self.k}, {terms})"

    def _check(self, other):
        if self.k != other.k:
            raise ValueError(f"mixing algebras of degree {self.k} and {other.k}")

    def adjoint(self):
        out = {}
        for eta, c in self.coeffs.items():
            out[eta.inverse()] = _conj(c)
        return AlgebraElement._trusted(self.k, out)

    def phi(self):
        """Coefficient of the unit."""
        return self.coeffs.get(Permutation.identity(self.k), 0)

    def to_json(self):
        return [
            {"perm": list(eta.image), "re": float(complex(c).real), "im": float(complex(c).imag)}
            for eta, c in sorted(self.coeffs.items(), key=lambda t: t[0].image)
        ]

    @classmethod
    def from_json(cls, k, data):
        if isinstance(data, str):
            data = json.loads(data)
        coeffs = {}
        for item in data:
            eta = Permutation(item["perm"])
            coeffs[eta] = coeffs.get(eta, 0) + complex(item["re"], item["im"])
        return cls(k, coeffs)


def _conj(c):
    return c.conjugate() if isinstance(c, complex) else c


def multiply(x, y):
    """Convolution product induced by u_eta u_eta2 = u_{eta eta2}."""
    if x.k != y.k:
        raise ValueError(f"mixing algebras of degree {x.k} and {y.k}")
    out = {}
    for eta, a in x.coeffs.items():
        for eta2, b in y.coeffs.items():
            key = compose(eta, eta2)
            out[key] = out.get(key, 0) + a * b
    return AlgebraElement._trusted(x.k, out)


def max_coeff_diff(x, y):
    # a max over a set of permutations: the order of the set does not matter
    keys = set(x.coeffs) | set(y.coeffs)
    if not keys:
        return 0.0
    return max(abs(x.coeff(eta) - y.coeff(eta)) for eta in keys)
