"""Exact permutation arithmetic and the half-swap coset structure on [2k].

Permutations are stored in one-line notation, 1-based in all public
interfaces.  Composition follows (sigma * pi)(i) = sigma(pi(i)).

Permutations are interned: there is one Permutation object per image, and
every constructor (the validating one, the unchecked products, copy,
deepcopy and pickle) returns it.  Equality and hashing are therefore
identity.  Identity hashes differ from run to run, so no output may depend
on the iteration order of a set of permutations; dicts keep insertion order
and are safe.  Each permutation of degree at most MAX_TABLE_DEGREE keeps
its products with right factors of its degree, so a product is computed
once and then looked up: at most sum over n <= 6 of (n!)^2 = 533,417 table
entries, 518,400 of them at degree 6 (k = 3 letters).  Interned images
are kept for the life of the process.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache

# Enumerating n! permutations is kept behind a bound; 8! = 40320 is the
# largest degree any routine here needs (degree 2k with k = 4).
MAX_ENUM_DEGREE = 8

# Products are tabulated up to this degree (letters at k = 3); above it
# compose computes every product.
MAX_TABLE_DEGREE = 6

# image tuple -> the one Permutation with that image
_INTERNED = {}


def guard(what, value, bound):
    """The one size check of the package: raises when value is past bound."""
    if value > bound:
        raise ValueError(f"{what} = {value} exceeds the guard of {bound}")


class Permutation:
    """A bijection of [n], immutable and interned (equal means identical)."""

    __slots__ = ("image", "_inverse", "_products")

    def __new__(cls, image):
        # equal numbers hash alike, so an interned image is found before
        # its entries are converted: (1.0, 2) finds (1, 2)
        image = tuple(image)
        perm = _INTERNED.get(image)
        if perm is None:
            image = tuple(int(v) for v in image)
            n = len(image)
            if sorted(image) != list(range(1, n + 1)):
                raise ValueError(f"not a bijection of [{n}]: {image}")
            perm = cls._trusted(image)
        return perm

    @classmethod
    def _trusted(cls, image):
        """The permutation of a tuple of ints already known to be a
        bijection: the products below build their results here, unchecked."""
        perm = _INTERNED.get(image)
        if perm is None:
            new = object.__new__(cls)
            object.__setattr__(new, "image", image)
            object.__setattr__(new, "_inverse", None)
            object.__setattr__(new, "_products", {})  # right factor -> product
            # setdefault: of two threads building one image, both get the first
            perm = _INTERNED.setdefault(image, new)
        return perm

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, which
        # returns the interned object
        return Permutation, (self.image,)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def n(self):
        return len(self.image)

    @classmethod
    def identity(cls, n):
        return cls._trusted(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n, cycles):
        """Build from disjoint cycles, e.g. from_cycles(4, [(1, 2), (3, 4)])."""
        image = list(range(1, n + 1))
        seen = set()
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + type(cycle)((cycle[0],))):
                if a in seen:
                    raise ValueError(f"cycles are not disjoint at {a}")
                seen.add(a)
                image[a - 1] = b
        return cls(image)

    def __call__(self, i):
        return self.image[i - 1]

    def __mul__(self, other):
        return compose(self, other)

    def __lt__(self, other):
        return self.image < other.image

    def __repr__(self):
        return f"Permutation({list(self.image)})"

    def inverse(self):
        inv = self._inverse
        if inv is None:
            image = [0] * self.n
            for i, v in enumerate(self.image, start=1):
                image[v - 1] = i
            inv = Permutation._trusted(tuple(image))
            object.__setattr__(self, "_inverse", inv)
            object.__setattr__(inv, "_inverse", self)
        return inv

    def is_identity(self):
        return self is Permutation.identity(self.n)  # exact: permutations are interned

    def cycles(self):
        """Orbits of the action on [n], fixed points included."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = []
            i = start
            while not seen[i - 1]:
                seen[i - 1] = True
                cyc.append(i)
                i = self(i)
            out.append(tuple(cyc))
        return out

    def cycle_count(self):
        return len(self.cycles())

    def cycle_type(self):
        """Weakly decreasing tuple of cycle lengths (an integer partition of n)."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def signature(self):
        return (-1) ** (self.n - self.cycle_count())

    def to_json(self):
        return list(self.image)

    @classmethod
    def from_json(cls, data):
        """The permutation of a JSON image array (or its text).  Only a list
        of integers is read (a bool, a float or null is not one); other JSON
        raises a one-line ValueError."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, list) or not all(type(v) is int for v in data):
            raise ValueError(f"a permutation is not a list of integers: {data!r}")
        return cls(data)


def compose(sigma, pi):
    """(sigma pi)(i) = sigma(pi(i)).  A product of degree at most
    MAX_TABLE_DEGREE is computed once and then looked up in sigma's table;
    the tables hold at most 533,417 entries in all (module docstring)."""
    out = sigma._products.get(pi)
    if out is None:
        image, inner = sigma.image, pi.image
        if len(image) != len(inner):
            raise ValueError(f"degree mismatch: {len(image)} vs {len(inner)}")
        out = Permutation._trusted(tuple([image[v - 1] for v in inner]))
        if len(image) <= MAX_TABLE_DEGREE:
            sigma._products[pi] = out
    return out


def embed_join(eta, eta2):
    """The permutation of [2k] acting as eta on [k] and eta2 on [2k] \\ [k]."""
    if eta.n != eta2.n:
        raise ValueError(f"degree mismatch: {eta.n} vs {eta2.n}")
    k = eta.n
    return Permutation._trusted(eta.image + tuple([v + k for v in eta2.image]))


@lru_cache(maxsize=None)
def tau(k):
    """The half-swap of [2k]: i <-> i + k."""
    return Permutation._trusted(tuple(range(k + 1, 2 * k + 1)) + tuple(range(1, k + 1)))


@lru_cache(maxsize=None)
def group(n):
    """All n! permutations of [n] in lexicographic one-line order, built
    once per degree."""
    guard("enumerated degree n", n, MAX_ENUM_DEGREE)
    return tuple(Permutation(p) for p in itertools.permutations(range(1, n + 1)))


def coset_key(sigma, group_name):
    """Canonical label of the right coset containing sigma.

    group_name "Skk" uses the half-preserving Young subgroup, "SkkTau" its
    extension by the half-swap.  Every g sigma with g half-preserving sends
    the same positions sigma^-1([k]) into [k], and these sorted positions fix
    the coset; the half-swap exchanges them with their complement, so the
    "SkkTau" key is the smaller of the two.
    """
    if sigma.n % 2 != 0:
        raise ValueError("degree must be even")
    k = sigma.n // 2
    key = tuple(i for i, v in enumerate(sigma.image, start=1) if v <= k)
    if group_name == "SkkTau":
        return min(key, tuple(i for i, v in enumerate(sigma.image, start=1) if v > k))
    if group_name != "Skk":
        raise ValueError(f"unknown coset group {group_name!r}")
    return key
