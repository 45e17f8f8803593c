"""Exact permutation arithmetic and the half-swap coset structure on [2k].

Permutations are stored in one-line notation, 1-based in all public
interfaces.  Composition follows (sigma * pi)(i) = sigma(pi(i)).
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache

# Enumerating n! permutations is kept behind a bound; 8! = 40320 is the
# largest degree any routine here needs (degree 2k with k = 4).
MAX_ENUM_DEGREE = 8


class Permutation:
    """A bijection of [n], immutable and hashable."""

    __slots__ = ("image",)

    def __init__(self, image):
        image = tuple(int(v) for v in image)
        n = len(image)
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of [{n}]: {image}")
        object.__setattr__(self, "image", image)

    @classmethod
    def _trusted(cls, image):
        """The permutation of a tuple of ints already known to be a
        bijection: the products below build their results here, unchecked."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "image", image)
        return perm

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def n(self):
        return len(self.image)

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

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

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __lt__(self, other):
        return self.image < other.image

    def __repr__(self):
        return f"Permutation({list(self.image)})"

    def inverse(self):
        inv = [0] * self.n
        for i, v in enumerate(self.image, start=1):
            inv[v - 1] = i
        return Permutation._trusted(tuple(inv))

    def is_identity(self):
        return all(v == i for i, v in enumerate(self.image, start=1))

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
    """(sigma pi)(i) = sigma(pi(i))."""
    image, inner = sigma.image, pi.image
    if len(image) != len(inner):
        raise ValueError(f"degree mismatch: {len(image)} vs {len(inner)}")
    return Permutation._trusted(tuple([image[v - 1] for v in inner]))


def embed_join(eta, eta2):
    """The permutation of [2k] acting as eta on [k] and eta2 on [2k] \\ [k]."""
    if eta.n != eta2.n:
        raise ValueError(f"degree mismatch: {eta.n} vs {eta2.n}")
    k = eta.n
    return Permutation._trusted(eta.image + tuple([v + k for v in eta2.image]))


def split_join(sigma):
    """Inverse of embed_join: (eta, eta2) if sigma preserves both halves, else None."""
    n = sigma.n
    if n % 2 != 0:
        raise ValueError("degree must be even")
    k = n // 2
    first, second = sigma.image[:k], sigma.image[k:]
    if any(v > k for v in first):
        return None
    return Permutation._trusted(first), Permutation._trusted(tuple([v - k for v in second]))


@lru_cache(maxsize=None)
def tau(k):
    """The half-swap of [2k]: i <-> i + k."""
    return Permutation._trusted(tuple(range(k + 1, 2 * k + 1)) + tuple(range(1, k + 1)))


@lru_cache(maxsize=None)
def group(n):
    """All n! permutations of [n] in lexicographic one-line order, built
    once per degree."""
    if n > MAX_ENUM_DEGREE:
        raise ValueError(f"degree {n} exceeds enumeration bound {MAX_ENUM_DEGREE}")
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
