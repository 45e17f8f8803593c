"""Test-only references: permutation operators applied by index gathering,
the direct and injective traces of a word's strip on a fixed tensor,
the set partitions that the vertex-partition sums run over, the branch
rule of the pair covariance (the reference for moments.covariance, which
reads one half-swap-twisted product instead of four branches and an
adjoint recursion), the pairing sum of a word expectation
without its early exit, and the entry cumulants at one size N (the
reference for TensorModel's N-free cumulant table).  The library's fast
paths are checked against these (acceptance criteria 1 and 6,
tests/test_tensors.py, tests/test_traffic.py, tests/test_perms.py and
tests/test_moments.py)."""

import itertools
import math

import numpy as np

from tensorflat.group_algebra import AlgebraElement
from tensorflat.moments import Letter, _nc_pairings
from tensorflat.perms import Permutation, tau
from tensorflat.tensors import _N_of, tuple_index_map
from tensorflat.traffic import n_blocks, strip_entries


def apply_perm_left(eta, A):
    """U_eta @ A via row gathering (no dense matmul)."""
    return A[tuple_index_map(eta, _N_of(A, eta.n))]


def apply_perm_right(A, eta):
    """A @ U_eta via column gathering."""
    return A[:, tuple_index_map(eta.inverse(), _N_of(A, eta.n))]


def set_partitions(n):
    """All partitions of {0..n-1} as block-index arrays (restricted growth)."""
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def rec(i, max_block):
        if i == n:
            yield tuple(rgs)
            return
        for b in range(max_block + 2):
            rgs[i] = b
            yield from rec(i + 1, max(max_block, b))

    yield from rec(1, 0)


def _entry_product(w, entries, tensor, assignment):
    """The product over the letters of the entries they read, with the
    strip's vertices mapped by assignment, conjugated on adjoint letters."""
    prod = 1.0 + 0.0j
    for letter, entry in zip(w.letters, entries):
        val = tensor.entries[tuple(assignment[v] for v in entry)]
        prod *= val.conjugate() if letter.eps == "*" else val
    return prod


def trace_of_graph(w, tensor):
    """Direct evaluation of the normalized trace sum over all maps of the
    Word's strip vertices into [N], for a fixed sampled tensor.  Test
    reference, exponential cost.
    """
    N, k = tensor.N, tensor.k
    entries = strip_entries(w)
    total = 0.0 + 0.0j
    for assignment in np.ndindex(*(N,) * (k * len(w))):
        total += _entry_product(w, entries, tensor, assignment)
    return total / N**k


def inj_trace_of_graph(w, labeling, tensor):
    """Normalized injective trace of the quotient of the Word's strip by the
    labeling, for a fixed sampled tensor: only maps assigning distinct values
    to distinct blocks contribute."""
    N, k = tensor.N, tensor.k
    blocks = n_blocks(labeling)
    if blocks > N:
        return 0.0
    entries = strip_entries(w)
    total = 0.0 + 0.0j
    for values in itertools.permutations(range(N), blocks):
        total += _entry_product(w, entries, tensor, tuple(values[b] for b in labeling))
    return total / N**k


def split_join(sigma):
    """Inverse of embed_join: (eta, eta2) if sigma preserves both halves, else None."""
    n = sigma.n
    if n % 2 != 0:
        raise ValueError("degree must be even")
    k = n // 2
    first, second = sigma.image[:k], sigma.image[k:]
    if any(v > k for v in first):
        return None
    return Permutation(first), Permutation([v - k for v in second])


def covariance_by_branches(l, eta, l2, c, cp):
    """The reference for moments.covariance: the limiting covariance of
    letter * u_eta * letter2, decided by whether the two flattening
    permutations differ by a half-preserving factor (twisted by the
    half-swap for same-eps pairs), with the (*, *) case the adjoint of the
    (1, 1) one."""
    k = eta.n
    if (l.eps, l2.eps) == ("*", "*"):
        inner = covariance_by_branches(
            Letter(l2.sigma, "1"), eta.inverse(), Letter(l.sigma, "1"), c, cp
        )
        return inner.adjoint()
    d = l.sigma * l2.sigma.inverse()
    if (l.eps, l2.eps) == ("1", "*"):
        split = split_join(d)
        if split is not None and split[1] == eta:
            return c * AlgebraElement.basis(split[0])
        return AlgebraElement.zero(k)
    if (l.eps, l2.eps) == ("*", "1"):
        split = split_join(d)
        if split is not None and split[0] == eta:
            return c * AlgebraElement.basis(split[1])
        return AlgebraElement.zero(k)
    # (1, 1): sigma = tau (eta join eta') sigma'
    split = split_join(tau(k) * d)
    if split is not None and split[0] == eta:
        return cp * AlgebraElement.basis(split[1])
    return AlgebraElement.zero(k)


def word_expectation_every_pairing(w, c, cp):
    """The sum over non-crossing pairings of moments.word_expectation_enumerated,
    with every pairing walked to its end even when a covariance has
    vanished, every covariance taken by the branch rule, and every value
    kept as a group-algebra element.  The enumerator carries a pairing's
    value as one (coefficient, permutation) monomial in place of an
    element, but the pairings, their order and the products of the
    coefficients on a surviving pairing, value * (inner * weight), are the
    same, so the two sums agree exactly (==)."""

    def through(l, x, l2):
        out = AlgebraElement.zero(w.k)
        for mu, coeff in x.coeffs.items():
            out = out + coeff * covariance_by_branches(l, mu, l2, c, cp)
        return out

    def walk(pairs):
        # the pairs of one segment, sorted: the first one opens it
        value = AlgebraElement.unit(w.k)
        while pairs:
            (a, b), rest = pairs[0], pairs[1:]
            inner = [p for p in rest if p[0] < b]
            pairs = [p for p in rest if p[0] > b]
            value = value * through(w.letters[a], walk(inner), w.letters[b])
        return value

    total = AlgebraElement.zero(w.k)
    for pairing in _nc_pairings(tuple(range(len(w)))):
        total = total + walk(sorted(pairing))
    return total


def entry_cumulants_per_N(model, order, N, k):
    """The reference for TensorModel.cumulant_table at size N, whose
    K[m, n] N^(-k (m + n) / 2) should be the joint cumulant kappa[m, n]: the
    kappa[m, n], for 1 <= m + n <= order, from the moments at that size.
    The Gaussian laws have closed forms whose zeros are exact: only
    kappa[1, 1] = N^-k (complex), or the three second-order cumulants
    (real).  The diluted law runs the moment-cumulant recursion over
    entry_moment at size N, splitting off the block of one plain copy (of
    one conjugate copy when m = 0):
      mu[m, n] = sum_{a, b} C(m-1, a) C(n, b) kappa[a+1, b] mu[m-1-a, n-b].
    No value is rounded to zero."""
    keys = [(m, s - m) for s in range(1, order + 1) for m in range(s + 1)]
    if model.kind != "diluted":
        support = {(1, 1)} if model.kind == "complex_ginibre" else {(2, 0), (1, 1), (0, 2)}
        return {key: float(N) ** -k if key in support else 0.0 for key in keys}
    mu = {key: model.entry_moment(*key, N, k) for key in keys}
    mu[(0, 0)] = 1.0
    kappa = {}
    for m, n in keys:
        if m:
            rest = sum(
                math.comb(m - 1, a) * math.comb(n, b) * kappa[(a + 1, b)] * mu[(m - 1 - a, n - b)]
                for a in range(m) for b in range(n + 1) if (a, b) != (m - 1, n)
            )
        else:
            rest = sum(
                math.comb(n - 1, b) * kappa[(0, b + 1)] * mu[(0, n - 1 - b)]
                for b in range(n - 1)
            )
        kappa[(m, n)] = mu[(m, n)] - rest
    return kappa
