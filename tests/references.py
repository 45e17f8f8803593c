"""Test-only references: permutation operators applied by index gathering,
the direct and injective traces of a strip hypergraph on a fixed tensor,
the set partitions that the vertex-partition sums run over, and the
pairing sum of a word expectation without its early exit.  The library's
fast paths are checked against these (acceptance criteria 1 and 6,
tests/test_tensors.py, tests/test_traffic.py and tests/test_moments.py)."""

import itertools

import numpy as np

from tensorflat.group_algebra import AlgebraElement
from tensorflat.moments import _nc_pairings, _pair_cov
from tensorflat.tensors import _N_of, tuple_index_map
from tensorflat.traffic import _edge_entry, n_blocks


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


def trace_of_graph(T, tensor):
    """Direct evaluation of the normalized trace sum over all vertex maps
    into [N], for a fixed sampled tensor.  Test reference, exponential cost.
    """
    N, k = tensor.N, tensor.k
    total = 0.0 + 0.0j
    for assignment in np.ndindex(*(N,) * T.n_vertices):
        prod = 1.0 + 0.0j
        for edge in T.edges:
            val = tensor.entries[_edge_entry(edge, assignment, k)]
            if edge.eps == "*":
                val = val.conjugate()
            prod *= val
        total += prod
    return total / N**k


def inj_trace_of_graph(T, labeling, tensor):
    """Normalized injective trace of a quotient for a fixed sampled tensor:
    only labelings assigning distinct values to distinct blocks contribute."""
    N, k = tensor.N, tensor.k
    blocks = n_blocks(labeling)
    if blocks > N:
        return 0.0
    total = 0.0 + 0.0j
    for values in itertools.permutations(range(N), blocks):
        assignment = tuple(values[b] for b in labeling)
        prod = 1.0 + 0.0j
        for edge in T.edges:
            val = tensor.entries[_edge_entry(edge, assignment, k)]
            if edge.eps == "*":
                val = val.conjugate()
            prod *= val
        total += prod
    return total / N**k


def word_expectation_every_pairing(w, c, cp):
    """The sum over non-crossing pairings of moments.word_expectation_enumerated,
    with every pairing collapsed to its last pair even when an earlier pair
    covariance has vanished.  The pairings, their order and the arithmetic
    on a surviving pairing are the same, so the two agree exactly."""
    k, L = w.k, len(w)
    if L == 0:
        return AlgebraElement.unit(k)
    if L % 2:
        return AlgebraElement.zero(k)
    unit = AlgebraElement.unit(k)
    total = AlgebraElement.zero(k)
    for pairing in _nc_pairings(tuple(range(L))):
        pairs = sorted(pairing)
        elements = [(unit, letter, unit) for letter in w.letters]
        positions = list(range(L))
        while True:
            # collapse the first pair that occupies adjacent positions
            pidx, ia, ib = next(
                (i, positions.index(a), positions.index(b))
                for i, (a, b) in enumerate(pairs)
                if positions.index(b) == positions.index(a) + 1
            )
            val = _pair_cov(elements[ia], elements[ib], c, cp)
            del pairs[pidx]
            if len(positions) == 2:
                break
            if ia > 0:
                left, letter, right = elements[ia - 1]
                elements[ia - 1] = (left, letter, right * val)
            else:
                left, letter, right = elements[ib + 1]
                elements[ib + 1] = (val * left, letter, right)
            del elements[ia : ib + 1]
            del positions[ia : ib + 1]
        total = total + val
    return total
