"""Test-only references: permutation operators applied by index gathering,
the direct and injective traces of a strip hypergraph on a fixed tensor,
and the set partitions that the vertex-partition sums run over.  The
library's fast paths are checked against these (acceptance criteria 1 and
6, tests/test_tensors.py and tests/test_traffic.py)."""

import itertools

import numpy as np

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
