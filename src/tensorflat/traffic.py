"""Exact expected traces of words via the injective-trace decomposition.

A word of L flattening letters becomes a cyclic strip hypergraph on k rows
and L columns: hyperedge l has inputs in column l+1 (cyclically) and outputs
in column l.  Summing the injective trace of every vertex-partition quotient
reproduces the full expected trace exactly at finite N, which makes this
module an oracle that is independent of both the Monte Carlo sampler and the
limit recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group_algebra import AlgebraElement
from .perms import Permutation, embed_join, group


@dataclass(frozen=True)
class Hyperedge:
    inputs: tuple  # k vertex ids
    outputs: tuple  # k vertex ids
    sigma: Permutation
    eps: str


@dataclass(frozen=True)
class TestHypergraph:
    k: int
    L: int
    n_vertices: int  # k * L, vertex (row r, col c) has id (c-1)*k + (r-1)
    edges: tuple  # of Hyperedge


def build_test_hypergraph(word, k):
    """word is a list of (sigma, eps) with eps in {"1", "*"}."""
    L = len(word)
    if L < 1:
        raise ValueError("word must have at least one letter")
    edges = []
    for l, (sigma, eps) in enumerate(word, start=1):
        if eps in (1, "1"):
            eps = "1"
        elif eps in ("*", "star"):
            eps = "*"
        else:
            raise ValueError(f"bad eps {eps!r}")
        if sigma.n != 2 * k:
            raise ValueError("letter degree mismatch")
        col_out = l
        col_in = l % L + 1
        outputs = tuple((col_out - 1) * k + r for r in range(k))
        inputs = tuple((col_in - 1) * k + r for r in range(k))
        edges.append(Hyperedge(inputs, outputs, sigma, eps))
    return TestHypergraph(k, L, k * L, tuple(edges))


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


def n_blocks(labeling):
    return max(labeling) + 1 if labeling else 0


def _edge_entry(edge, labeling, k):
    """The block tuple of the tensor entry a quotient hyperedge references:
    matrix row indices are the outputs and column indices the inputs for a
    plain letter, swapped for an adjoint letter, then routed through the
    flattening permutation."""
    if edge.eps == "1":
        half = edge.outputs + edge.inputs
    else:
        half = edge.inputs + edge.outputs
    return tuple(labeling[half[edge.sigma(p) - 1]] for p in range(1, 2 * k + 1))


@dataclass(frozen=True)
class DependenceClass:
    members: tuple  # edge indices
    m: int  # count of plain letters
    n: int  # count of adjoint letters
    entry: tuple  # referenced block tuple


def dependence_classes(T, labeling):
    """Group quotient hyperedges referencing the same tensor entry."""
    groups = {}
    for idx, edge in enumerate(T.edges):
        key = _edge_entry(edge, labeling, T.k)
        groups.setdefault(key, []).append(idx)
    out = []
    for key, members in groups.items():
        m = sum(1 for i in members if T.edges[i].eps == "1")
        out.append(
            DependenceClass(tuple(members), m, len(members) - m, key)
        )
    return out


def inj_trace_expect(T, labeling, N, model):
    """Expected normalized injective trace of the quotient by the labeling.

    Equals N^(-k - k * #classes) * N!/(N - #blocks)! * product over classes
    of N^k * E[entry^m conj(entry)^n]; zero when the partition has more
    blocks than N or when a centered model leaves a singleton class.
    """
    k = T.k
    blocks = n_blocks(labeling)
    if blocks > N:
        return 0.0
    classes = dependence_classes(T, labeling)
    weight = 1.0 + 0.0j
    for cl in classes:
        mom = model.entry_moment(cl.m, cl.n, N, k)
        if mom == 0:
            return 0.0
        weight *= N**k * mom
    falling = 1.0
    for i in range(blocks):
        falling *= N - i
    return float(N) ** (-k - k * len(classes)) * falling * weight


def full_trace_expect(word, k, N, model):
    """Exact expected normalized trace of the word, summing the injective
    trace over every partition of the strip vertices."""
    return full_trace_expect_detailed(word, k, N, model)[0]


def full_trace_expect_detailed(word, k, N, model):
    """full_trace_expect, together with how many partitions were enumerated
    and how many were discarded with zero weight."""
    if k * len(word) > 12:
        raise ValueError(f"k*L = {k * len(word)} exceeds partition guard 12")
    T = build_test_hypergraph(word, k)
    total = 0.0 + 0.0j
    count = 0
    zeros = 0
    for labeling in set_partitions(T.n_vertices):
        count += 1
        val = inj_trace_expect(T, labeling, N, model)
        if val == 0:
            zeros += 1
        total += val
    return total, count, zeros


def folded_letters(w, eta):
    """The (sigma, eps) letters of a Word (from the moments module) with its
    interleaved permutation operators absorbed into the flattenings, the
    last one followed by u_eta^{-1}: a plain letter followed by u_mu is the
    flattening by (id join mu^{-1}) sigma, an adjoint letter by
    (mu^{-1} join id) sigma.  The plain expected trace of the result is the
    coefficient of u_eta in the expected conditional expectation."""
    ident = Permutation.identity(w.k)
    L = len(w)
    folded = []
    for idx, letter in enumerate(w.letters):
        mu = w.etas[idx] if idx < L - 1 else w.etas[idx] * eta.inverse()
        if letter.eps == "1":
            sigma = embed_join(ident, mu.inverse()) * letter.sigma
        else:
            sigma = embed_join(mu.inverse(), ident) * letter.sigma
        folded.append((sigma, letter.eps))
    return folded


def word_cond_expect_exact(w, N, model):
    """Exact expectation of the finite-N conditional expectation of a word
    (a Word from the moments module), as a group-algebra element: each
    coefficient is the plain expected trace of the folded_letters."""
    coeffs = {
        eta: full_trace_expect(folded_letters(w, eta), w.k, N, model) for eta in group(w.k)
    }
    return AlgebraElement(w.k, coeffs)


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
    import itertools

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


def _skeleton_edges(T, labeling, upto):
    """Distinct unordered block-sets of the first `upto` hyperedges."""
    seen = set()
    for edge in T.edges[:upto]:
        seen.add(frozenset(labeling[v] for v in edge.inputs + edge.outputs))
    return seen


def q_profile(T, labeling):
    """The non-increasing exponent sequence of the growth construction.

    Position l counts blocks among the first l+1 columns (all vertices at
    l = L) minus k times the skeleton edge count of the first l hyperedges,
    minus k.  The final value bounds the N-scaling exponent of the quotient's
    expected injective trace.
    """
    k, L = T.k, T.L
    seq = []
    for l in range(L + 1):
        if l == 0:
            verts = range(k)  # column 1
        elif l < L:
            verts = range(k * (l + 1))  # columns 1..l+1
        else:
            verts = range(T.n_vertices)
        vcount = len({labeling[v] for v in verts})
        ecount = len(_skeleton_edges(T, labeling, l))
        seq.append(-k - k * ecount + vcount)
    return seq, seq[-1]


def to_dot(T, labeling=None):
    """DOT-like adjacency text for a (quotient) word graph, for debugging."""
    if labeling is None:
        labeling = tuple(range(T.n_vertices))
    lines = [f"hypergraph k={T.k} L={T.L} blocks={n_blocks(labeling)} {{"]
    for idx, edge in enumerate(T.edges, start=1):
        ins = ",".join(str(labeling[v]) for v in edge.inputs)
        outs = ",".join(str(labeling[v]) for v in edge.outputs)
        lines.append(
            f"  e{idx} [sigma={list(edge.sigma.image)} eps={edge.eps}]: "
            f"({ins}) -> ({outs})"
        )
    lines.append("}")
    return "\n".join(lines)
