"""Exact expected traces of words at finite N.

Every evaluator here takes a Word of the moments module, whose interleaved
permutations are folded into its letters (Letter.followed_by).  The L
letters sit on a cyclic strip of k rows and L columns, whose vertex (row r,
column c) has id (c-1)*k + (r-1).  Letter l reads the tensor entry e_l, a
tuple of 2k vertex ids (strip_entries): its matrix row indices are column l
and its column indices column l+1 (cyclically), swapped for an adjoint
letter, and routed through its flattening permutation.  The expected
normalized trace is

    N^-k * sum over vertex maps i of E[prod_l X_{i(e_l)}^{eps_l}],

and since entries at distinct tuples are independent, the moment-cumulant
formula (Nica-Speicher, Lectures on the Combinatorics of Free Probability,
2006) turns it into a sum over partitions pi of the L letters.  Block B of
pi holds m_B plain and n_B adjoint letters, and the joint cumulant of the
entry law is kappa[m, n] = K[m, n] N^(-k (m + n) / 2), with K free of N
(TensorModel.cumulant_table, built once per law and order).  The block
sizes add up to L, so

    E tr W = N^(-k - kL/2) * sum_pi N^comps(pi) * prod_{B in pi} K[m_B, n_B],

where comps(pi) counts the components of the vertices once the tuples of
the letters in each block are identified coordinatewise.  N enters only
through the powers, so a word's value at every size is one sum of powers
of N, the coefficient of N^(comps - k - kL/2) being the sum of prod K over
the partitions with comps components (TracePolynomial).
full_trace_expect_detailed walks the partitions once, enumerating only
blocks with a nonzero cumulant, and only while the letters left can still
be covered: a block partition with nonzero weights exists only for (plain,
adjoint) letter counts that are sums of the (m, n) with K[m, n] != 0
(CumulantTable.coverable).  A word outside that set, such as an odd word
under any law with balanced or even support, or one with unequal plain and
adjoint counts under complex Ginibre, is 0 at once, with no partition
summed.  The Gaussian laws have K = 1 on their support, so their
coefficients are integers: partition counts.

The vertex-partition picture stays as well: summing the injective trace of
every vertex-partition quotient (inj_trace_expect) gives the same value,
and the q-profiles of those quotients carry the exponent bounds of the
graph combinatorics.  Both are independent of the Monte Carlo sampler and
of the limit recursion.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .group_algebra import AlgebraElement
from .perms import group, guard


def strip_entries(w):
    """The entry tuple e_l of each letter of the Word, in letter order: its
    rows, then its columns (swapped for an adjoint letter), coordinate p at
    place sigma(p) (module docstring)."""
    L, k = len(w), w.k
    if L < 1:
        raise ValueError("word must have at least one letter")
    out = []
    for l, letter in enumerate(w.letters):
        rows = tuple(range(l * k, (l + 1) * k))
        cols = tuple(range((l + 1) % L * k, ((l + 1) % L + 1) * k))
        half = rows + cols if letter.eps == "1" else cols + rows
        out.append(tuple(half[letter.sigma(p) - 1] for p in range(1, 2 * k + 1)))
    return out


def n_blocks(labeling):
    return max(labeling) + 1 if labeling else 0


def dependence_classes(w, labeling):
    """The (m, n) letter counts, plain and adjoint, of each group of letters
    that read the same tensor entry of the quotient by the labeling."""
    groups = {}
    for letter, entry in zip(w.letters, strip_entries(w)):
        counts = groups.setdefault(tuple(labeling[v] for v in entry), [0, 0])
        counts[letter.eps != "1"] += 1
    return [tuple(counts) for counts in groups.values()]


def inj_trace_expect(w, labeling, N, model):
    """Expected normalized injective trace of the quotient of the Word's
    strip by the labeling.

    Equals N^(-k - k * #classes) * N!/(N - #blocks)! * product over classes
    of N^k * E[entry^m conj(entry)^n]; zero when the partition has more
    blocks than N or when a centered model leaves a singleton class.
    """
    k = w.k
    blocks = n_blocks(labeling)
    if blocks > N:
        return 0.0
    classes = dependence_classes(w, labeling)
    weight = 1.0 + 0.0j
    for m, n in classes:
        mom = model.entry_moment(m, n, N, k)
        if mom == 0:
            return 0.0
        weight *= N**k * mom
    falling = 1.0
    for i in range(blocks):
        falling *= N - i
    return float(N) ** (-k - k * len(classes)) * falling * weight


MAX_LETTERS = 12  # the letter partitions grow like Bell(L)


def check_letters(L):
    """The oracle's guard on a word of L letters."""
    guard("oracle letters L", L, MAX_LETTERS)


class TracePolynomial(NamedTuple):
    """A word's exact expected normalized trace at every N: terms holds the
    nonzero (power, coefficient) pairs of the polynomial in N, in descending
    power (module docstring), count the letter partitions summed and pruned
    the candidate blocks skipped."""

    terms: tuple
    count: int
    pruned: int

    def at(self, N):
        """The expected trace at size N."""
        return sum((coeff * float(N) ** power for power, coeff in self.terms), 0j)

    def to_json(self):
        """The terms as [power, re, im] lists (the oracle's JSON report)."""
        return [[power, complex(c).real, complex(c).imag] for power, c in self.terms]


def full_trace_expect(w, N, model):
    """Exact expected normalized trace of the Word at size N."""
    return full_trace_expect_detailed(w, model).at(N)


def full_trace_expect_detailed(w, model):
    """The TracePolynomial of the Word: the letter-partition cumulant sum of
    the module docstring, by power of N, with the number of letter
    partitions summed and the number of candidate blocks pruned, for a zero
    cumulant or for leaving letters that no blocks with nonzero cumulants
    can cover.  A word whose own letter counts cannot be covered has no
    terms and counts (0, 0).

    The partitions are built block by block: the block of the lowest letter
    left, then the letters after it.  Components are tracked by relabeling
    the vertices of one side of every merge."""
    L, k = len(w), w.k
    check_letters(L)
    plain = [int(letter.eps == "1") for letter in w.letters]
    P = sum(plain)
    table = model.cumulant_table(L)
    K, coverable = table.K, table.coverable
    if (P, L - P) not in coverable:
        return TracePolynomial((), 0, 0)
    entries = strip_entries(w)
    coeffs = [0.0] * (k * L + 1)  # by component count
    count = pruned = 0

    def extend(left, labels, comps, weight):
        nonlocal count, pruned
        if not left:
            coeffs[comps] += weight
            count += 1
            return
        first, rest = left[0], left[1:]
        plains = [l for l in rest if plain[l]]
        adjoints = [l for l in rest if not plain[l]]
        for a in range(len(plains) + 1):
            for b in range(len(adjoints) + 1):
                kap = K[(a + plain[first], b + 1 - plain[first])]
                if kap == 0 or (len(plains) - a, len(adjoints) - b) not in coverable:
                    pruned += math.comb(len(plains), a) * math.comb(len(adjoints), b)
                    continue
                for with_plain, with_adjoint in itertools.product(
                    itertools.combinations(plains, a), itertools.combinations(adjoints, b)
                ):
                    block = with_plain + with_adjoint
                    lab, c = labels, comps
                    for l in block:
                        for u, v in zip(entries[first], entries[l]):
                            x, y = lab[u], lab[v]
                            if x != y:
                                lab = [x if z == y else z for z in lab]
                                c -= 1
                    extend(tuple(l for l in rest if l not in block), lab, c, weight * kap)

    extend(tuple(range(L)), list(range(k * L)), k * L, 1.0)
    shift = k + (k * L // 2 if k * L % 2 == 0 else k * L / 2)  # an int when it can be
    terms = tuple((c - shift, coeffs[c]) for c in range(k * L, -1, -1) if coeffs[c] != 0)
    return TracePolynomial(terms, count, pruned)


def word_cond_expect_exact(w, N, model):
    """Exact expectation of the finite-N conditional expectation of a Word,
    as a group-algebra element: the coefficient of u_eta is the expected
    trace of the word twisted by eta (Word.twisted)."""
    coeffs = {eta: full_trace_expect(w.twisted(eta), N, model) for eta in group(w.k)}
    return AlgebraElement(w.k, coeffs)


def q_profile(w, labeling):
    """The non-increasing exponent sequence of the growth construction.

    Position l counts blocks among the first l+1 columns (all vertices at
    l = L) minus k times the skeleton edge count of the first l letters (the
    distinct block sets their entries touch), minus k.  The final value
    bounds the N-scaling exponent of the quotient's expected injective
    trace.
    """
    k, L = w.k, len(w)
    blocksets = [frozenset(labeling[v] for v in entry) for entry in strip_entries(w)]
    seq = []
    for l in range(L + 1):
        vcount = len(set(labeling[: k * min(l + 1, L)]))
        seq.append(-k - k * len(set(blocksets[:l])) + vcount)
    return seq, seq[-1]
