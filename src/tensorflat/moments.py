"""Exact limit theory for words in flattening letters.

The limiting family is circular over the group algebra: all cumulants of
order other than two vanish, so every word expectation is a sum over
non-crossing pair partitions of nested two-letter covariances.  The
covariance of a pair of letters is supported on at most one basis element
and is given by a coset membership test on the two flattening permutations,
written once (_partner): covariance reads it off the two permutations,
and mixture_covariance reads its table over S_k (_partners).
word_expectation sums the pairings by recursion on the first letter's
partner, in the group algebra (covariance, multiply).  Its cross-check
word_expectation_enumerated lists the pairings and walks each one's
nesting: through one basis element a covariance is a weight times one
basis element or zero, so a pairing's value is one monomial, carried as
(coefficient, permutation).

A word holds letters only.  The bimodule identity
U_eta M_sigma U_eta2^* = M_{(eta join eta2) sigma} holds exactly at every N,
and so in the limit, so a permutation operator between two letters is
folded into the flattening before it (Letter.followed_by) when the word is
read or built, and every evaluator iterates over the same folded letters.

The spectral targets S1, S2 and S3 are defined here and nowhere else, as
the members of Target: each carries its flags (signed, hermitian), its
scale, its Mixture and the closed forms of its limiting moments.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .group_algebra import AlgebraElement
from .perms import Permutation, compose, embed_join, group, guard, tau

MAX_PAIRING_POINTS = 20  # the enumerated cross-check lists Catalan(10) = 16,796 pairings
# moment n needs the powers of B*B (or of a Hermitian B) up to ceil(n/2): at 12,
# six products, each even power the Gram product of its half, 3 and 5 general
MAX_MOMENT_ORDER = 12


@dataclass(frozen=True)
class Letter:
    sigma: Permutation
    eps: str  # "1" or "*"

    def __post_init__(self):
        if self.eps not in ("1", "*"):
            raise ValueError(f"eps must be '1' or '*', got {self.eps!r}")
        if self.sigma.n % 2 != 0:
            raise ValueError("letter permutation must have even degree")

    @property
    def k(self):
        return self.sigma.n // 2

    def followed_by(self, mu):
        """The letter times the permutation operator U_mu, as one flattening.
        Since U_eta M_sigma U_eta2^* = M_{(eta join eta2) sigma}, a plain
        letter becomes the flattening by (id join mu^-1) sigma and an
        adjoint letter the adjoint of the one by (mu^-1 join id) sigma."""
        if mu.n != self.k:
            raise ValueError(f"degree mismatch: eta has degree {mu.n}, the letter k = {self.k}")
        if mu.is_identity():
            return self
        ident = Permutation.identity(self.k)
        if self.eps == "1":
            outer = embed_join(ident, mu.inverse())
        else:
            outer = embed_join(mu.inverse(), ident)
        return Letter(outer * self.sigma, self.eps)


def letters_from_json(items, eps=None):
    """The letters of a JSON list of {"sigma": image array, "eps": "1" or
    "*"} objects, where a letter without "eps" takes eps when one is given;
    JSON of another shape raises a one-line ValueError."""
    if not isinstance(items, list) or not all(isinstance(i, dict) for i in items):
        raise ValueError("letters must be a list of {sigma, eps} objects")
    try:
        return tuple(
            Letter(Permutation.from_json(i["sigma"]), i.get("eps", eps) if eps else i["eps"])
            for i in items
        )
    except KeyError as exc:
        raise ValueError(f"a letter lacks the key {exc.args[0]!r}") from None


@dataclass(frozen=True)
class Word:
    """A product of flattening letters.  A permutation operator between two
    letters is folded into the letter before it (Letter.followed_by), so a
    word is its letters alone."""

    k: int
    letters: tuple

    def __post_init__(self):
        for l in self.letters:
            if l.k != self.k:
                raise ValueError("letter degree mismatch")

    def __len__(self):
        return len(self.letters)

    def __getitem__(self, part):
        """The sub-word of a slice of the letters."""
        return Word(self.k, self.letters[part])

    def twisted(self, eta):
        """The word with its last letter followed by u_eta^-1.  Since
        tr(W U_eta^*) = tr(W U_eta^-1), its normalized trace is the
        coefficient of u_eta in the conditional expectation of this word."""
        last = tuple(l.followed_by(eta.inverse()) for l in self.letters[-1:])
        return Word(self.k, self.letters[:-1] + last)

    def to_json(self):
        return {
            "k": self.k,
            "letters": [
                {"sigma": list(l.sigma.image), "eps": l.eps} for l in self.letters
            ],
        }

    @classmethod
    def from_json(cls, data):
        """The word of a JSON object (or its text) {"k", "letters"}, with an
        optional "etas": the permutation operator after each letter, folded
        into that letter here.  JSON of another shape raises a one-line
        ValueError naming the fault."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ValueError(f"word JSON must be an object, got {type(data).__name__}")
        try:
            k, items = data["k"], data["letters"]
        except KeyError as exc:
            raise ValueError(f"word JSON lacks the key {exc.args[0]!r}") from None
        if type(k) is not int:  # not isinstance: a bool is an int too
            raise ValueError(f"word JSON: k must be an integer, got {k!r}")
        if k < 1:  # as every --k flag
            raise ValueError(f"word JSON: k must be at least 1, got {k}")
        letters = letters_from_json(items)
        etas = data.get("etas")
        if etas is not None:  # absent or null: every operator is the identity
            if not isinstance(etas, list) or len(etas) != len(letters):
                raise ValueError("word JSON: etas must be a list of one permutation per letter")
            letters = tuple(l.followed_by(Permutation.from_json(e)) for l, e in zip(letters, etas))
        return cls(k, letters)


def plain_word(k, pairs):
    """Word from (sigma, eps) pairs."""
    return Word(k, tuple(Letter(s, e) for s, e in pairs))


def _twist(eps1, eps2, g):
    """The half-swap factor of the pair rule: tau g for (1, 1), g tau for
    (*, *), g itself for mixed eps.  It is its own inverse, as tau is."""
    if eps1 != eps2:
        return g
    t = tau(g.n // 2)
    return compose(t, g) if eps1 == "1" else compose(g, t)


def _partner(eps1, eps2, eta, g):
    """The pair rule: letters with sigma1 sigma2^-1 = g pair at the middle
    element u_eta only in these cosets, and then their covariance is a
    multiple of u_b (_weight):
      (1, *): sigma1 = (b join eta) sigma2
      (*, 1): sigma1 = (eta join b) sigma2
      (1, 1): sigma1 = tau (eta join b) sigma2
      (*, *): sigma1 = (eta join b) tau sigma2,
    the last one the adjoint of the (1, 1) case.  Returns b, or None when
    the letters do not pair; O(k), read off the halves of _twist(g)."""
    k = eta.n
    h = _twist(eps1, eps2, g).image
    lower, upper = h[:k], tuple([v - k for v in h[k:]])
    if (eps1, eps2) == ("1", "*"):
        lower, upper = upper, lower
    # a half equal to eta's image makes h preserve both halves
    return Permutation._trusted(upper) if lower == eta.image else None


@lru_cache(maxsize=None)
def _partners(eta):
    """The pair rule (_partner) as a table over S_k, for mixture_covariance:
    per eps pair, a dict g -> b, g the _twist of b join eta for (1, *) and
    of eta join b otherwise.  Distinct b give distinct g, so each dict has
    k! entries."""
    return {
        (e1, e2): {
            _twist(e1, e2, embed_join(b, eta) if (e1, e2) == ("1", "*") else embed_join(eta, b)): b
            for b in group(eta.n)
        }
        for e1, e2 in (("1", "*"), ("*", "1"), ("1", "1"), ("*", "*"))
    }


def _weight(eps1, eps2, c, cp):
    """The coefficient of a nonzero pair covariance (_partner)."""
    if eps1 != eps2:
        return c
    return cp if eps1 == "1" else cp.conjugate()


def covariance(l, eta, l2, c, cp):
    """The limiting two-letter covariance: the expectation of
    letter * u_eta * letter2 in the group algebra.  It is w u_b when the
    pair rule (_partner) gives b for sigma1 sigma2^-1, and zero
    otherwise."""
    b = _partner(l.eps, l2.eps, eta, compose(l.sigma, l2.sigma.inverse()))
    if b is None:
        return AlgebraElement.zero(eta.n)
    return _weight(l.eps, l2.eps, c, cp) * AlgebraElement.basis(b)


def _covariance_through(l, x, l2, c, cp):
    """The covariance of two letters with the group-algebra element x as
    the middle argument: sum over mu of x_mu covariance(l, mu, l2)."""
    out = AlgebraElement.zero(x.k)
    for mu, coeff in x.coeffs.items():
        out = out + coeff * covariance(l, mu, l2, c, cp)
    return out


@lru_cache(maxsize=None)
def _nc_partner_table(n):
    """All non-crossing pair partitions of [n] (0-based), as partner tuples:
    entry i is the point paired with i.  Built once per n."""
    if n % 2:
        return ()
    guard("pairing points n", n, MAX_PAIRING_POINTS)
    table = []
    for pairing in _nc_pairings(tuple(range(n))):
        partner = dict(pairing) | {b: a for a, b in pairing}
        table.append(tuple(partner[i] for i in range(n)))
    return tuple(table)


def _nc_pairings(points):
    if not points:
        yield ()
        return
    first = points[0]
    for idx in range(1, len(points), 2):
        partner = points[idx]
        inner = points[1:idx]
        outer = points[idx + 1 :]
        for pi in _nc_pairings(inner):
            for po in _nc_pairings(outer):
                yield ((first, partner),) + pi + po


def word_expectation(w, c, cp):
    """Group-algebra expectation of the word, by the pair recursion.

    The first letter is paired with each admissible position j.  The outer
    segment, after j, is evaluated first, and j is skipped when it is zero.
    Otherwise the inner segment is folded into the middle argument of the
    pair covariance (module linearity), and the outer segment multiplies on
    the right.
    """
    return _wick(w.k, w.letters, c, cp, {})


def _wick(k, letters, c, cp, cache):
    L = len(letters)
    if L == 0:
        return AlgebraElement.unit(k)
    if L % 2:
        return AlgebraElement.zero(k)
    hit = cache.get(letters)
    if hit is not None:
        return hit
    total = AlgebraElement.zero(k)
    for j in range(1, L, 2):
        outer = _wick(k, letters[j + 1 :], c, cp, cache)
        if outer.is_zero():
            continue
        inner = _wick(k, letters[1:j], c, cp, cache)
        paircov = _covariance_through(letters[0], inner, letters[j], c, cp)
        if paircov.is_zero():
            continue
        if j < L - 1:  # the empty outer segment is the unit
            paircov = paircov * outer
        total = total + paircov
    cache[letters] = total
    return total


def word_expectation_enumerated(w, c, cp):
    """Oracle evaluator: explicit sum over non-crossing pair partitions,
    each walked along its nesting.  Independent code path from the
    recursion above; used to cross-check it.

    A segment's value is the product, left to right, of the covariances of
    its outer pairs, each taken through the value of the segment the pair
    encloses; the empty segment is the unit.  Through one basis element a
    covariance is a weight times one basis element u_b, or zero, so a
    pairing's value is one monomial, carried as (coefficient, permutation):
    value * (inner * weight) and value b.  A pairing stops at its first
    vanishing covariance, since zero absorbs every later product and a
    zero pairing adds nothing to the sum.
    """
    ident, rule = Permutation.identity(w.k), {}
    for (i, l), (j, l2) in itertools.combinations(enumerate(w.letters), 2):
        # both eps, sigma1 sigma2^-1 and the weight of the pair rule
        g = compose(l.sigma, l2.sigma.inverse())
        rule[i, j] = l.eps, l2.eps, g, _weight(l.eps, l2.eps, c, cp)

    def walk(partner, start, end):
        coeff, perm = 1, ident
        while start < end:
            close = partner[start]
            inner = walk(partner, start + 1, close)
            if inner is None:
                return None
            eps1, eps2, g, weight = rule[start, close]
            cov = inner[0] * weight
            b = _partner(eps1, eps2, inner[1], g) if cov != 0 else None
            if b is None:
                return None
            coeff, perm = coeff * cov, compose(perm, b)
            start = close + 1
        return coeff, perm

    total = {}
    for partner in _nc_partner_table(len(w)):
        value = walk(partner, 0, len(w))
        if value is not None:
            total[value[1]] = total.get(value[1], 0) + value[0]
    return AlgebraElement._trusted(w.k, total)


def word_phi(w, c, cp):
    """Scalar moment: the unit coefficient of the word expectation."""
    return word_expectation(w, c, cp).phi()


# --- mixtures -------------------------------------------------------------


@dataclass(frozen=True)
class Mixture:
    """A linear combination of flattening letters, sum of coeff * m_sigma^eps."""

    k: int
    terms: tuple  # tuple of (Letter, coeff)

    @classmethod
    def from_map(cls, k, mapping):
        """The mixture of a map Letter -> coefficient, zero coefficients
        left out."""
        terms = tuple(
            (letter, complex(coeff))
            for letter, coeff in sorted(
                mapping.items(), key=lambda t: (t[0].sigma.image, t[0].eps)
            )
            if coeff != 0
        )
        return cls(k, terms)

    @cached_property
    def adjoint(self):
        """The adjoint mixture (eps flipped, coefficients conjugated), built
        once per mixture."""
        return Mixture.from_map(
            self.k,
            {
                Letter(l.sigma, "*" if l.eps == "1" else "1"): coeff.conjugate()
                for l, coeff in self.terms
            },
        )

    @cached_property
    def by_eps(self):
        """The terms as {eps: {sigma: coefficient}}, built once per mixture."""
        out = {"1": {}, "*": {}}
        for l, coeff in self.terms:
            out[l.eps][l.sigma] = out[l.eps].get(l.sigma, 0) + coeff
        return out


def mixture_covariance(s, eta, s2, c, cp, conj_second=False):
    """Bilinear expansion of the expectation of S u_eta S2 (or S u_eta S2*).

    A pair of letters has a nonzero covariance only when sigma1 lies in one
    of k! cosets fixed by (sigma2, eta) and the two eps (_partners), so each
    term of S2 looks up its partners among the terms of S: 2 k! lookups per
    term in place of one covariance per pair of terms.  Both mixtures are
    indexed by eps once (Mixture.by_eps), so a table over every eta indexes
    each of them once."""
    if s.k != s2.k or eta.n != s.k:
        raise ValueError("mixture/eta degree mismatch")
    first, second = s.by_eps, (s2.adjoint if conj_second else s2).by_eps
    out = {}
    for (eps1, eps2), pairs in _partners(eta).items():
        terms1, w = first[eps1], _weight(eps1, eps2, c, cp)
        if not terms1 or w == 0:
            continue
        for sigma2, c2 in second[eps2].items():
            for g, b in pairs.items():
                c1 = terms1.get(compose(g, sigma2))
                if c1 is not None:
                    out[b] = out.get(b, 0) + c1 * c2 * w
    return AlgebraElement._trusted(eta.n, out)


class Target(enum.Enum):
    """The three spectral targets, each a normalized sum of all (2k)!
    flattenings: S1 sums them, S2 weights each by its signature (so the
    block lives on Lambda^k in place of Sym^k), and S3 adds their adjoints
    (Hermitian).  A target's name is its label at the command line."""

    S1 = (False, False)
    S2 = (True, False)
    S3 = (False, True)

    def __init__(self, signed, hermitian):
        self.signed = signed
        self.hermitian = hermitian

    def scale(self, k, c, cp=0.0):
        """The divisor of the sum: the square root of (2k)! k! c, with
        2 (c + Re c') in place of c when Hermitian, so that the limiting
        nonzero spectral component has unit variance."""
        if self.hermitian:
            c = 2 * (c + complex(cp).real)
            if c <= 0:
                raise ValueError("c + Re c' must be positive for the Hermitian target")
        return math.sqrt(math.factorial(2 * k) * math.factorial(k) * c)

    def mixture(self, k, c, cp=0.0):
        """The target as a Mixture: every flattening (and its adjoint when
        Hermitian), weighted by its signature when signed, over the scale."""
        norm = 1.0 / self.scale(k, c, cp)
        return Mixture.from_map(
            k,
            {
                Letter(sigma, eps): (sigma.signature() if self.signed else 1) * norm
                for sigma in group(2 * k)
                for eps in (("1", "*") if self.hermitian else ("1",))
            },
        )

    def predicted_moments(self, k, n_max):
        """The limiting moments for n = 1..n_max: those of (SS*)^n, or of
        S^n when Hermitian (the odd ones vanish)."""
        guard("moment order n_max", n_max, MAX_MOMENT_ORDER)
        kfact = math.factorial(k)
        if self.hermitian:
            return [0.0 if n % 2 else catalan(n // 2) / kfact for n in range(1, n_max + 1)]
        return [catalan(n) / kfact for n in range(1, n_max + 1)]


def all_sigma_mixture(k, c, signed=False):
    """The target S1, or S2 when signed, as a Mixture."""
    return (Target.S2 if signed else Target.S1).mixture(k, c)


def hermitized_mixture(k, c, cp):
    """The target S3 as a Mixture."""
    return Target.S3.mixture(k, c, cp)


def character_mixture(k, rho, left_delta=True):
    """The mixture with coefficient delta(eta1 = id) chi^rho(eta2) on the
    flattening by eta1 join eta2; with left_delta=False the character runs
    over both factors, chi^rho(eta1) chi^rho(eta2)."""
    from .characters import character_value

    chi = {eta: character_value(rho, eta) for eta in group(k)}
    left = {Permutation.identity(k): 1} if left_delta else chi
    return Mixture.from_map(
        k,
        {
            Letter(embed_join(eta1, eta2), "1"): a * chi[eta2]
            for eta1, a in left.items()
            for eta2 in group(k)
        },
    )


def parastat_mixture(k, lam):
    """The symmetrizer-style combination with coefficients proportional to
    the character of a representation of the doubled symmetric group,
    evaluated on the flattening permutation itself."""
    from .characters import character_value, dimension

    norm = dimension(lam) / math.factorial(2 * k)
    terms = {}
    for sigma in group(2 * k):
        terms[Letter(sigma, "1")] = norm * character_value(lam, sigma)
    return Mixture.from_map(k, terms)


# --- freeness criteria ----------------------------------------------------


def freeness_conditions(s, s2):
    """Decide asymptotic freeness of two mixtures from the covariance of
    S u_eta S2^* at c = 1, c' = 0 (mixture_covariance).  For mixtures of
    plain letters sum a(eta1, eta2) m_{eta1 join eta2}, the coefficient of
    u_eta1 in that covariance at eta = eta2 is the shifted cross-correlation
    sum_mu a(eta1 mu1, eta2 mu2) conj(a2(mu1, mu2)).

    Returns (cross_free, s_scalar, s2_scalar):
      * cross_free: every coefficient of the covariance of S u_eta S2^*
        vanishes, for every eta;
      * x_scalar: the covariance of X X^* is supported on the unit, so the
        self-correlation of x vanishes for every nontrivial left shift (the
        combination then behaves as an ordinary circular element with
        scalar covariance).
    A coefficient vanishes when its modulus is at most 1e-10.
    """

    def scalar(x):
        cov = mixture_covariance(x, Permutation.identity(x.k), x, 1, 0, conj_second=True)
        return all(abs(c) <= 1e-10 for eta, c in cov.coeffs.items() if not eta.is_identity())

    cross_free = all(
        abs(c) <= 1e-10
        for eta in group(s.k)
        for c in mixture_covariance(s, eta, s2, 1, 0, conj_second=True).coeffs.values()
    )
    return cross_free, scalar(s), scalar(s2)


def scalar_freeness_report(sigmas, c, cp):
    """True iff every pairwise covariance at the identity middle element is
    supported on the identity, for all adjoint combinations of the
    flattenings by the given permutations: the criterion for the family to
    be circular in the scalar sense.
    """
    if not sigmas:
        return True
    ident = Permutation.identity(sigmas[0].n // 2)
    return all(
        eta.is_identity()
        for s, s2 in itertools.product(sigmas, repeat=2)
        for e1, e2 in itertools.product("1*", repeat=2)
        for eta in covariance(Letter(s, e1), ident, Letter(s2, e2), c, cp).support()
    )


@lru_cache(maxsize=None)
def catalan(n):
    return math.comb(2 * n, n) // (n + 1)
