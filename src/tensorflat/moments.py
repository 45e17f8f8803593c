"""Exact limit theory for words in flattening letters.

The limiting family is circular over the group algebra: all cumulants of
order other than two vanish, so every word expectation is a sum over
non-crossing pair partitions of nested two-letter covariances.  The
covariance of a pair of letters is supported on at most one basis element
and is given by a coset membership test on the two flattening permutations.

A word holds letters only.  The bimodule identity
U_eta M_sigma U_eta2^* = M_{(eta join eta2) sigma} holds exactly at every N,
and so in the limit, so a permutation operator between two letters is
folded into the flattening before it (Letter.followed_by) when the word is
read or built, and every evaluator iterates over the same folded letters.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .group_algebra import AlgebraElement
from .perms import Permutation, compose, embed_join, group, split_join, tau


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


def covariance(l, eta, l2, c, cp):
    """The limiting two-letter covariance: the expectation of
    letter * u_eta * letter2 in the group algebra.

    Supported on at most one basis element; which one is decided by whether
    the two flattening permutations differ by a half-preserving factor
    (possibly twisted by the half-swap for same-eps pairs).
    """
    k = eta.n
    if (l.eps, l2.eps) == ("*", "*"):
        # adjoint reduction to the (1, 1) case
        inner = covariance(Letter(l2.sigma, "1"), eta.inverse(), Letter(l.sigma, "1"), c, cp)
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


def enumerate_nc_pairings(n):
    """All non-crossing pair partitions of [n] (0-based pairs internally),
    as a fresh list; the pairings are built once per n."""
    return list(_nc_pairing_table(n))


@lru_cache(maxsize=None)
def _nc_pairing_table(n):
    if n % 2:
        return ()
    if n > 20:
        raise ValueError(f"n={n} exceeds pairing enumeration bound 20")
    return tuple(tuple(sorted(p)) for p in _nc_pairings(tuple(range(n))))


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

    The first letter is paired with each admissible position j; the inner
    segment is evaluated first and folded into the middle argument of the
    pair covariance (module linearity), then the outer segment multiplies on
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
        inner = _wick(k, letters[1:j], c, cp, cache)
        paircov = AlgebraElement.zero(k)
        for mu, coeff in inner.coeffs.items():
            paircov = paircov + coeff * covariance(letters[0], mu, letters[j], c, cp)
        if paircov.is_zero():
            continue
        outer = _wick(k, letters[j + 1 :], c, cp, cache)
        total = total + paircov * outer
    cache[letters] = total
    return total


def word_expectation_enumerated(w, c, cp):
    """Oracle evaluator: explicit sum over non-crossing pair partitions with
    nested interval-first evaluation.  Independent code path from the
    recursion above; used to cross-check it.  A pairing stops at its first
    vanishing pair covariance, since zero absorbs every later product and a
    zero pairing adds nothing to the sum.
    """
    k = w.k
    L = len(w)
    if L == 0:
        return AlgebraElement.unit(k)
    if L % 2:
        return AlgebraElement.zero(k)
    unit = AlgebraElement.unit(k)
    total = AlgebraElement.zero(k)
    for pairing in enumerate_nc_pairings(L):
        elements = [(unit, letter, unit) for letter in w.letters]
        total = total + _eval_pairing(list(pairing), elements, c, cp)
    return total


def _pair_cov(e1, e2, c, cp):
    left1, l1, right1 = e1
    left2, l2, right2 = e2
    middle = right1 * left2
    out = AlgebraElement.zero(l1.k)
    for mu, coeff in middle.coeffs.items():
        out = out + coeff * covariance(l1, mu, l2, c, cp)
    return left1 * out * right2


def _eval_pairing(pairs, elements, c, cp):
    # repeatedly collapse the innermost interval pair (adjacent positions)
    positions = list(range(len(elements)))
    while pairs:
        # find a pair occupying adjacent current positions
        for pidx, (a, b) in enumerate(pairs):
            ia, ib = positions.index(a), positions.index(b)
            if ib == ia + 1:
                break
        else:
            raise AssertionError("non-crossing pairing has no interval block")
        val = _pair_cov(elements[ia], elements[ib], c, cp)
        del pairs[pidx]
        if len(positions) == 2 or val.is_zero():
            return val
        if ia > 0:
            left, letter, right = elements[ia - 1]
            elements[ia - 1] = (left, letter, right * val)
        else:
            left, letter, right = elements[ib + 1]
            elements[ib + 1] = (val * left, letter, right)
        del elements[ia : ib + 1]
        del positions[ia : ib + 1]
    raise AssertionError("unreachable")


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

    def adjoint_letters(self):
        """Terms of the adjoint mixture (eps flipped, coefficients conjugated),
        built once per mixture."""
        return self._adjoint

    @cached_property
    def _adjoint(self):
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


@lru_cache(maxsize=None)
def _partners(eta):
    """The cosets where covariance(l1, eta, l2) can be nonzero: for each
    pair (eps of l1, eps of l2), the pairs (g, b) such that l1 pairs with
    l2 only if sigma1 = g sigma2, and then their covariance is a multiple
    of u_b:
      (1, *): sigma1 = (b join eta) sigma2        -> c u_b
      (*, 1): sigma1 = (eta join b) sigma2        -> c u_b
      (1, 1): sigma1 = tau (eta join b) sigma2    -> c' u_b
      (*, *): sigma1 = (eta join b) tau sigma2    -> conj(c') u_b,
    the last one the adjoint of the (1, 1) case."""
    t = tau(eta.n)
    joins = [(b, embed_join(b, eta), embed_join(eta, b)) for b in group(eta.n)]
    return {
        ("1", "*"): [(b_eta, b) for b, b_eta, _ in joins],
        ("*", "1"): [(eta_b, b) for b, _, eta_b in joins],
        ("1", "1"): [(t * eta_b, b) for b, _, eta_b in joins],
        ("*", "*"): [(eta_b * t, b) for b, _, eta_b in joins],
    }


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
    first, second = s.by_eps, (s2.adjoint_letters() if conj_second else s2).by_eps
    weights = {("1", "*"): c, ("*", "1"): c, ("1", "1"): cp, ("*", "*"): cp.conjugate()}
    out = {}
    for (eps1, eps2), pairs in _partners(eta).items():
        terms1, w = first[eps1], weights[eps1, eps2]
        if not terms1 or w == 0:
            continue
        for sigma2, c2 in second[eps2].items():
            for g, b in pairs:
                c1 = terms1.get(compose(g, sigma2))
                if c1 is not None:
                    out[b] = out.get(b, 0) + c1 * c2 * w
    return AlgebraElement._trusted(eta.n, out)


def target_scale(which, k, c, cp=0.0):
    """The divisor of the spectral target `which` (S1, S2 or S3): the square
    root of (2k)! k! c, with 2 (c + Re c') in place of c for the Hermitian
    S3, so that the limiting nonzero spectral component has unit variance."""
    if which == "S3":
        c = 2 * (c + complex(cp).real)
        if c <= 0:
            raise ValueError("c + Re c' must be positive for the Hermitian target")
    elif which not in ("S1", "S2"):
        raise ValueError(f"unknown target {which!r}")
    return math.sqrt(math.factorial(2 * k) * math.factorial(k) * c)


def all_sigma_mixture(k, c, signed=False):
    """The normalized sum of all flattenings (optionally signature-weighted):
    the target S1, or S2 when signed."""
    norm = 1.0 / target_scale("S2" if signed else "S1", k, c)
    terms = {}
    for sigma in group(2 * k):
        w = sigma.signature() if signed else 1
        terms[Letter(sigma, "1")] = w * norm
    return Mixture.from_map(k, terms)


def hermitized_mixture(k, c, cp):
    """The normalized Hermitian sum of all flattenings plus their adjoints:
    the target S3."""
    norm = 1.0 / target_scale("S3", k, c, cp)
    terms = {}
    for sigma in group(2 * k):
        terms[Letter(sigma, "1")] = norm
        terms[Letter(sigma, "*")] = norm
    return Mixture.from_map(k, terms)


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


def predicted_moments(target, k, n_max):
    """Limiting moments of the spectral targets.

    For the two non-Hermitian targets these are the moments of (SS*)^n; for
    the Hermitian one they are the moments of S^n (odd ones vanish).
    """
    if n_max > 12:
        raise ValueError("n_max exceeds guard 12")
    kfact = math.factorial(k)
    if target in ("S1", "S2"):
        return [catalan(n) / kfact for n in range(1, n_max + 1)]
    if target == "S3":
        return [
            0.0 if n % 2 else catalan(n // 2) / kfact for n in range(1, n_max + 1)
        ]
    raise ValueError(f"unknown target {target!r}")
