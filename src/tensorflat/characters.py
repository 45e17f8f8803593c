"""Integer partitions and irreducible symmetric-group characters.

Characters are evaluated by the Murnaghan-Nakayama border-strip recursion,
implemented on beta-sets (first-column hook lengths): removing a border
strip of length t from the diagram corresponds to replacing some beta
number b by b - t, and the sign is (-1) raised to the number of beta
numbers strictly between them.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .perms import group


def check_partition(parts):
    """parts as a tuple, if weakly decreasing positive ints (no bool or float)."""
    parts = tuple(parts)
    if not all(type(p) is int and p >= 1 for p in parts) or any(
        a < b for a, b in zip(parts, parts[1:])
    ):
        raise ValueError(f"not a weakly decreasing positive partition: {parts}")
    return parts


@lru_cache(maxsize=None)
def enumerate_partitions(n):
    """All integer partitions of n, in reverse lexicographic order."""
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    return tuple(out)


def _beta_set(lam):
    r = len(lam)
    return [lam[i] + (r - 1 - i) for i in range(r)]


def _partition_from_beta(beta):
    beta = sorted(beta, reverse=True)
    r = len(beta)
    parts = [beta[i] - (r - 1 - i) for i in range(r)]
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def character(lam, mu):
    """chi^lam evaluated on the conjugacy class of cycle type mu, exact integer."""
    lam = check_partition(lam) if lam else ()
    mu = check_partition(mu) if mu else ()
    if sum(lam) != sum(mu):
        raise ValueError(f"partitions of different integers: {lam} vs {mu}")
    if not lam:
        return 1
    t = mu[0]
    rest = mu[1:]
    beta = _beta_set(lam)
    beta_fast = set(beta)
    total = 0
    for b in beta:
        if b - t < 0 or (b - t) in beta_fast:
            continue
        height = sum(1 for x in beta if b - t < x < b)
        new_beta = [x for x in beta if x != b] + [b - t]
        total += (-1) ** height * character(_partition_from_beta(new_beta), rest)
    return total


def dimension(lam):
    """Dimension of the irreducible representation labelled by lam."""
    lam = check_partition(lam)
    return character(lam, (1,) * sum(lam))


def character_value(lam, sigma):
    """chi^lam at a permutation, routed through its cycle type."""
    return character(tuple(lam), sigma.cycle_type())


def character_convolution_check(k):
    """Exact integer identity: summing chi^rho(eta mu) chi^rho2(mu) over the
    group gives delta_{rho,rho2} (k!/dim rho) chi^rho(eta) for every eta.
    """
    elements = group(k)
    fact = math.factorial(k)
    for rho in enumerate_partitions(k):
        d = dimension(rho)
        for rho2 in enumerate_partitions(k):
            for eta in elements:
                lhs = sum(
                    character_value(rho, eta * mu) * character_value(rho2, mu)
                    for mu in elements
                )
                if rho == rho2:
                    num = fact * character_value(rho, eta)
                    if num % d != 0 or lhs != num // d:
                        return False
                elif lhs != 0:
                    return False
    return True
