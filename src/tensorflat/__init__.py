"""Flattenings of large random tensors: exact finite-size identities,
limit moments over the symmetric-group algebra, and an injective-trace
oracle tying them together."""

__version__ = "0.1.0"

from .group_algebra import AlgebraElement
from .moments import Letter, Mixture, Word, covariance, word_expectation, word_phi
from .perms import Permutation, compose, embed_join, tau
from .tensors import (
    RandomTensor,
    TensorModel,
    cond_expect_N,
    flatten,
    perm_matrix,
    phi_N,
    sample_tensor,
    word_eval,
)
from .traffic import full_trace_expect, q_profile, strip_entries

__all__ = [
    "AlgebraElement",
    "Letter",
    "Mixture",
    "Permutation",
    "RandomTensor",
    "TensorModel",
    "Word",
    "compose",
    "cond_expect_N",
    "covariance",
    "embed_join",
    "flatten",
    "full_trace_expect",
    "perm_matrix",
    "phi_N",
    "q_profile",
    "sample_tensor",
    "strip_entries",
    "tau",
    "word_eval",
    "word_expectation",
    "word_phi",
]
