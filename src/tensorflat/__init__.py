"""Flattenings of large random tensors: exact finite-size identities,
limit moments over the symmetric-group algebra, and an injective-trace
oracle tying them together."""

__version__ = "0.1.0"

from .group_algebra import AlgebraElement
from .moments import Letter, Mixture, Word, covariance, word_expectation, word_phi
from .perms import Permutation, compose, embed_join, tau
from .tensors import (
    FlatMatrix,
    RandomTensor,
    TensorModel,
    cond_expect_N,
    flatten,
    perm_matrix,
    phi_N,
    sample_tensor,
    word_eval,
)
from .traffic import build_test_hypergraph, full_trace_expect, q_profile

__all__ = [
    "AlgebraElement",
    "FlatMatrix",
    "Letter",
    "Mixture",
    "Permutation",
    "RandomTensor",
    "TensorModel",
    "Word",
    "build_test_hypergraph",
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
    "tau",
    "word_eval",
    "word_expectation",
    "word_phi",
]
