"""Shared desk-scale fixtures for the test suite."""

from functools import lru_cache

from absorb import structure, subset, with_singletons
from absorb.corpus import build_corpus

B0 = subset([0])
B1 = subset([1])

LEQ = [(0, 0), (0, 1), (1, 1)]
AFF = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
NEQ = [(0, 1), (1, 0)]


def triv1():
    """One-element structure with no relations."""
    return structure(1, {})


def ord2():
    """Two-element order with both singletons: the classic absorbing case."""
    return structure(2, {"leq": LEQ, "s0": [(0,)], "s1": [(1,)]})


def aff2():
    """Ternary affine (xor) relation: no proper absorption anywhere."""
    return structure(2, {"aff": AFF, "s0": [(0,)], "s1": [(1,)]})


def neq2():
    """Disequality with singletons: absorbing (majority), yet {0}-essential
    binary subpowers exist — the surgery/comb fixture."""
    return structure(2, {"neq": NEQ, "s0": [(0,)], "s1": [(1,)]})


def ord2_bare():
    """The order relation without singleton relations."""
    return structure(2, {"leq": LEQ})


@lru_cache(maxsize=None)
def corpus2(max_arity=3):
    """The full two-element corpus used by the acceptance sweeps."""
    return build_corpus(2, max_arity)


def expand(a):
    return with_singletons(a)
