"""Jacobian signs of the log volume form under mutation."""

import pytest

from clusterfrob import (GF, QQ, MutationAtFrozenError, corpus, initial_seed,
                         mutation_path_sign, volume_form_mutation_sign)


def test_single_mutation_sign_is_minus_one():
    for name in corpus.NAMES:
        for fld in (QQ, GF(3)):
            seed = initial_seed(corpus.load(name), fld)
            for k in seed.quiver.mutable:
                assert volume_form_mutation_sign(seed, k) == -1


def test_sign_at_frozen_vertex_rejected():
    seed = initial_seed(corpus.load("mixed-pair"), QQ)
    with pytest.raises(MutationAtFrozenError):
        volume_form_mutation_sign(seed, 1)


def test_path_sign_through_frozen_vertex_rejected():
    seed = initial_seed(corpus.load("mixed-pair"), QQ)
    with pytest.raises(MutationAtFrozenError):
        mutation_path_sign(seed, [0, 1])


def test_path_sign_alternates():
    seed = initial_seed(corpus.load("a3"), QQ)
    assert mutation_path_sign(seed, []) == 1
    assert mutation_path_sign(seed, [0]) == -1
    assert mutation_path_sign(seed, [0, 1]) == 1
    assert mutation_path_sign(seed, [0, 1, 2, 0, 1]) == -1


def test_path_sign_downstream_charts():
    # the per-step identity is recomputed in each successive chart, so a
    # path through wildly different quivers still alternates cleanly
    seed = initial_seed(corpus.load("markov"), GF(5))
    assert mutation_path_sign(seed, [0, 1, 0, 2]) == 1
    assert mutation_path_sign(seed, [2, 1, 2]) == -1
