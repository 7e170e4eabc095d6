"""Quiver mutation, acyclicity, serialization."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clusterfrob import (MutationAtFrozenError, NoMutableVertexError, Quiver,
                         QuiverFormatError, corpus, load_quiver_text,
                         quiver_from_dict)


def quiver(b, frozen=()):
    return Quiver(len(b), tuple(tuple(r) for r in b), frozenset(frozen))


def skew(n):
    entry = st.integers(min_value=-3, max_value=3)
    uppers = st.lists(entry, min_size=n * (n - 1) // 2,
                      max_size=n * (n - 1) // 2)

    def build(vals):
        b = [[0] * n for _ in range(n)]
        it = iter(vals)
        for i in range(n):
            for j in range(i + 1, n):
                v = next(it)
                b[i][j] = v
                b[j][i] = -v
        return tuple(tuple(r) for r in b)

    return uppers.map(build)


# -- construction -------------------------------------------------------------


def test_rejects_non_skew():
    with pytest.raises(ValueError):
        quiver([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        quiver([[1, 0], [0, 0]])


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        quiver([[0, 1]])
    with pytest.raises(ValueError):
        Quiver(0, (), frozenset())


def test_isolated_vertices_become_frozen():
    q = quiver([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    assert q.frozen == frozenset({1})
    assert q.mutable == (0, 2)


def test_arrows_listing():
    q = quiver([[0, 2, -1], [-2, 0, 0], [1, 0, 0]])
    assert q.arrows() == [(0, 1, 2), (2, 0, 1)]


def test_exchange_exponents_read_column_k():
    # 1 -2-> 2, 3 -> 1; vertex 2 is frozen and still readable
    q = quiver([[0, 2, -1], [-2, 0, 0], [1, 0, 0]], frozen={1})
    assert q.exchange_exponents(0) == ((0, 0, 1), (0, 2, 0))
    assert q.exchange_exponents(1) == ((2, 0, 0), (0, 0, 0))
    with pytest.raises(IndexError):
        q.exchange_exponents(3)


# -- mutation ------------------------------------------------------------------


def test_mutate_a2():
    q = quiver([[0, 1], [-1, 0]])
    assert q.mutate(0).b == ((0, -1), (1, 0))
    assert q.mutate(1).b == ((0, -1), (1, 0))


def test_mutate_composes_arrows():
    # 1 -> 2 -> 3; mutating at the middle composes a new arrow 1 -> 3
    # and reverses the two through 2.
    q = quiver([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    m = q.mutate(1)
    assert m.b == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_mutate_markov_gives_opposite():
    q = quiver([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
    m = q.mutate(0)
    assert m.b == tuple(tuple(-x for x in row) for row in q.b)


def test_mutate_frozen_rejected():
    q = quiver([[0, 1], [-1, 0]], frozen={1})
    with pytest.raises(MutationAtFrozenError):
        q.mutate(1)


def test_mutation_preserves_frozen_set():
    q = corpus.load("cycle3-frozen")
    assert q.mutate(0).frozen == q.frozen


@given(skew(4), st.integers(min_value=0, max_value=3))
def test_mutation_involution(b, k):
    q = quiver(b)
    if k in q.frozen:
        return
    assert q.mutate(k).mutate(k).b == q.b


@given(skew(4), st.integers(min_value=0, max_value=3))
def test_mutation_preserves_skew_symmetry(b, k):
    q = quiver(b)
    if k in q.frozen:
        return
    m = q.mutate(k).b
    assert all(m[i][j] == -m[j][i] for i in range(4) for j in range(4))


# -- acyclicity and sinks ------------------------------------------------------


def test_acyclicity_of_corpus():
    acyclic = {name: corpus.load(name).is_acyclic() for name in corpus.names()}
    assert acyclic == {
        "a2": True, "a3": True, "markov": False, "markov3": False,
        "markov4": False, "cycle3-frozen": True, "path3-frozen": True,
        "mixed-pair": True,
    }


def test_find_sink_examples():
    assert corpus.load("a2").find_sink() == 1
    assert corpus.load("a3").find_sink() == 2
    # frozen cycle: mutable part is 3 -> 1, so 1 is the sink
    assert corpus.load("cycle3-frozen").find_sink() == 0
    assert corpus.load("mixed-pair").find_sink() == 0


def test_find_sink_needs_acyclic():
    with pytest.raises(NoMutableVertexError):
        corpus.load("markov").find_sink()


def test_find_sink_needs_mutable_vertex():
    q = quiver([[0, 0], [0, 0]])  # both isolated, hence frozen
    with pytest.raises(NoMutableVertexError):
        q.find_sink()


def test_freeze():
    q = corpus.load("a3")
    f = q.freeze([1])
    assert f.frozen == frozenset({1})
    assert f.b == q.b


# -- serialization -------------------------------------------------------------


def test_json_roundtrip():
    q = corpus.load("cycle3-frozen")
    again = load_quiver_text(q.to_json())
    assert again == q
    assert again.digest() == q.digest()


def test_json_uses_one_based_vertices():
    q = quiver([[0, 1], [-1, 0]], frozen={1})
    data = json.loads(q.to_json())
    assert data == {"n": 2, "frozen": [2], "arrows": [[1, 2, 1]]}


def test_digest_shape():
    d = corpus.load("a2").digest()
    assert len(d) == 12 and all(c in "0123456789abcdef" for c in d)
    assert corpus.load("a2").digest() == corpus.load("a2").digest()
    assert corpus.load("a2").digest() != corpus.load("a3").digest()


@pytest.mark.parametrize("bad", [
    '[]',
    '{"n": 2, "arrows": [], "extra": 1}',
    '{"n": 0, "arrows": []}',
    '{"n": 2, "arrows": [[1, 2]]}',
    '{"n": 2, "arrows": [[1, 3, 1]]}',
    '{"n": 2, "arrows": [[1, 1, 1]]}',
    '{"n": 2, "arrows": [[1, 2, -1]]}',
    '{"n": 2, "arrows": [[1, 2, 1], [1, 2, 2]]}',
    '{"n": 2, "frozen": [3], "arrows": []}',
    '{"n": 2, "frozen": "all", "arrows": []}',
    '{"n": 2, "arrows": [[1, 2, 1]]',
])
def test_rejects_malformed_documents(bad):
    with pytest.raises(QuiverFormatError):
        load_quiver_text(bad)


def test_format_error_reports_position():
    with pytest.raises(QuiverFormatError) as err:
        load_quiver_text('{"n": 2,\n  "arrows": [[1 2, 1]]}')
    assert "line 2" in str(err.value)


def test_corpus_loads_and_names():
    assert len(corpus.names()) == 8
    for name in corpus.names():
        q = corpus.load(name)
        assert q.n >= 2
    assert corpus.load("a2.quiver") == corpus.load("a2")
    assert set(corpus.ACYCLIC_NAMES) < set(corpus.NAMES)
