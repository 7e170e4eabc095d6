"""Quiver mutation, acyclicity, serialization."""

import json
from fractions import Fraction

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


def _sgn(x):
    return (x > 0) - (x < 0)


def mutate_entrywise(b, k):
    """Quiver mutation entry by entry, b'_ij = -b_ij in row and column k
    and b_ij + sgn(b_ik) max(b_ik b_kj, 0) elsewhere: the reference for
    `Quiver.mutate`, which rebuilds only the rows that change."""
    n = len(b)
    return tuple(tuple(-b[i][j] if k in (i, j)
                       else b[i][j] + _sgn(b[i][k]) * max(b[i][k] * b[k][j], 0)
                       for j in range(n)) for i in range(n))


def construct_entrywise(n, b, frozen):
    """The construction checks one entry at a time, in row order: the
    reference for `Quiver.__post_init__`, which `Quiver.mutate` skips.
    Returns the stored (b, frozen), or raises what construction raises."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("a quiver needs at least one vertex")
    b = tuple(tuple(row) for row in b)
    if len(b) != n or any(len(row) != n for row in b):
        raise ValueError(f"exchange matrix must be {n}x{n}")
    for i in range(n):
        for j in range(n):
            if not isinstance(b[i][j], int) or isinstance(b[i][j], bool):
                raise TypeError("exchange matrix entries must be ints")
            if b[i][j] != -b[j][i]:
                raise ValueError(f"matrix not skew-symmetric at ({i},{j})")
    frozen = frozenset(frozen)
    if not all(isinstance(v, int) and not isinstance(v, bool)
               and 0 <= v < n for v in frozen):
        raise ValueError("frozen set contains an out-of-range vertex")
    for i in range(n):
        if all(b[i][j] == 0 for j in range(n)):
            frozen = frozen | {i}
    return b, frozen


def outcome(build):
    try:
        return build()
    except Exception as exc:  # the outcome compared is the exception
        return type(exc), str(exc)


@st.composite
def skew_with_frozen(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    b = draw(skew(n))
    frozen = draw(st.frozensets(st.integers(min_value=0, max_value=n - 1)))
    return n, b, frozen


@given(skew_with_frozen())
def test_mutate_matches_entrywise_formula(case):
    n, b, frozen = case
    q = Quiver(n, b, frozen)
    for k in q.mutable:
        m = q.mutate(k)
        assert m.b == mutate_entrywise(q.b, k)
        assert (m.b, m.frozen) == construct_entrywise(n, m.b, q.frozen)


BAD_ENTRIES = (1.0, 0.5, -1.0, "1", None, Fraction(1, 2), Fraction(2, 1),
               True, False)


@given(skew_with_frozen(), st.data())
def test_construction_matches_entrywise_checks(case, data):
    # the same stored matrix and frozen set, or the same exception type
    # and text, for matrices with one fault or several: non-int entries,
    # broken skew-symmetry, wrong shapes and out-of-range frozen vertices
    n, b, frozen = case
    rows = [list(r) for r in b]
    frozen = set(frozen)
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        fault = data.draw(st.sampled_from(
            ("entry", "skew", "short row", "long row", "rows", "frozen")))
        i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1)) \
            if rows else None
        if fault == "entry" and rows and rows[i]:
            j = data.draw(st.integers(min_value=0, max_value=len(rows[i]) - 1))
            rows[i][j] = data.draw(st.sampled_from(BAD_ENTRIES))
        elif fault == "skew" and rows and rows[i]:
            j = data.draw(st.integers(min_value=0, max_value=len(rows[i]) - 1))
            rows[i][j] = data.draw(st.integers(min_value=-3, max_value=3))
        elif fault == "short row" and rows and rows[i]:
            rows[i].pop()
        elif fault == "long row" and rows:
            rows[i].append(0)
        elif fault == "rows":
            if rows and data.draw(st.booleans()):
                rows.pop()
            else:
                rows.append([0] * n)
        elif fault == "frozen":
            frozen.add(data.draw(st.sampled_from((-1, n, n + 3, 1.5, True))))
    matrix = tuple(tuple(r) for r in rows)

    def built():
        q = Quiver(n, matrix, frozenset(frozen))
        return q.b, q.frozen

    assert outcome(built) == outcome(
        lambda: construct_entrywise(n, matrix, frozen))


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
    '{"n": true, "arrows": []}',
    '{"n": 2, "arrows": [[1, 2, true]]}',
    '{"n": 2, "frozen": [true], "arrows": [[1, 2, 1]]}',
])
def test_rejects_malformed_documents(bad):
    with pytest.raises(QuiverFormatError):
        load_quiver_text(bad)


def test_construction_refuses_booleans():
    # True equals 1, but it is no arrow count and no vertex
    with pytest.raises(TypeError, match="entries must be ints"):
        Quiver(2, ((0, True), (-1, 0)))
    with pytest.raises(ValueError, match="out-of-range vertex"):
        Quiver(2, ((0, 1), (-1, 0)), frozenset({True}))
    with pytest.raises(ValueError, match="at least one vertex"):
        Quiver(True, ((0,),))


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
