"""Seeds, variable mutation, exploration, change of cluster.

Frozen expected clusters below were derived by hand from the exchange
relation x_k * x_k' = p+ + p-; the type-A counts (pentagon: 5 clusters
and 5 variables; three vertices in a path: 14 clusters, 9 variables)
follow from the classical formulas C_{n+2} seeds and n(n+3)/2 variables
and double as an independent check on the walker.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import clusterfrob.seed as seed_module
from clusterfrob import (GF, QQ, FieldMismatchError, LaurentPoly,
                         NotDivisibleError, NotLaurentError, Quiver,
                         RationalExpr, Seed, budgets,
                         cluster_substitution, corpus, explore,
                         express_in_cluster, express_rational, initial_seed,
                         upper_membership_sample)


def lp(field, n, terms):
    return LaurentPoly.from_terms(field, n, terms)


def seed_for(name, field=QQ):
    return initial_seed(corpus.load(name), field)


def quiver_from_edges(n, edges, frozen=()):
    """Quiver with one arrow i -> j for each (i, j) in `edges`."""
    b = [[0] * n for _ in range(n)]
    for i, j in edges:
        b[i][j] += 1
        b[j][i] -= 1
    return Quiver(n, tuple(tuple(r) for r in b), frozenset(frozen))


def dynkin_edges(kind, n):
    """A_n (a path), D_n (a path with a fork at one end) or E_n (a path
    with a branch at its third vertex), each edge oriented from the
    smaller vertex."""
    edges = [(i, i + 1) for i in range(n - 1)]
    if kind == "D":
        edges[-1] = (n - 3, n - 1)
    if kind == "E":
        edges[-1] = (2, n - 1)
    return edges


def dynkin(kind, n):
    """The Dynkin quiver; every orientation of a tree gives the same
    exchange graph."""
    return quiver_from_edges(n, dynkin_edges(kind, n))


def relabel(seed, pi):
    """The same seed with vertex i renamed pi[i], its variable moving
    along with it."""
    n = seed.n
    b = [[0] * n for _ in range(n)]
    vars_ = [None] * n
    for i in range(n):
        vars_[pi[i]] = seed.vars[i]
        for j in range(n):
            b[pi[i]][pi[j]] = seed.quiver.b[i][j]
    frozen = frozenset(pi[i] for i in seed.quiver.frozen)
    return Seed(Quiver(n, tuple(tuple(r) for r in b), frozen), tuple(vars_))


def perm_equivalent(b1, b2, frozen1, frozen2):
    """Brute-force oracle: is there a frozen-respecting relabeling taking
    b1 to b2?  Independent of Seed.key."""
    n = len(b1)
    if {len(frozen1), len(frozen2)} != {len(frozen1)}:
        return False
    for pi in itertools.permutations(range(n)):
        if any((i in frozen1) != (pi[i] in frozen2) for i in range(n)):
            continue
        if all(b2[pi[i]][pi[j]] == b1[i][j]
               for i in range(n) for j in range(n)):
            return True
    return False


# -- construction ------------------------------------------------------------


def test_initial_seed_variables_are_coordinates():
    s = seed_for("a2")
    assert s.vars == (LaurentPoly.variable(QQ, 2, 0),
                      LaurentPoly.variable(QQ, 2, 1))
    assert s.same_state(initial_seed(s.quiver, QQ))
    assert not s.mutate(0).same_state(initial_seed(s.mutate(0).quiver, QQ))
    assert s.path == ()


def test_seed_validates_var_count():
    q = corpus.load("a2")
    with pytest.raises(ValueError):
        Seed(q, (LaurentPoly.one(QQ, 2),))


def test_seed_rejects_zero_variable():
    q = corpus.load("a2")
    with pytest.raises(ValueError):
        Seed(q, (LaurentPoly.zero(QQ, 2), LaurentPoly.one(QQ, 2)))


def test_seed_stores_its_path_as_a_tuple_of_vertices():
    q = corpus.load("a3")
    vars_ = initial_seed(q, QQ).vars
    s = Seed(q, vars_, [0])
    assert s.path == (0,)
    assert s.mutate(1).path == (0, 1)
    # True equals 1, but it names no vertex
    for bad in ([3], [-1], [0.0], ["0"], [0, None], [True], [0, False]):
        with pytest.raises(ValueError, match="not a vertex"):
            Seed(q, vars_, bad)


def test_seed_stores_its_vars_as_a_tuple():
    # given as a list, the vars are stored as the tuple that every seed
    # built by mutation or `initial_seed` holds
    q = corpus.load("a2")
    s = Seed(q, list(initial_seed(q, QQ).vars))
    assert type(s.vars) is tuple
    assert s.same_state(initial_seed(q, QQ))
    assert hash(s) == hash(initial_seed(q, QQ))
    assert s.mutate(0).mutate(0).same_state(s)


# -- single mutations ---------------------------------------------------------


def test_mutate_a2_first_vertex():
    s = seed_for("a2").mutate(0)
    assert s.vars[0].terms == {(-1, 1): Fraction(1), (-1, 0): Fraction(1)}
    assert s.vars[1] == LaurentPoly.variable(QQ, 2, 1)
    assert s.path == (0,)


def test_mutate_a3_middle():
    # arrows 1 -> 2 -> 3: at the middle, p+ = x1, p- = x3
    s = seed_for("a3").mutate(1)
    assert s.vars[1].terms == {(1, -1, 0): Fraction(1),
                               (0, -1, 1): Fraction(1)}


def test_mutate_markov_vertex():
    s = initial_seed(corpus.load("markov"), QQ).mutate(0)
    assert s.vars[0].terms == {(-1, 2, 0): Fraction(1),
                               (-1, 0, 2): Fraction(1)}


def test_exchange_identity():
    s = seed_for("a3")
    for k in range(3):
        plus, minus = s.exchange_monomials(k)
        m = s.mutate(k)
        assert m.vars[k] * s.vars[k] == plus + minus


def test_mutation_involution_on_state():
    s = seed_for("a3")
    twice = s.mutate(1).mutate(1)
    assert twice.same_state(s)
    assert twice.path == (1, 1)
    # same_state looks at the state, not the path taken to reach it
    assert twice.same_state(initial_seed(twice.quiver, QQ))


def test_frozen_variables_never_change():
    s = seed_for("cycle3-frozen")
    m = s.mutate(0).mutate(2).mutate(0)
    assert m.vars[1] == s.vars[1]


def test_mutate_path():
    s = seed_for("a2")
    assert s.mutate_path([0, 1, 0]).path == (0, 1, 0)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1,
                max_size=5))
def test_laurentness_along_random_a2_paths(path):
    s = seed_for("a2")
    for k in path:
        s = s.mutate(k)  # would raise LaurentViolationError on failure
    for v in s.vars:
        assert not v.is_zero()


# -- exploration --------------------------------------------------------------


def test_pentagon_exactly_five_variables():
    result = explore(seed_for("a2"), 4)
    assert result.seed_count == 5
    assert result.variable_count == 5
    assert result.closed
    expected = {
        lp(QQ, 2, [((1, 0), 1)]),
        lp(QQ, 2, [((0, 1), 1)]),
        lp(QQ, 2, [((-1, 1), 1), ((-1, 0), 1)]),
        lp(QQ, 2, [((-1, -1), 1), ((0, -1), 1), ((-1, 0), 1)]),
        lp(QQ, 2, [((1, -1), 1), ((0, -1), 1)]),
    }
    assert set(result.variables) == expected


def test_pentagon_not_closed_too_shallow():
    result = explore(seed_for("a2"), 2)
    assert result.seed_count == 5
    assert not result.closed


def test_a3_counts():
    result = explore(seed_for("a3"), 9)
    assert result.closed
    assert result.seed_count == 14
    assert result.variable_count == 9


def test_explore_depth_zero():
    result = explore(seed_for("a2"), 0)
    assert result.seed_count == 1
    assert result.variable_count == 2
    assert not result.closed


def test_explore_seed_budget():
    from clusterfrob import BudgetExceededError
    with budgets.limits(max_seeds=3):
        with pytest.raises(BudgetExceededError):
            explore(seed_for("a3"), 9)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


FINITE_TYPE_COUNTS = {
    # (clusters, cluster variables), Fomin-Zelevinsky, "Cluster algebras II".
    # A_1 is left out: its single vertex is isolated, and Quiver freezes
    # every isolated vertex.
    **{("A", n): (catalan(n + 1), n * (n + 3) // 2) for n in range(2, 7)},
    **{("D", n): ((3 * n - 2) * comb(2 * n - 2, n - 1) // n, n * n)
       for n in (4, 5)},
    ("E", 6): (833, 42),
    ("E", 7): (4160, 70),
}


def positive_roots(kind, n):
    """The positive roots in the simple-root basis: the simple roots and
    their images under the simple reflections s_i(b) = b - (C b)_i e_i
    of the Cartan matrix C that stay positive."""
    cartan = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in dynkin_edges(kind, n):
        cartan[i][j] = cartan[j][i] = -1
    roots = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    todo = list(roots)
    while todo:
        b = todo.pop()
        for i in range(n):
            r = list(b)
            r[i] -= sum(cartan[i][j] * b[j] for j in range(n))
            r = tuple(r)
            if min(r) >= 0 and r not in roots:
                roots.add(r)
                todo.append(r)
    return roots


def test_finite_type_exchange_graphs_close_with_exact_counts():
    # and the denominator vectors, the negated support-box minima, of the
    # non-initial cluster variables are the positive roots, each once
    # (Fomin-Zelevinsky): a quotient with a wrong term, or a lost
    # variable, moves them
    started = time.perf_counter()
    for (kind, n), (clusters, variables) in FINITE_TYPE_COUNTS.items():
        seed = initial_seed(dynkin(kind, n), QQ)
        result = explore(seed, 100)
        assert result.closed, (kind, n)
        assert (result.seed_count, result.variable_count) == \
            (clusters, variables), (kind, n)
        dvectors = sorted(tuple(-x for x in v.support_box()[0])
                          for v in result.variables if v not in seed.vars)
        assert dvectors == sorted(positive_roots(kind, n)), (kind, n)
    assert time.perf_counter() - started < 4.0


def assert_positive_int_coefficients(variables):
    """Every coefficient is a positive int: the Laurent phenomenon holds
    over Z (Fomin-Zelevinsky) and the coefficients are positive
    (Lee-Schiffler), so over QQ no cluster variable ever needs a
    Fraction, and a float never appears."""
    for v in variables:
        assert v.field is QQ
        for e, c in v:
            assert type(c) is int and c > 0, (v.render(), e, c)


def test_cluster_variables_have_positive_int_coefficients():
    for kind, n in (("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4),
                    ("D", 5)):
        result = explore(initial_seed(dynkin(kind, n), QQ), 100)
        assert result.closed, (kind, n)
        assert_positive_int_coefficients(result.variables)
    for name, path in (("markov", (0, 1, 2, 0, 1, 2)),
                       ("markov3", (0, 1, 2))):
        s = seed_for(name)
        for k in path:
            s = s.mutate(k)
            assert_positive_int_coefficients(s.vars)
    rng = random.Random(20260818)
    for name in ("cycle3-frozen", "mixed-pair"):
        s0 = seed_for(name)
        mutable = sorted(s0.quiver.mutable)
        for _ in range(20):
            s = s0
            for _ in range(rng.randint(1, 6)):
                s = s.mutate(rng.choice(mutable))
                assert_positive_int_coefficients(s.vars)


def test_explore_nine_vertex_path():
    # nine vertices: past the old eight-vertex cap of the brute-force key
    result = explore(initial_seed(dynkin("A", 9), QQ), 2)
    # 1 + 9 single mutations + 28 commuting non-adjacent pairs + 2 orders
    # for each of the 8 adjacent pairs
    assert result.seed_count == 54
    assert not result.closed


def count_calls(monkeypatch, owner, name):
    """Patch the method or function `name` of class or module `owner` to
    record the arguments of its calls; returns the record."""
    calls = []
    function = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


EXPLORE_COUNTS = {
    # (seeds, edges, proofs, divisions) to closure.  Each edge is
    # crossed once, from one end: a seed has one edge per mutable vertex,
    # so there are seeds * n / 2 edges, each one `Quiver.mutate`.  Each
    # exchange relation x * y = P is proved once, by one
    # `_prove_exchange`, and every other edge with the same relation
    # reuses it; the division runs once for each variable the start does
    # not hold, and every other proof is one product.  A seed is built,
    # by one `Seed._unchecked`, only when its key is new: seeds - 1 times.
    "A4": (lambda: initial_seed(dynkin("A", 4), QQ), 42, 84, 35, 10),
    "A4-mutated": (lambda: initial_seed(dynkin("A", 4), QQ).mutate_path(
        (1, 2, 0)), 42, 84, 35, 10),
    "D4": (lambda: initial_seed(dynkin("D", 4), QQ), 50, 100, 52, 12),
    "A5": (lambda: initial_seed(dynkin("A", 5), QQ), 132, 330, 70, 15),
    "D5": (lambda: initial_seed(dynkin("D", 5), QQ), 182, 455, 130, 20),
    "E6": (lambda: initial_seed(dynkin("E", 6), QQ), 833, 2499, 385, 36),
}


@pytest.mark.parametrize("case", list(EXPLORE_COUNTS))
def test_explore_never_mutates_back_along_its_edge(case, monkeypatch):
    make, seeds, edges, proofs, divisions = EXPLORE_COUNTS[case]
    start = make()
    quiver_calls = count_calls(monkeypatch, Quiver, "mutate")
    proved = count_calls(monkeypatch, seed_module, "_prove_exchange")
    divided = count_calls(monkeypatch, LaurentPoly, "exact_divide")
    built = count_calls(monkeypatch, Seed, "_unchecked")
    result = explore(start, 100)
    monkeypatch.undo()
    assert (result.seed_count, result.closed) == (seeds, True)
    assert (len(quiver_calls), len(proved), len(divided), len(built)) == \
        (edges, proofs, divisions, seeds - 1)


def explore_by_division(seed, depth):
    """`explore` by one division per mutation: every seed but the start
    is mutated at each mutable vertex except the one it was reached by.
    The reference for `explore`, which crosses each edge once and proves
    a known quotient by a product."""
    seen = {seed.key()}
    order, frontier, variables = [seed], [seed], set(seed.vars)
    closed = False
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for k in s.quiver.mutable:
                if s is not seed and k == s.path[-1]:
                    continue
                t = s.mutate(k)
                if t.key() not in seen:
                    seen.add(t.key())
                    order.append(t)
                    nxt.append(t)
                    variables.update(t.vars)
        if not nxt:
            closed = True
            break
        frontier = nxt
    else:
        closed = depth == 0 and not seed.quiver.mutable
    return order, sorted(variables, key=lambda v: v.sort_key()), closed


def walk_record(seeds, variables, closed):
    return (len(seeds), len(variables), closed,
            [v.render() for v in variables],
            [(s.path, s.quiver.b, s.quiver.frozen,
              [v.render() for v in s.vars]) for s in seeds])


def given_seed(name, *monomials):
    """The seed of corpus quiver `name` whose vars are the given
    (exponents, coefficient) monomials."""
    q = corpus.load(name)
    return Seed(q, tuple(lp(QQ, q.n, [m]) for m in monomials))


TWIN_CASES = {
    **{f"{kind}{n}": (lambda kind=kind, n=n:
                      initial_seed(dynkin(kind, n), QQ), 100)
       for kind, n in (("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
                       ("D", 4), ("D", 5), ("E", 6))},
    "markov-depth3": (lambda: seed_for("markov"), 3),
    "markov-depth4": (lambda: seed_for("markov"), 4),
    "markov-mutated-depth3": (lambda: seed_for("markov").mutate(1), 3),
    "a3-mutated-GF3": (lambda: seed_for("a3", GF(3)).mutate(1), 9),
    "D5-mutated": (lambda: initial_seed(dynkin("D", 5), QQ).mutate_path(
        (2, 0, 3)), 100),
    # given vars that are no cluster: (1 + 2 x1) / x1 and (1 + x1) / (2 x1)
    # are distinct variables with one support box, and a repeated variable
    # sits at two vertices
    "a2-given-x1-2x1": (lambda: given_seed("a2", ((1, 0), 1), ((1, 0), 2)),
                        6),
    "a2-given-x1-x1": (lambda: given_seed("a2", ((1, 0), 1), ((1, 0), 1)),
                       6),
    "a3-given-x1-x2-x1": (lambda: given_seed(
        "a3", ((1, 0, 0), 1), ((0, 1, 0), 1), ((1, 0, 0), 1)), 9),
}


@pytest.mark.parametrize("case", sorted(TWIN_CASES))
def test_explore_matches_its_division_twin(case, monkeypatch):
    # the same walk, and one division for each variable the start does
    # not hold: every later edge to a known variable is proved by the
    # product, which needs that variable in its own box of the index
    make, depth = TWIN_CASES[case]
    start = make()
    divisions = count_calls(monkeypatch, LaurentPoly, "exact_divide")
    r = explore(start, depth)
    monkeypatch.undo()
    assert len(divisions) == r.variable_count - len(set(start.vars))
    assert walk_record(r.seeds, r.variables, r.closed) == \
        walk_record(*explore_by_division(start, depth))


def test_explore_proves_a_known_quotient_by_its_product(monkeypatch):
    # `explore`'s proof step at vertex 1 of a2, against a table of
    # variables `found` and its index of ids by support box
    prove = seed_module._prove_exchange
    s = seed_for("a2")
    quotient = lp(QQ, 2, [((-1, 1), 1), ((-1, 0), 1)])  # (x2 + 1) / x1
    box = quotient.support_box()
    decoy = lp(QQ, 2, [((-1, 1), 2), ((-1, 0), 1)])
    assert decoy.support_box() == box
    # a new quotient is divided and filed under the next id
    found, index = list(s.vars), {}
    assert prove(s, 0, found, index) == 2
    assert found[2] == quotient and index == {box: [2]}
    # a candidate of the right box that fails the product is not taken:
    # the quotient comes from the division, under a new id
    found, index = [*s.vars, decoy], {box: [2]}
    assert prove(s, 0, found, index) == 3
    assert found[3] == quotient and index == {box: [2, 3]}
    # a known quotient is taken, with no division
    divisions = count_calls(monkeypatch, LaurentPoly, "exact_divide")
    assert prove(s, 0, found, index) == 3
    assert divisions == []
    assert len(found) == 4 and index == {box: [2, 3]}


def test_explore_rejects_a_zero_exchange_polynomial():
    # given vars x1, x2, x1 on 1 -> 2 -> 3 over GF(2): at vertex 2,
    # p_plus + p_minus = x1 + x1 = 0, and the quotient 0 is no variable
    x1, x2 = (LaurentPoly.variable(GF(2), 3, i) for i in range(2))
    with pytest.raises(ValueError, match="cluster variables are nonzero"):
        explore(Seed(corpus.load("a3"), (x1, x2, x1)), 3)


@pytest.mark.parametrize("field,via", [
    (GF(2), "mutate"), (QQ, "explore"), (QQ, "mutate")])
def test_mutate_rejects_a_zero_exchange_polynomial(field, via):
    # over GF(2) vars x1, x2, x1 and over QQ vars x1, x2, -x1 on
    # 1 -> 2 -> 3: at vertex 2, p_plus + p_minus = x1 - x1 = 0
    x1, x2 = (LaurentPoly.variable(field, 3, i) for i in range(2))
    s = Seed(corpus.load("a3"), (x1, x2, -x1))
    with pytest.raises(ValueError, match="cluster variables are nonzero"):
        if via == "mutate":
            s.mutate(1)
        else:
            explore(s, 3)


def assert_validated_twin(seed, start):
    """The seed equals its validated construction, with the stored types
    construction gives, and the frozen set of the seed it came from:
    mutation builds its quiver and seed unchecked."""
    q = seed.quiver
    assert type(q.b) is tuple
    assert all(type(row) is tuple and all(type(x) is int for x in row)
               for row in q.b)
    assert type(q.frozen) is frozenset and q.frozen == start.quiver.frozen
    assert seed == Seed(Quiver(seed.n, q.b, q.frozen), seed.vars, seed.path)


TRUSTED_CASES = [
    *((initial_seed(dynkin(kind, n), QQ), 100)
      for kind, n in (("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
                      ("D", 4), ("D", 5), ("E", 6))),
    (seed_for("markov"), 3),
    *((seed_for(name, fld), 3) for name in corpus.names()
      for fld in (QQ, GF(3))),
]


def test_mutation_equals_its_validated_construction():
    for start, depth in TRUSTED_CASES:
        for s in explore(start, depth).seeds:
            assert_validated_twin(s, start)
    rng = random.Random(20261020)
    for name in corpus.names():
        for fld in (QQ, GF(3)):
            start = seed_for(name, fld)
            mutable = start.quiver.mutable
            path = [rng.choice(mutable) for _ in range(3)]
            assert_validated_twin(start.mutate_path(path), start)


def test_explore_from_a_mutated_start_mutates_at_its_last_vertex():
    # the start's own last mutation leads to a seed the walk has not seen
    start = seed_for("a3").mutate(1)
    result = explore(start, 1)
    assert result.seed_count == 4
    assert seed_for("a3").key() in {s.key() for s in result.seeds}


def test_explore_frozen_vertex_skipped():
    result = explore(seed_for("mixed-pair"), 3)
    # one mutable vertex: two seeds total, x2 never mutated
    assert result.seed_count == 2
    assert result.closed
    assert result.variable_count == 3


# -- change of cluster --------------------------------------------------------


def test_cluster_substitution_a2():
    s = seed_for("a2")
    steps = cluster_substitution(s, (0,))
    assert steps == [(0, lp(QQ, 2, [((0, 1), 1), ((0, 0), 1)]))]
    # re-read along the step, x1 = (1 + z2) / z1 and x2 is unchanged
    x1, x2 = (LaurentPoly.variable(QQ, 2, i) for i in range(2))
    assert express_rational(x1, steps) == lp(QQ, 2, [((-1, 1), 1),
                                                     ((-1, 0), 1)])
    assert express_rational(x2, steps) == x2


def test_express_variable_in_adjacent_cluster():
    s = seed_for("a2")
    g = LaurentPoly.variable(QQ, 2, 0)
    out = express_in_cluster(g, s, (0,))
    assert out.terms == {(-1, 1): Fraction(1), (-1, 0): Fraction(1)}


def test_express_roundtrip_through_involution():
    s = seed_for("a3")
    g = lp(QQ, 3, [((1, -1, 2), 3), ((0, 0, 0), 1)])
    assert express_in_cluster(g, s, (1, 1)) == g


def test_express_detects_non_laurent():
    s = seed_for("a2")
    g = LaurentPoly.monomial(QQ, 2, (-1, 0), 1)  # 1/x1
    with pytest.raises(NotLaurentError) as err:
        express_in_cluster(g, s, (0,))
    assert err.value.path == (0,)


def test_express_rational_identity():
    s = seed_for("a2")
    subs = cluster_substitution(s, ())
    g = lp(QQ, 2, [((2, -1), 1), ((0, 0), 5)])
    assert express_rational(g, subs).as_laurent() == g


def test_express_rational_identity_subs_keep_ring_checks():
    # the one-step path mutates x1 and passes x2 through without a
    # product, so the ring is checked against the seed's, for every path
    for g in (lp(QQ, 2, [((2, -1), 1), ((0, 0), 5)]),
              LaurentPoly.variable(QQ, 2, 1)):
        for s in (seed_for("a2", GF(5)), seed_for("a3")):
            for path in ((), (0,)):
                with pytest.raises(FieldMismatchError):
                    express_in_cluster(g, s, path)
            for depth in (0, 1):
                with pytest.raises(FieldMismatchError):
                    upper_membership_sample(g, s, depth)


def evaluate(f, values):
    """f with x_i replaced by values[i], term by term in RationalExpr
    arithmetic: an evaluator at the images of the initial variables,
    which shares no code with the substitution steps."""
    total = RationalExpr(LaurentPoly.zero(f.field, f.n))
    for e, c in f.terms.items():
        term = RationalExpr(LaurentPoly.constant(f.field, f.n, c))
        for v, a in zip(values, e):
            term = term * RationalExpr(v) ** a
        total = total + term
    return total


def laurent_polys(n):
    exps = st.tuples(*[st.integers(min_value=-2, max_value=2)] * n)
    return st.lists(st.tuples(exps, st.integers(min_value=-3, max_value=3)),
                    min_size=1, max_size=3)


@given(st.sampled_from(["a2", "a3", "markov"]),
       st.sampled_from([QQ, GF(5)]),
       st.lists(st.integers(min_value=0, max_value=2), max_size=4),
       st.booleans(), st.data())
def test_express_rational_matches_evaluation_at_images(name, fld, path,
                                                       rational, data):
    s = seed_for(name, fld)
    path = [k % s.n for k in path]
    num = lp(fld, s.n, data.draw(laurent_polys(s.n)))
    den = lp(fld, s.n, data.draw(laurent_polys(s.n))) if rational else None
    if den is not None and den.is_zero():
        den = None
    g = RationalExpr(num, den)
    steps = cluster_substitution(s, path)
    assert [k for k, _ in steps] == path
    # every prefix of the steps re-reads g in the cluster of that prefix.
    # Mutating back from that cluster, by exact division in Seed.mutate,
    # gives the images of the initial variables as Laurent polynomials in
    # it, and g evaluated at them must be the re-read g.  (Evaluating the
    # re-read g at the cluster's own variables instead takes over a minute
    # for one three-step markov path: its unreduced terms raise them to
    # high powers.)
    for i in range(len(path) + 1):
        there = initial_seed(s.mutate_path(path[:i]).quiver, fld)
        back = there.mutate_path(reversed(path[:i]))
        assert back.quiver == s.quiver
        expected = evaluate(g.num, back.vars) / evaluate(g.den, back.vars)
        assert express_rational(g, steps[:i]).equals(expected)


@given(st.sampled_from(["a3", "markov", "markov3"]),
       st.sampled_from([QQ, GF(5)]),
       st.lists(st.integers(min_value=0, max_value=2), max_size=3),
       st.sampled_from(["laurent", "rational", "cluster"]), st.data())
def test_express_in_cluster_matches_one_shot_division(name, fld, path, kind,
                                                      data):
    # the stepwise re-reading agrees with the whole path applied at once
    # and one exact division at the end, Laurent or not
    s = seed_for(name, fld)
    path = [k % s.n for k in path]
    if kind == "cluster":
        # products of cluster variables are Laurent in every cluster
        there = s.mutate_path(data.draw(
            st.lists(st.integers(min_value=0, max_value=2), max_size=2)))
        picks = data.draw(st.lists(st.integers(min_value=0, max_value=2),
                                   min_size=1, max_size=2))
        g = there.vars[picks[0]]
        for i in picks[1:]:
            g = g * there.vars[i]
    else:
        num = lp(fld, s.n, data.draw(laurent_polys(s.n)))
        den = lp(fld, s.n, data.draw(laurent_polys(s.n)))
        if kind == "laurent" or den.is_zero():
            den = None
        g = RationalExpr(num, den)
    try:
        expected = express_rational(
            g, cluster_substitution(s, path)).as_laurent()
    except NotDivisibleError:
        with pytest.raises(NotLaurentError):
            express_in_cluster(g, s, path)
    else:
        assert express_in_cluster(g, s, path) == expected


def test_markov_invariant_element():
    s = initial_seed(corpus.load("markov"), QQ)
    m = lp(QQ, 3, [((1, -1, -1), 1), ((-1, 1, -1), 1), ((-1, -1, 1), 1)])
    for path in [(0,), (1,), (2,), (0, 1)]:
        assert express_in_cluster(m, s, path) == m


# -- membership sampling -------------------------------------------------------


def test_membership_initial_variable_passes():
    s = seed_for("a2")
    verdict = upper_membership_sample(LaurentPoly.variable(QQ, 2, 0), s, 2)
    assert verdict.ok
    assert verdict.failing_path is None
    assert verdict.clusters_checked > 1


def test_membership_reciprocal_fails_on_first_step():
    s = seed_for("a2")
    bad = LaurentPoly.monomial(QQ, 2, (-1, 0), 1)
    verdict = upper_membership_sample(bad, s, 2)
    assert not verdict.ok
    assert verdict.failing_path == (0,)


def test_membership_skips_immediate_backtrack():
    s = seed_for("a2")
    verdict = upper_membership_sample(LaurentPoly.one(QQ, 2), s, 3)
    # paths never contain k,k adjacent; depth-3 walk on 2 vertices
    # alternates, so the count is 1 + 2 + 2 + 2
    assert verdict.clusters_checked == 7
    assert verdict.ok


def test_membership_rejects_negative_depth():
    s = seed_for("a2")
    with pytest.raises(ValueError, match="nonnegative"):
        upper_membership_sample(LaurentPoly.variable(QQ, 2, 0), s, -1)


def test_membership_gf():
    s = seed_for("a2", GF(5))
    verdict = upper_membership_sample(s.vars[1], s, 2)
    assert verdict.ok


# -- seed keys ----------------------------------------------------------------


def test_pentagon_keys_identify_clusters():
    s = seed_for("a2")
    keys = {s.mutate(0).mutate(1).key(), s.mutate(0).mutate(1).key()}
    assert len(keys) == 1
    assert s.key() != s.mutate(0).key()


@given(st.sampled_from(["a2", "a3", "markov", "cycle3-frozen",
                         "path3-frozen", "mixed-pair"]),
       st.lists(st.integers(min_value=0, max_value=2), max_size=3),
       st.data())
def test_key_invariant_under_relabeling(name, path, data):
    s = seed_for(name)
    for k in path:
        if k in s.quiver.mutable:
            s = s.mutate(k)
    pi = data.draw(st.permutations(range(s.n)))
    assert relabel(s, pi).key() == s.key()


def test_key_detects_relabeling():
    s = initial_seed(quiver_from_edges(3, [(0, 1), (1, 2)]), QQ)
    # the same path seed written with vertices 0 and 2 swapped
    swapped = relabel(s, (2, 1, 0))
    assert swapped.quiver.b == ((0, -1, 0), (1, 0, -1), (0, 1, 0))
    assert perm_equivalent(s.quiver.b, swapped.quiver.b, s.quiver.frozen,
                           swapped.quiver.frozen)
    assert swapped.key() == s.key()


def test_key_separates_frozen_variant():
    plain = seed_for("a2")
    half = Seed(plain.quiver.freeze([1]), plain.vars)
    assert plain.key() != half.key()


def test_key_separates_orientations():
    path = quiver_from_edges(3, [(0, 1), (1, 2)])
    alternating = quiver_from_edges(3, [(0, 1), (2, 1)])
    assert not perm_equivalent(path.b, alternating.b, path.frozen,
                               alternating.frozen)
    assert (initial_seed(path, QQ).key()
            != initial_seed(alternating, QQ).key())


def test_key_markov_mutation_opposite_quiver():
    # mu_0 of the Markov quiver is its opposite, isomorphic to it by a
    # transposition; with the same cluster on the same vertices the two
    # seeds still differ
    markov = seed_for("markov")
    opposite = Seed(markov.quiver.mutate(0), markov.vars)
    assert perm_equivalent(markov.quiver.b, opposite.quiver.b,
                           markov.quiver.frozen, opposite.quiver.frozen)
    assert markov.key() != opposite.key()
    # mutating twice at the same vertex comes back to the same key
    assert markov.mutate(0).mutate(0).key() == markov.key()


@pytest.mark.parametrize("name,depth", [
    ("a2", 4), ("a3", 9), ("cycle3-frozen", 6), ("mixed-pair", 3),
    ("markov", 3),
])
def test_explored_clusters_are_distinct(name, depth):
    seeds = explore(seed_for(name), depth).seeds
    by_cluster = {frozenset(s.vars): s for s in seeds}
    # distinct unordered clusters, so no two explored seeds share a class
    # of the brute-force key this one replaced (isomorphic quivers and the
    # same unordered cluster)
    assert len(by_cluster) == len(seeds)
    # a mutation that reaches an explored cluster is merged with that seed
    # by both keys, so the two keys make the same dedup decisions
    for s in seeds:
        for k in s.quiver.mutable:
            t = s.mutate(k)
            u = by_cluster.get(frozenset(t.vars))
            if u is not None:
                assert perm_equivalent(t.quiver.b, u.quiver.b,
                                       t.quiver.frozen, u.quiver.frozen)
                assert t.key() == u.key()


def test_same_state_ignores_path():
    s = seed_for("a2")
    assert s.mutate(0).mutate(0).same_state(s)
    assert not s.mutate(0).same_state(s)
