"""Seeds: a quiver plus a cluster of Laurent polynomials in the initial
variables.

Every cluster variable is stored as its Laurent expansion relative to the
initial cluster, so mutation itself witnesses the Laurent phenomenon: the
new variable is the exact quotient (p_plus + p_minus) / x_k, and from a
quiver's initial seed a failure is a bug (LaurentViolationError).  A seed
built from given `vars` can fail it when they are not a cluster of the
quiver.  `Seed.mutate` is that division alone.  `explore` keeps its own
table of variables and proves each exchange relation x_k * y = p_plus +
p_minus once: a known y by one product, a new one by the division, and an
edge whose relation is known costs no arithmetic.

A change of cluster is a sequence of one-variable substitutions
z_k -> N_k / z_k, one per mutation along the path (`cluster_substitution`
returns them as steps (k, N_k)).  `express_rational` applies the steps to
an element directly, so re-reading g in another cluster never forms the
images of the initial variables.  The steps read a seed in its own
cluster z: they depend only on its quiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from . import budgets
from .errors import (BudgetExceededError, LaurentViolationError,
                     MutationAtFrozenError, NotDivisibleError,
                     NotLaurentError)
from .fields import require_same_field
from .laurent import LaurentPoly, RationalExpr, _times
from .quiver import Quiver, _is_int


@dataclass(frozen=True)
class Seed:
    quiver: Quiver
    vars: tuple[LaurentPoly, ...]
    path: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        if len(self.vars) != self.quiver.n:
            raise ValueError(
                f"{len(self.vars)} variables for {self.quiver.n} vertices")
        f = self.vars[0].field
        for v in self.vars:
            require_same_field(f, v.field)
            if v.n != self.quiver.n:
                raise ValueError("variable lives in the wrong Laurent ring")
            if v.is_zero():
                raise ValueError("cluster variables are nonzero")
        path = tuple(self.path)
        if not all(_is_int(k) and 0 <= k < self.quiver.n for k in path):
            raise ValueError("a path entry is not a vertex of the quiver")
        object.__setattr__(self, "path", path)

    @classmethod
    def _unchecked(cls, quiver: Quiver, vars_: tuple[LaurentPoly, ...],
                   path: tuple[int, ...]) -> "Seed":
        """A seed from fields already valid: one nonzero variable per
        vertex, all in one Laurent ring over one field.  No check runs."""
        s = object.__new__(cls)
        object.__setattr__(s, "quiver", quiver)
        object.__setattr__(s, "vars", vars_)
        object.__setattr__(s, "path", path)
        return s

    @property
    def field(self):
        return self.vars[0].field

    @property
    def n(self) -> int:
        return self.quiver.n

    def same_state(self, other: "Seed") -> bool:
        """Equality of quiver and cluster, ignoring the recorded path."""
        return self.quiver == other.quiver and self.vars == other.vars

    # -- exchange -----------------------------------------------------------

    def exchange_monomials(self, k: int) -> tuple[LaurentPoly, LaurentPoly]:
        """(p_plus, p_minus) at vertex k in the current seed: the product of
        vars[j]^m over the m arrows j->k, resp. over the m arrows k->j."""
        if k in self.quiver.frozen:
            raise MutationAtFrozenError(f"vertex {k} is frozen")
        plus, minus = self.quiver.exchange_exponents(k)
        return self._power_product(plus), self._power_product(minus)

    def _power_product(self, exps) -> LaurentPoly:
        """The product of vars[j]^exps[j], starting from its first factor."""
        out = None
        for v, m in zip(self.vars, exps):
            if m:
                out = v ** m if out is None else out * v ** m
        return LaurentPoly.one(self.field, self.n) if out is None else out

    # -- mutation -------------------------------------------------------------

    def mutate(self, k: int) -> "Seed":
        """Seed mutation at mutable vertex k: the new k-th variable is the
        exact quotient (p_plus + p_minus) / x_k.

        The result is built unchecked.  The new variable is a quotient of
        variables of this seed, so it keeps their field and ring, and the
        count of variables is kept.  It is nonzero when p_plus + p_minus
        is, which a cluster of the quiver always gives but given `vars`
        need not: `_divide_exchange` checks that before it divides."""
        plus, minus = self.exchange_monomials(k)
        new_vars = list(self.vars)
        new_vars[k] = _divide_exchange(plus + minus, self.vars[k], k)
        return Seed._unchecked(self.quiver.mutate(k), tuple(new_vars),
                               self.path + (k,))

    def mutate_path(self, path) -> "Seed":
        s = self
        for k in path:
            s = s.mutate(k)
        return s

    def key(self):
        """Dedup key: the cluster in sorted order, with the exchange matrix
        (flattened) and the frozen mask read in that vertex order.

        The cluster fixes which variable sits on which vertex, so reading
        the quiver in the cluster's own order makes relabeled copies of a
        seed agree without searching over relabelings.  Distinct vertices
        of a cluster never carry the same variable; a variable repeated
        among given vars ties, and the tie falls to the vertex order."""
        return _ordered_key(self.quiver, [v.sort_key() for v in self.vars])


def _divide_exchange(exchange: LaurentPoly, x: LaurentPoly,
                     k: int) -> LaurentPoly:
    """The new k-th variable exchange / x_k, where exchange is
    p_plus + p_minus at k.  A zero exchange is refused, for its quotient 0
    is no variable; a remainder makes a LaurentViolationError."""
    if exchange.is_zero():
        raise ValueError("cluster variables are nonzero")
    try:
        return exchange.exact_divide(x)
    except NotDivisibleError as exc:
        raise LaurentViolationError(
            f"mutation at {k} produced a non-Laurent variable; "
            f"this is a bug", k) from exc


def _ordered_key(quiver: Quiver, labels) -> tuple:
    """The labels of the vertices sorted, with the exchange matrix
    (flattened) and the frozen mask read in that vertex order."""
    order = sorted(range(quiver.n), key=labels.__getitem__)
    b, frozen = quiver.b, quiver.frozen
    return (tuple(labels[i] for i in order),
            tuple(b[i][j] for i in order for j in order),
            tuple(i in frozen for i in order))


def initial_seed(quiver: Quiver, coefficient_field) -> Seed:
    vars_ = tuple(LaurentPoly.variable(coefficient_field, quiver.n, i)
                  for i in range(quiver.n))
    return Seed(quiver, vars_, ())


# -- exploration -----------------------------------------------------------------


@dataclass(frozen=True)
class ExploreResult:
    seeds: tuple[Seed, ...]
    variables: tuple[LaurentPoly, ...]
    closed: bool
    depth: int

    @property
    def seed_count(self) -> int:
        return len(self.seeds)

    @property
    def variable_count(self) -> int:
        return len(self.variables)


def explore(seed: Seed, depth: int) -> ExploreResult:
    """Breadth-first closure of mutations at all mutable vertices, up to
    `depth` steps, deduplicating seeds by their clusters with the quiver
    read in the cluster's order.  `closed` reports whether the frontier
    emptied within the bound, i.e. the whole exchange graph was seen.

    The walk files each variable it finds under an int id and indexes the
    ids by support box.  It keys a seed by its sorted ids with the quiver
    read in that order, and builds a seed only once its key is new.  Ids
    name variables one to one, as the sort keys of `Seed.key` do, and a
    tie (a variable repeated among given vars) falls to the vertex order
    in both, so this key makes the dedup decisions of `Seed.key` without
    sorting any terms.

    Each edge is crossed once.  Mutation is an involution, so when the
    walk reaches t by mutating at k, mutating t's class at the vertex
    carrying t's k-th variable leads back; that variable's id is recorded
    under t's key and the vertex is skipped, in a relabeled copy of t too.

    Each exchange relation is proved once.  The relation at k is filed
    under the id of x_k and the unordered pair {A, B} of the exchange
    monomials as sorted (id, multiplicity) multisets.  The same x_k, A
    and B give the same p_plus + p_minus, hence, the Laurent ring being a
    domain, the same quotient y, so an edge whose relation is filed takes
    y with no arithmetic.  A new relation is proved by `_prove_exchange`
    and filed both ways, x_k -> y and y -> x_k."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    max_seeds = budgets.current().max_seeds
    found = list(dict.fromkeys(seed.vars))  # the variable of each id
    index: dict = {}  # support box -> the ids of the variables in it
    for i, v in enumerate(found):
        index.setdefault(v.support_box(), []).append(i)
    vid = tuple(map(found.index, seed.vars))
    key = _ordered_key(seed.quiver, vid)
    seen = {key}
    crossed: dict = {}
    relations: dict = {}
    order = [seed]
    frontier = [(key, seed, vid)]
    closed = False
    for _ in range(depth):
        nxt = []
        for key, s, vid in frontier:
            back = crossed.get(key, ())
            q = s.quiver
            for k in q.mutable:
                x = vid[k]
                if x in back:
                    continue
                plus, minus = q.exchange_exponents(k)
                a, b = _id_monomial(vid, plus), _id_monomial(vid, minus)
                pair = (a, b) if a <= b else (b, a)
                y = relations.get((x, pair))
                if y is None:
                    y = _prove_exchange(s, k, found, index)
                    relations[x, pair] = y
                    relations[y, pair] = x
                tid = vid[:k] + (y,) + vid[k + 1:]
                tq = q.mutate(k)
                tk = _ordered_key(tq, tid)
                crossed.setdefault(tk, set()).add(y)
                if tk in seen:
                    continue
                if len(seen) >= max_seeds:
                    raise BudgetExceededError(
                        "max_seeds", f"exploration passed {max_seeds} seeds")
                seen.add(tk)
                t = Seed._unchecked(tq, s.vars[:k] + (found[y],)
                                    + s.vars[k + 1:], s.path + (k,))
                order.append(t)
                nxt.append((tk, t, tid))
        if not nxt:
            closed = True
            break
        frontier = nxt
    else:
        # depth exhausted; the graph is closed only if the last frontier
        # has nothing new to offer, which we have not checked -> not closed
        closed = depth == 0 and not seed.quiver.mutable
    variables_sorted = tuple(sorted(found, key=lambda v: v.sort_key()))
    return ExploreResult(tuple(order), variables_sorted, closed, depth)


def _prove_exchange(s: Seed, k: int, found: list, index: dict) -> int:
    """The id of the new k-th variable of s, (p_plus + p_minus) / x_k.

    Support extremes add under products, so the quotient's box is that of
    p_plus + p_minus minus that of x_k, and a known y of that box in
    `index` with x_k * y = p_plus + p_minus is the quotient, the Laurent
    ring being a domain.  Otherwise the quotient is divided out.  It is
    new, for a known variable equal to it would have passed the product,
    and is filed in `found` and `index` under the next id."""
    plus, minus = s.exchange_monomials(k)
    exchange, x = plus + minus, s.vars[k]
    bucket: list = []
    if not exchange.is_zero():  # a zero has no box; the division refuses it
        (lo_p, hi_p), (lo_x, hi_x) = exchange.support_box(), x.support_box()
        bucket = index.setdefault((tuple(map(sub, lo_p, lo_x)),
                                   tuple(map(sub, hi_p, hi_x))), [])
        for y in bucket:
            if x * found[y] == exchange:
                return y
    new_var = _divide_exchange(exchange, x, k)
    bucket.append(len(found))
    found.append(new_var)
    return len(found) - 1


def _id_monomial(vid: tuple[int, ...], exps) -> tuple:
    """The monomial prod vars[j]^exps[j] as its sorted (id, multiplicity)
    pairs."""
    return tuple(sorted((vid[j], m) for j, m in enumerate(exps) if m))


# -- change of cluster --------------------------------------------------------------


def _exchange_sum_symbolic(quiver: Quiver, k: int, fld, n: int) -> LaurentPoly:
    """p_plus + p_minus at k with the current cluster read as fresh symbols
    z_1..z_n; a Laurent polynomial not involving z_k."""
    plus, minus = quiver.exchange_exponents(k)
    return (LaurentPoly.monomial(fld, n, plus)
            + LaurentPoly.monomial(fld, n, minus))


def cluster_substitution(seed: Seed, path) -> list[tuple[int, LaurentPoly]]:
    """The change of cluster along `path` as its substitution steps.

    Step (k, N_k) re-reads an expression in the cluster before the
    mutation at k in the cluster after it: by the involution, the old k-th
    variable is N_k / z_k, where N_k = p_plus + p_minus at k in the
    *mutated* quiver, read in fresh symbols z_1..z_n naming the new
    cluster.  N_k does not involve z_k."""
    fld, n = seed.field, seed.n
    steps = []
    q = seed.quiver
    for k in path:
        q = q.mutate(k)  # raises at frozen/out-of-range vertices
        steps.append((k, _exchange_sum_symbolic(q, k, fld, n)))
    return steps


def express_rational(g: RationalExpr | LaurentPoly,
                     steps: list[tuple[int, LaurentPoly]]) -> RationalExpr:
    """g re-read along `steps` (from `cluster_substitution`): each step
    substitutes z_k -> N_k / z_k in the numerator and the denominator,
    and cancels the common power of N_k the two pick up.  Denominators
    are carried unreduced."""
    if isinstance(g, LaurentPoly):
        g = RationalExpr(g)
    num, den = g.num, g.den
    if steps:
        num._compat(steps[0][1])
    for k, numer in steps:
        num, up = num.substitute_reciprocal(k, numer)
        den, down = den.substitute_reciprocal(k, numer)
        if up > down:
            den = _times(den, numer ** (up - down))
        elif down > up:
            num = _times(num, numer ** (down - up))
    return RationalExpr(num, den)


def express_in_cluster(g: RationalExpr | LaurentPoly, seed: Seed,
                       path) -> LaurentPoly:
    """Laurent expansion of g (given in the seed's own cluster) in the
    cluster reached by `path`; NotLaurentError when no expansion exists.

    g is re-read one step at a time and divided out after each step where
    the division is exact, so the powers of N_k do not compound; a
    fraction is carried only while it is not.  The exact division at the
    end decides Laurentness."""
    if isinstance(g, LaurentPoly):
        g = RationalExpr(g)
    g.num._compat(seed.vars[0])  # also for the empty path
    path = tuple(path)
    moved = g
    for step in cluster_substitution(seed, path):
        moved = express_rational(moved, [step]).simplify()
    try:
        return moved.as_laurent()
    except NotDivisibleError as exc:
        raise NotLaurentError(
            f"not Laurent in the cluster at path {list(path)}", path) from exc


# -- upper-algebra sampling ------------------------------------------------------------


@dataclass(frozen=True)
class MembershipVerdict:
    ok: bool
    depth: int
    clusters_checked: int
    failing_path: tuple[int, ...] | None = None


def upper_membership_sample(g: RationalExpr | LaurentPoly, seed: Seed,
                            depth: int) -> MembershipVerdict:
    """Check that g, given in the seed's own cluster, is Laurent in every
    cluster reachable in <= depth mutations (a finite sample of the
    upper-algebra condition).

    The walk carries the expansion it has just verified and re-reads it
    one step per edge.  Paths repeating the vertex just mutated are
    skipped: such a step returns to the previous cluster.  Paths are
    visited in lexicographic order, so the reported failing path is the
    lexicographically first one at its depth."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if isinstance(g, LaurentPoly):
        g = RationalExpr(g)
    g.num._compat(seed.vars[0])
    fld, n = seed.field, seed.n
    counter = {"clusters": 0}

    def walk(quiver: Quiver, moved: RationalExpr, path: tuple[int, ...],
             remaining: int) -> tuple[int, ...] | None:
        counter["clusters"] += 1
        try:
            expansion = moved.as_laurent()
        except NotDivisibleError:
            return path
        if remaining == 0:
            return None
        for k in quiver.mutable:
            if path and path[-1] == k:
                continue
            q2 = quiver.mutate(k)
            step = (k, _exchange_sum_symbolic(q2, k, fld, n))
            bad = walk(q2, express_rational(expansion, [step]), path + (k,),
                       remaining - 1)
            if bad is not None:
                return bad
        return None

    failing = walk(seed.quiver, g, (), depth)
    return MembershipVerdict(failing is None, depth, counter["clusters"],
                             failing)
