"""Seeds: a quiver plus a cluster of Laurent polynomials in the initial
variables.

Every cluster variable is stored as its Laurent expansion relative to the
initial cluster, so mutation itself witnesses the Laurent phenomenon: the
exchange division must come out exact at every step, and a failure is a bug
(LaurentViolationError), never a property of the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import budgets
from .errors import (BudgetExceededError, LaurentViolationError,
                     MutationAtFrozenError, NotDivisibleError,
                     NotLaurentError)
from .fields import require_same_field
from .laurent import LaurentPoly, RationalExpr
from .quiver import Quiver


@dataclass(frozen=True)
class Seed:
    quiver: Quiver
    vars: tuple[LaurentPoly, ...]
    path: tuple[int, ...] = ()

    def __post_init__(self):
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

    @property
    def field(self):
        return self.vars[0].field

    @property
    def n(self) -> int:
        return self.quiver.n

    def same_state(self, other: "Seed") -> bool:
        """Equality of quiver and cluster, ignoring the recorded path."""
        return self.quiver == other.quiver and self.vars == other.vars

    def is_initial(self) -> bool:
        return all(v == LaurentPoly.variable(self.field, self.n, i)
                   for i, v in enumerate(self.vars))

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
        """Seed mutation at mutable vertex k; exact at every step."""
        plus, minus = self.exchange_monomials(k)
        try:
            new_var = (plus + minus).exact_divide(self.vars[k])
        except NotDivisibleError as exc:
            raise LaurentViolationError(
                f"mutation at {k} produced a non-Laurent variable; "
                f"this is a bug") from exc
        new_vars = list(self.vars)
        new_vars[k] = new_var
        return Seed(self.quiver.mutate(k), tuple(new_vars), self.path + (k,))

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
        of a seed never carry the same variable, so the order is total."""
        sort_keys = [v.sort_key() for v in self.vars]
        order = sorted(range(self.n), key=sort_keys.__getitem__)
        b, frozen = self.quiver.b, self.quiver.frozen
        return (tuple(sort_keys[i] for i in order),
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
    `depth` steps, deduplicating seeds by `Seed.key` (the cluster, with
    the quiver read in the cluster's order).  `closed` reports whether the
    frontier emptied within the bound, i.e. the whole exchange graph was
    seen."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    max_seeds = budgets.current().max_seeds
    seen = {seed.key(): seed}
    order = [seed]
    variables = set(seed.vars)
    frontier = [seed]
    closed = False
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for k in s.quiver.mutable:
                t = s.mutate(k)
                tk = t.key()
                if tk in seen:
                    continue
                if len(seen) >= max_seeds:
                    raise BudgetExceededError(
                        "max_seeds", f"exploration passed {max_seeds} seeds")
                seen[tk] = t
                order.append(t)
                nxt.append(t)
                variables.update(t.vars)
        if not nxt:
            closed = True
            break
        frontier = nxt
    else:
        # depth exhausted; the graph is closed only if the last frontier
        # has nothing new to offer, which we have not checked -> not closed
        closed = depth == 0 and not seed.quiver.mutable
    variables_sorted = tuple(sorted(variables, key=lambda v: v.sort_key()))
    return ExploreResult(tuple(order), variables_sorted, closed, depth)


# -- change of cluster --------------------------------------------------------------


def _exchange_sum_symbolic(quiver: Quiver, k: int, fld, n: int) -> LaurentPoly:
    """p_plus + p_minus at k with the current cluster read as fresh symbols
    z_1..z_n; a Laurent polynomial not involving z_k."""
    plus, minus = quiver.exchange_exponents(k)
    return (LaurentPoly.monomial(fld, n, plus)
            + LaurentPoly.monomial(fld, n, minus))


def _subst_reciprocal(f: LaurentPoly, k: int, numer: LaurentPoly
                      ) -> tuple[LaurentPoly, LaurentPoly]:
    """Substitute z_k -> numer / z_k in f; returns (num, den) with den a
    power of numer.  `numer` must not involve z_k."""
    if f.is_zero():
        return f, LaurentPoly.one(f.field, f.n)
    degs = {e[k] for e in f.terms}
    dmin = min(degs)
    shift = -dmin if dmin < 0 else 0
    powers = {d: numer ** (d + shift) for d in degs}
    out = LaurentPoly.zero(f.field, f.n)
    grouped: dict[int, dict] = {d: {} for d in degs}
    for e, c in f.terms.items():
        e2 = list(e)
        e2[k] = -e[k]
        grouped[e[k]][tuple(e2)] = c
    for d, terms in grouped.items():
        part = LaurentPoly(f.field, f.n, terms)
        out = out + part * powers[d]
    return out, numer ** shift


def _subst_reciprocal_rational(r: RationalExpr, k: int,
                               numer: LaurentPoly) -> RationalExpr:
    num, extra_den = _subst_reciprocal(r.num, k, numer)
    den, extra_num = _subst_reciprocal(r.den, k, numer)
    return RationalExpr(num * extra_num, den * extra_den)


def cluster_substitution(seed: Seed, path) -> list[RationalExpr]:
    """Expressions of the initial variables in the cluster reached by
    `path`: entry i is x_i as a rational expression in fresh symbols
    z_1..z_n naming that cluster.

    Built step by step from the involution: after mutating at k, the old
    k-th variable equals (p_plus + p_minus)/z_k computed in the *mutated*
    quiver, so each step substitutes z_k -> N/z_k."""
    fld = seed.field
    n = seed.n
    subs = [RationalExpr.variable(fld, n, i) for i in range(n)]
    q = seed.quiver
    for k in path:
        q = q.mutate(k)  # raises at frozen/out-of-range vertices
        numer = _exchange_sum_symbolic(q, k, fld, n)
        subs = [_subst_reciprocal_rational(s, k, numer) for s in subs]
    return subs


def _is_identity(s: RationalExpr, i: int) -> bool:
    """Whether s is the variable x_i over denominator 1, read off its
    terms."""
    terms = s.num.terms
    if len(terms) != 1 or not s.den.is_one():
        return False
    for e in terms:
        return e[i] == 1 and e.count(0) == len(e) - 1 and terms[e] == 1


def _eval_poly(f: LaurentPoly, subs: list[RationalExpr],
               identity: list[bool]) -> RationalExpr:
    """f with x_i replaced by subs[i], except where identity[i] says that
    subs[i] is x_i itself: those exponents pass through unchanged."""
    fld, n = f.field, f.n
    total = None
    cache: dict[tuple[int, int], RationalExpr] = {}
    for e, c in f.terms.items():
        passthrough = tuple(a if identity[i] else 0 for i, a in enumerate(e))
        term = RationalExpr(LaurentPoly(fld, n, {passthrough: c}))
        for i, a in enumerate(e):
            if a == 0 or identity[i]:
                continue
            key = (i, a)
            power = cache.get(key)
            if power is None:
                power = cache[key] = subs[i] ** a
            term = term * power
        total = term if total is None else total + term
    if total is None:
        return RationalExpr(LaurentPoly.zero(fld, n))
    return total


def express_rational(g: RationalExpr | LaurentPoly,
                     subs: list[RationalExpr]) -> RationalExpr:
    if isinstance(g, LaurentPoly):
        g = RationalExpr.from_laurent(g)
    identity = []
    for i, s in enumerate(subs):
        g.num._compat(s.num)  # identity entries take part in no product
        identity.append(_is_identity(s, i))
    num = _eval_poly(g.num, subs, identity)
    if g.den.is_one():
        return num
    return num / _eval_poly(g.den, subs, identity)


def express_in_cluster(g: RationalExpr | LaurentPoly, seed: Seed,
                       path) -> LaurentPoly:
    """Laurent expansion of g (given in the initial variables of `seed`) in
    the cluster reached by `path`; NotLaurentError when no expansion exists.

    Denominators are carried unreduced; a single exact division at the end
    decides Laurentness."""
    if isinstance(g, LaurentPoly):
        g = RationalExpr(g)
    path = tuple(path)
    subs = cluster_substitution(seed, path)
    moved = express_rational(g, subs)
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
    expansions: dict = field(default_factory=dict, compare=False)


def upper_membership_sample(g: RationalExpr | LaurentPoly, seed: Seed,
                            depth: int, keep_expansions: bool = False
                            ) -> MembershipVerdict:
    """Check that g is Laurent in every cluster reachable in <= depth
    mutations (a finite sample of the upper-algebra condition).

    Paths repeating the vertex just mutated are skipped: such a step returns
    to the previous cluster.  Paths are visited in lexicographic order, so
    the reported failing path is the lexicographically first one at its
    depth."""
    if isinstance(g, LaurentPoly):
        g = RationalExpr(g)
    fld, n = seed.field, seed.n
    expansions: dict[tuple[int, ...], LaurentPoly] = {}
    counter = {"clusters": 0}

    def walk(quiver: Quiver, subs: list[RationalExpr],
             path: tuple[int, ...], remaining: int
             ) -> tuple[int, ...] | None:
        counter["clusters"] += 1
        try:
            expansion = express_rational(g, subs).as_laurent()
        except NotDivisibleError:
            return path
        if keep_expansions:
            expansions[path] = expansion
        if remaining == 0:
            return None
        for k in quiver.mutable:
            if path and path[-1] == k:
                continue
            q2 = quiver.mutate(k)
            numer = _exchange_sum_symbolic(q2, k, fld, n)
            subs2 = [_subst_reciprocal_rational(s, k, numer) for s in subs]
            bad = walk(q2, subs2, path + (k,), remaining - 1)
            if bad is not None:
                return bad
        return None

    subs0 = [RationalExpr.variable(fld, n, i) for i in range(n)]
    failing = walk(seed.quiver, subs0, (), depth)
    return MembershipVerdict(failing is None, depth, counter["clusters"],
                             failing, expansions)
