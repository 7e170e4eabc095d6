"""The four workloads: how each builds its inputs, runs one pass and
checks the outputs against the reference computations in `oracles`.

A workload's program-side inputs are fixed; `--seed` only draws the random
evaluation points and the reference subsets the checks use, so runs with
different seeds time the same work.  Every program function is looked up
on the `clusterfrob` package at call time, which lets the traced run wrap
it.

One pass runs every operation of the workload once, so `attempted` and
`failed` are whole multiples of one pass.
"""

from __future__ import annotations

import itertools

import oracles as ref

MARKOV_B = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))


def _quiver_matrix(n: int, arrows) -> tuple[tuple[int, ...], ...]:
    b = [[0] * n for _ in range(n)]
    for i, j in arrows:
        b[i][j] += 1
        b[j][i] -= 1
    return tuple(tuple(row) for row in b)


def _exchange_exponents(b, k: int):
    """Exponent vectors of p_plus (arrows j -> k) and p_minus (k -> j)."""
    n = len(b)
    plus = tuple(max(b[j][k], 0) for j in range(n))
    minus = tuple(max(-b[j][k], 0) for j in range(n))
    return plus, minus


def _terms(poly, n: int) -> dict:
    return ref.parse_render(poly.render(), n)


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(n))


class ExchangeGraph:
    """`explore` to closure on acyclic Dynkin quivers over QQ."""

    name = "exchange_graph"
    TYPES = (("A", 4), ("D", 4), ("A", 5), ("D", 5))
    DEPTH = 64  # far above every diameter here; closure ends the walk

    def build(self, cf):
        return [(kind, n, cf.initial_seed(
            cf.Quiver(n, _quiver_matrix(n, ref.dynkin_edges(kind, n))),
            cf.QQ)) for kind, n in self.TYPES]

    def run(self, cf, inputs):
        outputs, failed = [], 0
        for kind, n, seed in inputs:
            try:
                outputs.append(cf.explore(seed, self.DEPTH))
            except cf.ClusterFrobError:
                outputs.append(None)
                failed += 1
        return outputs, len(inputs), failed

    def digest(self, outputs):
        return tuple(None if r is None else
                     (r.seed_count, r.closed,
                      tuple(v.render() for v in r.variables))
                     for r in outputs)

    def check(self, cf, inputs, outputs, rng):
        errors = []
        for (kind, n, _), r in zip(inputs, outputs):
            if r is None:
                continue
            label = f"{kind}{n}"
            clusters, variables = ref.fz_counts(kind, n)
            if not r.closed:
                errors.append(f"{label}: exchange graph not closed")
            if (r.seed_count, r.variable_count) != (clusters, variables):
                errors.append(f"{label}: {r.seed_count} clusters and "
                              f"{r.variable_count} variables, expected "
                              f"{clusters} and {variables}")
            initial = {_unit(n, i) for i in range(n)}
            dvectors = []
            for v in r.variables:
                terms = _terms(v, n)
                if not ref.all_positive_integers(terms):
                    errors.append(f"{label}: coefficient not a positive "
                                  f"integer in {v.render()}")
                if len(terms) == 1 and next(iter(terms)) in initial:
                    continue
                dvectors.append(ref.denominator_vector(terms, n))
            roots = ref.positive_roots(kind, n)
            if sorted(dvectors) != sorted(roots):
                errors.append(f"{label}: denominator vectors are not the "
                              f"{len(roots)} positive roots")
            errors += self._exchange(kind, n, r, rng, label)
        return errors

    def _exchange(self, kind, n, r, rng, label):
        """Every seed's quiver is the initial one mutated along its path,
        its variables are among the result's, and at a random point every
        exchange x_k x_k' = p_plus + p_minus lands on a result variable."""
        errors = []
        prime = ref.BIG_PRIME
        point = [rng.randrange(1, prime) for _ in range(n)]
        value = {v.render(): ref.eval_mod(_terms(v, n), point)
                 for v in r.variables}
        known = set(value.values())
        b0 = _quiver_matrix(n, ref.dynkin_edges(kind, n))
        seen = set()
        for s in r.seeds:
            if s.quiver.b != ref.mutate_matrix(b0, s.path):
                errors.append(f"{label}: quiver at path {s.path}")
            names = [v.render() for v in s.vars]
            if not set(names) <= value.keys():
                errors.append(f"{label}: seed at path {s.path} has a "
                              f"variable missing from the result")
                continue
            seen.update(names)
            x = [value[name] for name in names]
            for k in range(n):
                plus, minus = _exchange_exponents(s.quiver.b, k)
                total = 0
                for e in (plus, minus):
                    term = 1
                    for xj, a in zip(x, e):
                        term = term * pow(xj, a, prime) % prime
                    total += term
                if total * pow(x[k], -1, prime) % prime not in known:
                    errors.append(f"{label}: exchange at vertex {k + 1} "
                                  f"from path {s.path} leaves the result")
        if seen != value.keys():
            errors.append(f"{label}: a result variable lies in no seed")
        return errors


class MarkovPath:
    """The Markov seed (a = 2) over QQ mutated along 1,2,3,1,... with the
    way back taken at every step."""

    name = "markov_path"
    PATH = (0, 1, 2, 0, 1, 2, 0)
    POINTS = 3

    def build(self, cf):
        return cf.markov_seed(2, cf.QQ)

    def run(self, cf, seed):
        """One operation is one step: the mutation and the way back."""
        forward, back, failed = [seed], [], 0
        for k in self.PATH:
            try:
                m = forward[-1].mutate(k)
                back.append(m.mutate(k))
            except cf.ClusterFrobError:
                failed = len(self.PATH) - len(back)
                break
            forward.append(m)
        return (forward, back), len(self.PATH), failed

    def digest(self, outputs):
        forward, back = outputs
        return tuple(tuple(v.render() for v in s.vars)
                     for s in forward + back)

    def check(self, cf, seed, outputs, rng):
        errors = []
        forward, back = outputs
        steps = len(back)
        triples = ref.markov_triples(self.PATH)
        clusters = [[_terms(v, 3) for v in s.vars] for s in forward]
        points = [tuple(rng.randrange(1, ref.BIG_PRIME) for _ in range(3))
                  for _ in range(self.POINTS)]
        for t, (s, cluster) in enumerate(zip(forward, clusters)):
            sign = -1 if t % 2 else 1
            want_b = tuple(tuple(sign * x for x in row) for row in MARKOV_B)
            if s.quiver.b != want_b:
                errors.append(f"step {t}: quiver {s.quiver.b}")
            for v, terms in zip(s.vars, cluster):
                if not ref.all_positive_integers(terms):
                    errors.append(f"step {t}: coefficient not a positive "
                                  f"integer in {v.render()[:60]}")
            values = tuple(sum(terms.values()) for terms in cluster)
            if values != triples[t]:
                errors.append(f"step {t}: values {values} at (1,1,1), "
                              f"Vieta jump gives {triples[t]}")
        for point in points:
            inv = [_markov_invariant(c, point) for c in clusters]
            if len(set(inv)) != 1:
                errors.append(f"invariant differs along the path at {point}")
            for t in range(steps):
                k = self.PATH[t]
                i, j = (v for v in range(3) if v != k)
                now = [ref.eval_mod(c, point) for c in clusters[t]]
                new = ref.eval_mod(clusters[t + 1][k], point)
                lhs = now[k] * new % ref.BIG_PRIME
                rhs = (now[i] ** 2 + now[j] ** 2) % ref.BIG_PRIME
                if lhs != rhs:
                    errors.append(f"step {t}: exchange relation fails")
        for t in range(steps):
            k = self.PATH[t]
            for i in range(3):
                if i != k and clusters[t + 1][i] != clusters[t][i]:
                    errors.append(f"step {t}: variable {i + 1} changed")
            if (back[t].quiver.b != forward[t].quiver.b
                    or [v.render() for v in back[t].vars]
                    != [v.render() for v in forward[t].vars]):
                errors.append(f"step {t}: mutating back does not return")
        return errors


def _markov_invariant(cluster, point) -> int:
    """(x1^2 + x2^2 + x3^2) / (x1 x2 x3) at a point, modulo BIG_PRIME."""
    p = ref.BIG_PRIME
    x = [ref.eval_mod(terms, point) for terms in cluster]
    return (sum(v * v for v in x) * pow(x[0] * x[1] * x[2] % p, -1, p)) % p


class SplitInvariance:
    """`splitting_invariance_check` at every mutable vertex, over the box
    [-2p, 2p]^n of exponent vectors."""

    name = "split_invariance"
    # (name, vertex count, arrows, p); markov has double arrows
    CASES = (("a3", 3, ((0, 1), (1, 2)), 3),
             ("markov", 3, ((0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)),
              3),
             ("a2", 2, ((0, 1),), 5))
    SUBSET = 4  # reference-checked vectors per report

    def build(self, cf):
        inputs = []
        for name, n, arrows, p in self.CASES:
            b = _quiver_matrix(n, arrows)
            seed = cf.initial_seed(cf.Quiver(n, b), cf.GF(p))
            box = range(-2 * p, 2 * p + 1)
            inputs.append((name, p, b, seed,
                           list(itertools.product(box, repeat=n))))
        return inputs

    def run(self, cf, inputs):
        outputs, attempted, failed = [], 0, 0
        for name, p, b, seed, sample in inputs:
            for k in range(seed.n):
                attempted += 1
                try:
                    rep = cf.splitting_invariance_check(seed, k, p, sample)
                except cf.ClusterFrobError:
                    failed += 1
                    continue
                if not rep.ok:
                    failed += 1
                outputs.append((name, p, b, seed, k, rep))
        return outputs, attempted, failed

    def digest(self, outputs):
        return tuple((name, p, k, rep.checked, rep.failures)
                     for name, p, _, _, k, rep in outputs)

    def check(self, cf, inputs, outputs, rng):
        errors = []
        for name, p, b, seed, k, rep in outputs:
            label = f"{name} p={p} k={k + 1}"
            size = (4 * p + 1) ** seed.n
            if rep.checked != size:
                errors.append(f"{label}: checked {rep.checked} vectors, "
                              f"the box has {size}")
            errors += self._reference(cf, b, seed, k, p, rng, label)
        return errors

    def _reference(self, cf, b, seed, k, p, rng, label):
        """phi(x'^alpha) by plain convolution and filtering, for vectors
        with alpha_k >= 0, against x'^(alpha/p) and against the program's
        split_apply on the program's mutated variable."""
        errors = []
        n = seed.n
        plus, minus = _exchange_exponents(b, k)
        xk_new = {}
        for e in (plus, minus):
            key = tuple(a - (i == k) for i, a in enumerate(e))
            xk_new[key] = (xk_new.get(key, 0) + 1) % p
        mutated = seed.mutate(k)
        if ref.gf_normalize(_terms(mutated.vars[k], n), p) != xk_new:
            errors.append(f"{label}: mutated variable "
                          f"{mutated.vars[k].render()}")
        standard = cf.SplittingMap.standard(p, 1, n)
        box = range(-2 * p, 2 * p + 1)
        for _ in range(self.SUBSET):
            alpha = [rng.choice(box) for _ in range(n)]
            alpha[k] = abs(alpha[k])
            phi = ref.residue_filter(
                _laurent_power(xk_new, alpha, k, p), p, 0)
            if all(a % p == 0 for a in alpha):
                want = _laurent_power(xk_new, [a // p for a in alpha], k, p)
            else:
                want = {}
            if phi != want:
                errors.append(f"{label}: reference phi(x'^{alpha}) is not "
                              f"x'^(alpha/p) or 0")
            value = (cf.LaurentPoly.monomial(
                cf.GF(p), n, [0 if i == k else a for i, a in enumerate(alpha)])
                * mutated.vars[k] ** alpha[k])
            got = cf.split_apply(standard, value).render()
            if ref.gf_normalize(ref.parse_render(got, n), p) != phi:
                errors.append(f"{label}: split_apply(x'^{alpha}) = "
                              f"{got[:60]}")
        return errors


def _laurent_power(xk_new: dict, alpha, k: int, p: int) -> dict:
    """x'^alpha in the initial variables: x'_i = x_i except at k."""
    mono = tuple(0 if i == k else a for i, a in enumerate(alpha))
    return ref.gf_mul({mono: 1}, ref.gf_pow(xk_new, alpha[k], p, len(mono)),
                      p)


class PsiCompat:
    """Fresh lower-bound presentation of a3 over GF(5): `verify_lb_splitting`
    then `compat_check` on every monomial of degree <= 2."""

    name = "psi_compat"
    N, ARROWS, P, DEGREE = 3, ((0, 1), (1, 2)), 5, 2
    PAIRS = 3   # seeded (h, r) pairs for p^(-1)-linearity
    SAMPLES = 3  # seeded compat samples recomputed by reference

    def build(self, cf):
        seed = cf.initial_seed(cf.Quiver(self.N, _quiver_matrix(
            self.N, self.ARROWS)), cf.GF(self.P))
        return (cf.lower_bound_generators(seed),
                cf.degree_bounded_monomials(2 * self.N, self.DEGREE))

    def run(self, cf, inputs):
        pres, samples = inputs
        attempted = 1 + len(samples)
        try:
            ok = cf.verify_lb_splitting(pres, self.P)
            rep = cf.compat_check(pres, self.P, samples)
        except cf.ClusterFrobError:
            return None, attempted, attempted
        return (ok, rep), attempted, (not ok) + len(rep.failures)

    def digest(self, outputs):
        if outputs is None:
            return None
        ok, rep = outputs
        return ok, rep.checked, rep.failures

    def check(self, cf, inputs, outputs, rng):
        if outputs is None:
            return []
        pres, samples = inputs
        ok, rep = outputs
        p, nn = self.P, 2 * self.N
        fld = cf.GF(p)
        errors = []
        want = ref.degree_bounded_count(nn, self.DEGREE)
        if rep.checked != want or len(samples) != want:
            errors.append(f"checked {rep.checked} samples, C(2n+d, d) = "
                          f"{want}")
        one = cf.psi_f_apply(pres, cf.LaurentPoly.one(fld, nn), p)
        if not ok or one.render() != "1":
            errors.append(f"psi(1) = {one.render()}")
        f = self._f_reference()
        if ref.gf_normalize(_terms(pres.f, nn), p) != f:
            errors.append("presentation f differs from the product of the "
                          "exchange binomials")
        fpow = ref.gf_pow(f, p - 1, p, nn)
        if ref.residue_filter(fpow, p, p - 1) != {(0,) * nn: 1}:
            errors.append("reference psi(1) is not 1")

        def psi(r_exps):
            value = cf.psi_f_apply(pres, cf.LaurentPoly.monomial(
                fld, nn, r_exps), p)
            return ref.gf_normalize(_terms(value, nn), p)

        for _ in range(self.PAIRS):
            # r completes a random term of f^(p-1) to the kept residue
            # class, so psi(r) is not 0
            e = rng.choice(sorted(fpow))
            r = tuple((p - 1 - a) % p for a in e)
            h = tuple(rng.randrange(2) for _ in range(nn))
            want_r = ref.residue_filter(
                ref.gf_mul(fpow, {r: 1}, p), p, p - 1)
            got_r = psi(r)
            if got_r != want_r:
                errors.append(f"psi(x^{r}) differs from the reference")
            lhs = psi(tuple(p * a + b for a, b in zip(h, r)))
            if lhs != ref.gf_mul({h: 1}, got_r, p):
                errors.append(f"psi(h^p r) != h psi(r) at h={h}, r={r}")
        fp = ref.gf_mul(fpow, f, p)
        # the degree-bounded samples all give 0; x^(p-1 + p*gamma) does not
        gamma = tuple(rng.randrange(2) for _ in range(nn))
        for g in rng.sample(samples, self.SAMPLES) + [
                tuple(p - 1 + p * c for c in gamma)]:
            value = cf.psi_f_apply(pres, pres.f * cf.LaurentPoly.monomial(
                fld, nn, g), p)
            got = ref.gf_normalize(_terms(value, nn), p)
            direct = ref.residue_filter(ref.gf_mul(fp, {g: 1}, p), p, p - 1)
            quotient = ref.residue_filter({g: 1}, p, p - 1)
            if not got == direct == ref.gf_mul(f, quotient, p):
                errors.append(f"compat value at g={g} is not f * split(g)")
        return errors

    def _f_reference(self) -> dict:
        """f = prod_i (x_i y_i - p_i^+ - p_i^-) over GF(p), 2n variables."""
        n, p = self.N, self.P
        b = _quiver_matrix(n, self.ARROWS)
        f = {(0,) * (2 * n): 1}
        for i in range(n):
            plus, minus = _exchange_exponents(b, i)
            g = {_unit(n, i) + _unit(n, i): 1}
            for e in (plus, minus):
                key = e + (0,) * n
                g[key] = (g.get(key, 0) - 1) % p
            f = ref.gf_mul(f, g, p)
        return f


WORKLOADS = {w.name: w for w in (ExchangeGraph(), MarkovPath(),
                                 SplitInvariance(), PsiCompat())}
