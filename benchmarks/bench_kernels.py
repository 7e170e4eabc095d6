"""Time the arithmetic kernels and fourteen library workloads.

Micro rows call the kernels directly on deterministic term dictionaries;
the two squares of the markov variable run alternately, so that a drift
of the host hits both.  Macro rows run a library workload in a fresh
interpreter subprocess.
Both import clusterfrob from this checkout's src/, never an installed
copy.  The markov3 row mutates criterion 1's 200 seeded paths, each
under raw_meter(10_000), the allowance criterion 1 gives them.

Usage:  python3 benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from clusterfrob import (GF, QQ, LaurentPoly, corpus,  # noqa: E402
                         initial_seed, kernels)
from clusterfrob.lowerbound import lower_bound_generators  # noqa: E402
from clusterfrob.showcase import markov_seed  # noqa: E402

PLENTY = [10**12]


def box_poly(side, nvars, coeff):
    rng = random.Random(97)
    out = {}
    for e in _box(side, nvars):
        out[e] = coeff(rng)
    return out


def _box(side, nvars):
    if nvars == 1:
        return [(i,) for i in range(side)]
    return [(i, j) for i in range(side) for j in range(side)]


def line_poly(length, coeff):
    rng = random.Random(71)
    return {(i, 2 * i): coeff(rng) for i in range(length)}


def gf_coeff(rng):
    return rng.randint(1, 4)


def qq_coeff(rng):
    """A fractional QQ coefficient in canonical form: the draws that come
    out integral are ints, as the kernels keep them."""
    return QQ.coerce(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7)))


def qq_int_coeff(rng):
    """An integral QQ coefficient, the kind every cluster variable has."""
    return rng.randint(-9, 9) or 1


def psi_factors(name, p):
    """f^(p-1) and f of a lower-bound presentation: the factors of
    psi(f) = split of (f^(p-1) * f)^(1/p)."""
    pres = lower_bound_generators(initial_seed(corpus.load(name), GF(p)))
    return (pres.f ** (p - 1)).terms, pres.f.terms


def unfused_split(a, b, p):
    """The unfused reference: the whole product, then the residue filter."""
    out = {}
    for e, c in kernels.mul_terms(a, b, p, 10**6, list(PLENTY)).items():
        if all(x % p == p - 1 for x in e):
            out[tuple((x - (p - 1)) // p for x in e)] = c
    return out


def markov_factors():
    """The Markov seed (a = 2) along 1,2,3,1,2, as markov_path mutates
    it: its 65-term variable, its next exchange, the sum x1^2 + x2^2
    with its divisor x3 (10 terms), and the 169-term variable of the
    step after, which the last step of markov_path squares."""
    s = markov_seed(2, QQ)
    for k in (0, 1, 2, 0, 1):
        s = s.mutate(k)
    x1, x2, x3 = s.vars
    return x2, x1 * x1 + x2 * x2, x3, s.mutate(2).vars[2]


def best_of(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def alternating(rows, repeat):
    """best_of for each row, the rows called in turn in every round."""
    times = {name: [] for name, _ in rows}
    for _ in range(repeat):
        for name, fn in rows:
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)
    return [(name, min(times[name])) for name, _ in rows]


def micro_rows(repeat):
    a_gf = box_poly(16, 2, gf_coeff)        # 256 terms
    b_gf = box_poly(14, 2, gf_coeff)        # 196 terms
    a_qq = box_poly(12, 2, qq_coeff)        # 144 terms
    b_qq = box_poly(10, 2, qq_coeff)        # 100 terms
    a_int = box_poly(12, 2, qq_int_coeff)   # 144 terms
    b_int = box_poly(10, 2, qq_int_coeff)   # 100 terms
    a_line = line_poly(600, gf_coeff)       # quadratic work, few terms
    prod_gf = kernels.mul_terms(a_gf, b_gf, 5, 10**6, list(PLENTY))
    prod_qq = kernels.mul_terms(a_qq, b_qq, 0, 10**6, list(PLENTY))
    prod_int = kernels.mul_terms(a_int, b_int, 0, 10**6, list(PLENTY))
    fpow, f = psi_factors("a3", 5)
    fpow_groups = kernels.residue_groups(fpow, 5)
    psi_rows = f"{len(fpow)}x{len(f)}"
    var, exchange, divisor, big = markov_factors()
    mono = {(3, -2): 2}
    prod_poly = LaurentPoly(GF(5), 2, prod_gf)
    mono_poly = LaurentPoly(GF(5), 2, mono)
    div_rows = f"{len(prod_gf)}-term"

    def div_workload(prod, a, b, p):
        # peel one cancellation off the product repeatedly, on keys
        # packed over the product's box, as the division runs its rows
        lo, hi = kernels.box(prod)
        radix = kernels.radices(lo, hi)
        rem = dict(kernels.pack_terms(prod, lo, radix))
        row = dict(kernels.pack_terms(b, [0] * len(lo), radix))
        for k0, c0 in kernels.pack_terms(
                {e: a[e] for e in sorted(a)[:40]}, lo, radix):
            kernels.submul_terms(rem, k0, c0, row, p, list(PLENTY))

    rows = [
        ("mul GF(5) 256x196 box", lambda: kernels.mul_terms(
            a_gf, b_gf, 5, 10**6, list(PLENTY))),
        ("mul QQ 144x100 box, fractional", lambda: kernels.mul_terms(
            a_qq, b_qq, 0, 10**6, list(PLENTY))),
        ("mul QQ 144x100 box, int", lambda: kernels.mul_terms(
            a_int, b_int, 0, 10**6, list(PLENTY))),
        ("mul GF(5) 600-term line", lambda: kernels.mul_terms(
            a_line, a_line, 5, 10**6, list(PLENTY))),
        ("mul GF(5) 1x256 one-term factor", lambda: kernels.mul_terms(
            mono, a_gf, 5, 10**6, list(PLENTY))),
        ("add GF(5) 256+196", lambda: kernels.add_terms(a_gf, b_gf, 5)),
        ("add QQ 144+100, fractional",
         lambda: kernels.add_terms(a_qq, b_qq, 0)),
        ("submul GF(5) x40", lambda: div_workload(prod_gf, a_gf, b_gf, 5)),
        ("submul QQ x40, fractional",
         lambda: div_workload(prod_qq, a_qq, b_qq, 0)),
        ("submul QQ x40, int",
         lambda: div_workload(prod_int, a_int, b_int, 0)),
        ("mul QQ markov_path variable squared "
         f"{len(var)}x{len(var)}, merging", lambda: var * var),
        (f"div QQ markov_path exchange {len(exchange)}-term "
         f"by {len(divisor)}-term", lambda: exchange.exact_divide(divisor)),
        (f"psi split a3 p=5 {psi_rows} fused, f^4 grouped",
         lambda: kernels.mul_split_terms(f, fpow, fpow_groups, 5, 5, 4,
                                         10**6, list(PLENTY))),
        (f"psi split a3 p=5 {psi_rows} mul+filter",
         lambda: unfused_split(fpow, f, 5)),
        (f"div GF(5) {div_rows} by monomial shift",
         lambda: prod_poly.exact_divide(mono_poly)),
        (f"div GF(5) {div_rows} by monomial cancellation",
         lambda: prod_poly._divide_by_cancellation(mono_poly)),
    ]
    squares = [
        (f"square QQ markov variable {len(big)} terms, mul_terms",
         lambda: kernels.mul_terms(big.terms, big.terms, 0, 10**6,
                                   list(PLENTY))),
        (f"square QQ markov variable {len(big)} terms, square_terms",
         lambda: kernels.square_terms(big.terms, 0, 10**6, list(PLENTY))),
    ]
    return ([(name, best_of(work, repeat)) for name, work in rows]
            + alternating(squares, repeat))


MACRO_SNIPPETS = {
    "explore markov depth 4": (
        "from clusterfrob.showcase import markov_seed\n"
        "from clusterfrob.seed import explore\n"
        "from clusterfrob.fields import QQ\n"
        "explore(markov_seed(2, QQ), 4)\n"),
    "invariance a3 p=3 box": (
        "import itertools\n"
        "from clusterfrob import corpus\n"
        "from clusterfrob.fields import GF\n"
        "from clusterfrob.seed import initial_seed\n"
        "from clusterfrob.frobenius import splitting_invariance_check\n"
        "s = initial_seed(corpus.load('a3'), GF(3))\n"
        "sample = list(itertools.product(range(-6, 7), repeat=3))\n"
        "assert splitting_invariance_check(s, 0, 3, sample).ok\n"),
    "invariance markov p=3 at a mutated seed": (
        "import itertools\n"
        "from clusterfrob import corpus\n"
        "from clusterfrob.fields import GF\n"
        "from clusterfrob.seed import initial_seed\n"
        "from clusterfrob.frobenius import splitting_invariance_check\n"
        "s = initial_seed(corpus.load('markov'), GF(3)).mutate(0)\n"
        "sample = list(itertools.product(range(-6, 7), repeat=3))\n"
        "for k in range(3):\n"
        "    assert splitting_invariance_check(s, k, 3, sample).ok\n"),
    "invariance boxes p=7 a2/a3/markov": (
        "import itertools\n"
        "from clusterfrob import corpus\n"
        "from clusterfrob.fields import GF\n"
        "from clusterfrob.seed import initial_seed\n"
        "from clusterfrob.frobenius import splitting_invariance_check\n"
        "checked = 0\n"
        "for name in ('a2', 'a3', 'markov'):\n"
        "    q = corpus.load(name)\n"
        "    s = initial_seed(q, GF(7))\n"
        "    sample = list(itertools.product(range(-14, 15), repeat=q.n))\n"
        "    for k in sorted(q.mutable):\n"
        "        rep = splitting_invariance_check(s, k, 7, sample)\n"
        "        assert rep.ok\n"
        "        checked += rep.checked\n"
        "assert checked == 148_016, checked\n"),
    "explore E6 to closure": (
        "from clusterfrob import Quiver\n"
        "from clusterfrob.fields import QQ\n"
        "from clusterfrob.seed import explore, initial_seed\n"
        "b = [[0] * 6 for _ in range(6)]\n"
        "for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)):\n"
        "    b[i][j], b[j][i] = 1, -1\n"
        "q = Quiver(6, tuple(map(tuple, b)), frozenset())\n"
        "r = explore(initial_seed(q, QQ), 100)\n"
        "assert r.closed\n"
        "assert (r.seed_count, r.variable_count) == (833, 42)\n"),
    "explore E7 to closure": (
        "from clusterfrob import Quiver\n"
        "from clusterfrob.fields import QQ\n"
        "from clusterfrob.seed import explore, initial_seed\n"
        "b = [[0] * 7 for _ in range(7)]\n"
        "for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)):\n"
        "    b[i][j], b[j][i] = 1, -1\n"
        "q = Quiver(7, tuple(map(tuple, b)), frozenset())\n"
        "r = explore(initial_seed(q, QQ), 100)\n"
        "assert r.closed\n"
        "assert (r.seed_count, r.variable_count) == (4160, 70)\n"),
    "explore E8 to closure": (
        "from clusterfrob import Quiver\n"
        "from clusterfrob.fields import QQ\n"
        "from clusterfrob.seed import explore, initial_seed\n"
        "b = [[0] * 8 for _ in range(8)]\n"
        "for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), "
        "(2, 7)):\n"
        "    b[i][j], b[j][i] = 1, -1\n"
        "q = Quiver(8, tuple(map(tuple, b)), frozenset())\n"
        "r = explore(initial_seed(q, QQ), 100)\n"
        "assert r.closed\n"
        "assert (r.seed_count, r.variable_count) == (25080, 128)\n"),
    "compat a3 p=5 degree 2": (
        "from clusterfrob import corpus\n"
        "from clusterfrob.fields import GF\n"
        "from clusterfrob.seed import initial_seed\n"
        "from clusterfrob.lowerbound import (compat_check,\n"
        "    degree_bounded_monomials, lower_bound_generators)\n"
        "seed = initial_seed(corpus.load('a3'), GF(5))\n"
        "pres = lower_bound_generators(seed)\n"
        "assert compat_check(pres, 5, degree_bounded_monomials(6, 2)).ok\n"),
    "compat a3 p=7 degree 2": (
        "from clusterfrob import corpus\n"
        "from clusterfrob.fields import GF\n"
        "from clusterfrob.seed import initial_seed\n"
        "from clusterfrob.lowerbound import (compat_check,\n"
        "    degree_bounded_monomials, lower_bound_generators)\n"
        "seed = initial_seed(corpus.load('a3'), GF(7))\n"
        "pres = lower_bound_generators(seed)\n"
        "assert compat_check(pres, 7, degree_bounded_monomials(6, 2)).ok\n"),
    "markov membership a=3 depth 3": (
        "from clusterfrob.fields import QQ\n"
        "from clusterfrob.seed import upper_membership_sample\n"
        "from clusterfrob.showcase import markov_M, markov_seed\n"
        "m = markov_M(3, QQ)\n"
        "assert upper_membership_sample(m, markov_seed(3, QQ), 3).ok\n"),
    "mutate markov3 criterion-1 paths": (
        "import random\n"
        "from clusterfrob import budgets, corpus\n"
        "from clusterfrob.errors import BudgetExceededError\n"
        "from clusterfrob.fields import QQ\n"
        "from clusterfrob.seed import initial_seed\n"
        "base = initial_seed(corpus.load('markov3'), QQ)\n"
        "rng = random.Random(20260818)\n"
        "steps = truncated = 0\n"
        "for _ in range(200):\n"
        "    path = [rng.choice(range(3)) for _ in range(rng.randint(1, 6))]\n"
        "    try:\n"
        "        with budgets.raw_meter(10_000):\n"
        "            s = base\n"
        "            for k in path:\n"
        "                s = s.mutate(k)\n"
        "                steps += 1\n"
        "    except BudgetExceededError:\n"
        "        truncated += 1\n"
        "assert (steps, truncated) == (587, 32), (steps, truncated)\n"),
    "mutate markov3 4th step along 1,2,3,1, default budgets": (
        "from clusterfrob import corpus\n"
        "from clusterfrob.fields import QQ\n"
        "from clusterfrob.seed import initial_seed\n"
        "s = initial_seed(corpus.load('markov3'), QQ)\n"
        "for k in (0, 1, 2, 0):\n"
        "    s = s.mutate(k)\n"
        "assert len(s.vars[0]) == 13_580\n"),
    "power a3 presentation f ** 10 over GF(11)": (
        "from clusterfrob import corpus\n"
        "from clusterfrob.fields import GF\n"
        "from clusterfrob.seed import initial_seed\n"
        "from clusterfrob.lowerbound import lower_bound_generators\n"
        "pres = lower_bound_generators(initial_seed(corpus.load('a3'), "
        "GF(11)))\n"
        "assert len(pres.f ** 10) == 62_436\n"),
    "express markov3 M along 1,2,3": (
        "from clusterfrob.fields import QQ\n"
        "from clusterfrob.seed import express_in_cluster\n"
        "from clusterfrob.showcase import markov_M, markov_seed\n"
        "m = markov_M(3, QQ)\n"
        "assert len(express_in_cluster(m, markov_seed(3, QQ), (0, 1, 2))) "
        "== 118\n"),
}


def macro_time(snippet):
    code = ("import sys, time\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "t0 = time.perf_counter()\n"
            + snippet +
            "print(time.perf_counter() - t0)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.strip())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="best-of repetitions per micro row (default 5)")
    args = ap.parse_args()

    rows = micro_rows(args.repeat)
    for name, snippet in MACRO_SNIPPETS.items():
        rows.append((name + " (subprocess)", macro_time(snippet)))

    width = max(len(r[0]) for r in rows)
    print(f"{'workload':<{width}}  {'time':>10}")
    for name, t in rows:
        print(f"{name:<{width}}  {t:>9.4f}s")


if __name__ == "__main__":
    main()
