"""Tests of the benchmark itself: the reference computations reproduce
known figures, every check rejects a deliberately corrupted output, and
the traced run changes no output.

    python3 -m pytest cfbench/test_cfbench.py
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import oracles as ref
import run
import tracing
import workloads

cf = run.import_program()
ROOT = Path(__file__).resolve().parent.parent


def small(workload, **overrides):
    """A copy of a workload with smaller fixed inputs, for quick tests."""
    out = type(workload)()
    for name, value in overrides.items():
        setattr(out, name, value)
    return out


def proxy(**overrides):
    """The clusterfrob package with some functions replaced."""
    ns = types.SimpleNamespace(**{k: getattr(cf, k) for k in dir(cf)
                                  if not k.startswith("__")})
    for name, fn in overrides.items():
        setattr(ns, name, fn)
    return ns


def run_once(workload):
    inputs = workload.build(cf)
    outputs, attempted, failed = workload.run(cf, inputs)
    assert attempted > 0 and failed == 0
    return inputs, outputs


def with_term(poly, exps, coeff):
    """poly plus coeff * x^exps."""
    return poly + cf.LaurentPoly.monomial(poly.field, poly.n, exps, coeff)


# -- oracles against known figures --------------------------------------------


@pytest.mark.parametrize("kind,n,count", [
    ("A", 4, 10), ("A", 5, 15), ("D", 4, 12), ("D", 5, 20),
    ("E", 6, 36), ("E", 7, 63), ("E", 8, 120)])
def test_positive_root_counts(kind, n, count):
    assert len(ref.positive_roots(kind, n)) == count


def test_e6_highest_root():
    # simple roots 1-2-3-4-5 with 6 attached to 3
    assert max(ref.positive_roots("E", 6), key=sum) == (1, 2, 3, 2, 1, 2)


@pytest.mark.parametrize("kind,n,counts", [
    ("A", 2, (5, 5)), ("A", 3, (14, 9)), ("A", 5, (132, 20)),
    ("D", 4, (50, 16)), ("D", 5, (182, 25)), ("E", 6, (833, 42)),
    ("E", 8, (25080, 128))])
def test_fomin_zelevinsky_counts(kind, n, counts):
    assert ref.fz_counts(kind, n) == counts


def test_fz_variables_are_initial_plus_positive_roots():
    for kind, n in (("A", 6), ("D", 6), ("E", 6), ("E", 7), ("E", 8)):
        roots = ref.positive_roots(kind, n)
        assert ref.fz_counts(kind, n)[1] == n + len(roots)


def test_markov_triples_by_vieta_jumps():
    assert ref.markov_triples((0, 1, 2)) == [
        (1, 1, 1), (2, 1, 1), (2, 5, 1), (2, 5, 29)]
    for a, b, c in ref.markov_triples(workloads.MarkovPath.PATH):
        assert a * a + b * b + c * c == 3 * a * b * c


def test_binomial_count():
    assert ref.degree_bounded_count(6, 2) == 28
    assert ref.degree_bounded_count(6, 2) == len(
        cf.degree_bounded_monomials(6, 2))


def test_parse_render_round_trip():
    text = "x1^-1*x2^2 + 3/2*x1*x3^-4 - 7 - x2"
    poly = cf.parse_laurent(text, 3, cf.QQ)
    terms = ref.parse_render(poly.render(), 3)
    assert terms == {(-1, 2, 0): 1, (1, 0, -4): Fraction(3, 2),
                     (0, 0, 0): -7, (0, 1, 0): -1}
    assert ref.parse_render("0", 3) == {}


@pytest.mark.parametrize("text", [
    "1.0", "x1 + 1.0*x2", "2*y1", "x1^2.5", "x4", "x1 + x1", "4/2*x1", ""])
def test_parse_render_rejects(text):
    with pytest.raises(ValueError):
        ref.parse_render(text, 3)


def test_eval_mod_and_convolution():
    terms = {(2, -1): 3, (0, 0): Fraction(1, 2)}
    p = ref.BIG_PRIME
    assert ref.eval_mod(terms, (5, 7)) == (
        75 * pow(7, -1, p) + pow(2, -1, p)) % p
    square = ref.gf_mul({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1}, 2)
    assert square == {(2, 0): 1, (0, 2): 1}
    assert ref.residue_filter({(4, 9): 2, (4, 8): 1}, 5, 4) == {(0, 1): 2}


# -- each check rejects a corrupted output ------------------------------------

EXCHANGE = small(workloads.ExchangeGraph(), TYPES=(("A", 3), ("D", 4)))
SPLIT = small(workloads.SplitInvariance(),
              CASES=(("a2", 2, ((0, 1),), 3),))
PSI = small(workloads.PsiCompat(), N=2, ARROWS=((0, 1),), DEGREE=1)


def test_exchange_graph_checks_pass_and_catch_corruption():
    inputs, outputs = run_once(EXCHANGE)
    assert EXCHANGE.check(cf, inputs, outputs, random.Random(1)) == []
    d4 = outputs[1]
    # one cluster variable dropped
    dropped = dataclasses.replace(d4, variables=d4.variables[:-1])
    assert EXCHANGE.check(cf, inputs, [outputs[0], dropped],
                          random.Random(1))
    # one coefficient changed
    v = d4.variables[-1]
    e, c = next(iter(v.terms.items()))
    changed = d4.variables[:-1] + (with_term(v, e, 1),)
    bad = dataclasses.replace(d4, variables=changed)
    assert EXCHANGE.check(cf, inputs, [outputs[0], bad], random.Random(1))
    # graph not closed
    bad = dataclasses.replace(d4, closed=False)
    assert EXCHANGE.check(cf, inputs, [outputs[0], bad], random.Random(1))


def test_markov_path_checks_pass_and_catch_corruption():
    wl = small(workloads.MarkovPath(), PATH=(0, 1, 2, 0))
    seed, (forward, back) = run_once(wl)
    assert wl.check(cf, seed, (forward, back), random.Random(1)) == []
    s = forward[3]
    e = next(iter(s.vars[1].terms))
    for coeff in (1, -1):
        vars_ = list(s.vars)
        vars_[1] = with_term(vars_[1], e, coeff)
        bad = dataclasses.replace(s, vars=tuple(vars_))
        corrupt = forward[:3] + [bad] + forward[4:]
        assert wl.check(cf, seed, (corrupt, back), random.Random(1))
    # the way back that does not return
    assert wl.check(cf, seed, (forward, back[1:] + back[:1]),
                    random.Random(1))


def test_split_invariance_checks_pass_and_catch_corruption():
    inputs, outputs = run_once(SPLIT)
    assert SPLIT.check(cf, inputs, outputs, random.Random(3)) == []
    name, p, b, seed, k, rep = outputs[0]
    short = dataclasses.replace(rep, checked=rep.checked - 1)
    assert SPLIT.check(cf, inputs, [(name, p, b, seed, k, short)],
                       random.Random(3))

    def perturbed(m, r):
        value = cf.split_apply(m, r)
        return value + cf.RationalExpr(cf.LaurentPoly.monomial(
            value.field, value.n, (1,) * value.n))

    assert SPLIT.check(proxy(split_apply=perturbed), inputs, outputs,
                       random.Random(3))


def test_psi_compat_checks_pass_and_catch_corruption():
    inputs, outputs = run_once(PSI)
    assert PSI.check(cf, inputs, outputs, random.Random(5)) == []
    ok, rep = outputs
    short = dataclasses.replace(rep, checked=rep.checked - 1)
    assert PSI.check(cf, inputs, (ok, short), random.Random(5))

    def make(shift):
        def perturbed(pres, r, p):
            value = cf.psi_f_apply(pres, r, p)
            if shift(r):
                value = with_term(value, (2,) * r.n, 1)
            return value
        return perturbed

    # psi(1), the p^(-1)-linearity pairs and the compat values in turn
    for shift in (lambda r: r.is_one(),
                  lambda r: r.is_monomial() and not r.is_one(),
                  lambda r: len(r) > 1):
        assert PSI.check(proxy(psi_f_apply=make(shift)), inputs, outputs,
                         random.Random(5))


# -- the traced run -----------------------------------------------------------


@pytest.mark.parametrize("workload", [
    EXCHANGE, SPLIT, PSI, small(workloads.MarkovPath(), PATH=(0, 1, 2))],
    ids=lambda w: w.name)
def test_traced_outputs_equal_untraced(workload):
    _, plain = run_once(workload)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.recording = True
        _, traced = run_once(workload)
        metrics = tracer.metrics(0.0)
    finally:
        tracer.uninstall()
    assert workload.digest(traced) == workload.digest(plain)
    assert [name for name, _ in tracing.METRICS] == list(metrics)
    assert metrics["kernels.mul_calls"] > 0
    assert all(v >= 0 for k, v in metrics.items() if k.endswith("_s"))
    assert tracer.absent == []


def test_tracer_restores_every_name():
    before = (cf.explore, cf.frobenius.express_rational,
              cf.kernels.mul_terms, cf.LaurentPoly.__mul__)
    tracer = tracing.Tracer()
    tracer.install()
    assert cf.frobenius.express_rational is not before[1]
    assert cf.seed.express_rational is cf.frobenius.express_rational
    tracer.uninstall()
    assert (cf.explore, cf.frobenius.express_rational,
            cf.kernels.mul_terms, cf.LaurentPoly.__mul__) == before


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("quiver.canonical", "clusterfrob.quiver", "Quiver.gone"),
        ("budgets", "clusterfrob.budgets", "gone")))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["clusterfrob.quiver.Quiver.gone",
                             "clusterfrob.budgets.gone"]


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        x = cf.LaurentPoly.variable(cf.QQ, 2, 0) + cf.LaurentPoly.one(cf.QQ, 2)
        tracer.reset()
        tracer.recording = True
        x ** 40
    finally:
        tracer.uninstall()
    assert tracer.calls["laurent.pow"] == 1
    assert tracer.calls["laurent.mul"] > 1
    pow_span = list(tracer.span_group).index(
        tracing.GROUPS.index("laurent.pow"))
    total = tracer.span_end[pow_span] - tracer.span_start[pow_span]
    assert 0 <= tracer.self_s["laurent.pow"] < total


# -- the command --------------------------------------------------------------


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        tracing.METRICS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "cfbench", tmp_path / "cfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "cfbench/run.py", "--workload", "markov_path",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
