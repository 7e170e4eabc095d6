"""The `cf` command line tool.

Each subcommand performs one exact computation and prints a certificate
(plain text, or JSON with --json) to stdout.  Certificates are
deterministic: rerunning a command byte-reproduces its report; timing goes
to stderr.  Exit status: 0 = certificate PASS, 1 = mathematical failure
(a check failed or a hypothesis is violated by the input), 2 = usage,
format or budget error.

Vertices on the command line are 1-based, matching the quiver file format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import budgets, corpus
from .certificate import Certificate
from .errors import (BadCharacteristicError, BudgetExceededError,
                     ClusterFrobError, LaurentViolationError,
                     MutationAtFrozenError, NoMutableVertexError,
                     NotAcyclicError, NotDivisibleError, QuiverFormatError)
from .fields import GF, QQ
from .frobenius import (SplittingMap, freg_witness_sink, split_apply)
from .laurent import LaurentPoly, RationalExpr, parse_laurent
from .lowerbound import (compat_check, degree_bounded_monomials,
                         localization_identity_check, lower_bound_generators,
                         verify_lb_splitting)
from .quiver import quiver_from_dict
from .seed import Seed, explore, initial_seed, upper_membership_sample
from .showcase import (Grading, graded_obstruction_check,
                       markov_freg_certificate, markov_M, markov_seed)
from .volform import mutation_path_sign, volume_form_mutation_sign

USAGE_EXIT = 2
MATH_EXIT = 1


def _field_for(args) -> object:
    prime = getattr(args, "prime", None)
    return QQ if prime is None else GF(prime)


def _resolve_quiver(ref: str):
    if os.path.exists(ref):
        try:
            with open(ref, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise QuiverFormatError(f"{ref}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise QuiverFormatError(
                f"{ref}: not UTF-8 text at byte {exc.start}") from exc
        except json.JSONDecodeError as exc:
            raise QuiverFormatError(f"{ref}: line {exc.lineno}, column "
                                    f"{exc.colno}: {exc.msg}") from exc
        return quiver_from_dict(data, source=ref), data, ref
    try:
        q = corpus.load(ref)
    except KeyError as exc:
        raise QuiverFormatError(exc.args[0]) from exc
    return q, None, f"corpus:{ref.removesuffix('.quiver')}"


def _load_seed(ref: str, field) -> tuple[Seed, str]:
    q, data, label = _resolve_quiver(ref)
    if data and "vars" in data:
        raw = data["vars"]
        if (not isinstance(raw, list) or len(raw) != q.n
                or not all(isinstance(s, str) for s in raw)):
            raise QuiverFormatError(
                f"{ref}: 'vars' must list {q.n} polynomial strings")
        try:
            vars_ = tuple(parse_laurent(s, q.n, field) for s in raw)
        except ValueError as exc:
            raise QuiverFormatError(f"{ref}: {exc}") from exc
        return Seed(q, vars_), label
    return initial_seed(q, field), label


def _vertex(k: int, n: int, frozen=frozenset(), noun="vertex") -> int:
    """The 0-based index of 1-based vertex k; errors name k 1-based."""
    if not 1 <= k <= n:
        raise argparse.ArgumentTypeError(
            f"{noun} {k} out of range 1..{n}")
    if k - 1 in frozen:
        raise MutationAtFrozenError(f"vertex {k} is frozen")
    return k - 1


def _not_a_cluster(cert: Certificate, check: str, seed: Seed,
                   exc: LaurentViolationError) -> Certificate:
    """Fail `check` when a mutation of given `vars` is not Laurent: the
    file is at fault.  From the quiver's initial seed the error stands."""
    if seed.same_state(initial_seed(seed.quiver, seed.field)):
        raise exc
    cert.add_check(check, False,
                   f"mutation at vertex {exc.vertex + 1} is not Laurent: "
                   "the file's vars are not a cluster of its quiver")
    return cert


def _print(cert: Certificate, as_json: bool) -> None:
    sys.stdout.write((cert.to_json() if as_json else cert.render()) + "\n")


# -- subcommand implementations ------------------------------------------------


def _cmd_mutate(args) -> Certificate:
    field = _field_for(args)
    seed, label = _load_seed(args.quiver, field)
    cert = Certificate("mutate")
    cert.add_input("quiver", label)
    cert.add_input("field", field.name)
    cert.add_input("vertices", ",".join(str(k) for k in args.at))
    s = seed
    try:
        for k in args.at:
            s = s.mutate(_vertex(k, seed.n, seed.quiver.frozen))
    except LaurentViolationError as exc:
        return _not_a_cluster(cert, "laurent-at-every-step", seed, exc)
    cert.add_witness("quiver-out", s.quiver.to_json())
    for i, v in enumerate(s.vars):
        cert.add_witness(f"x{i + 1}", v.render())
    cert.add_check("laurent-at-every-step", True)
    return cert


def _cmd_explore(args) -> Certificate:
    field = _field_for(args)
    seed, label = _load_seed(args.quiver, field)
    cert = Certificate("explore")
    cert.add_input("quiver", label)
    cert.add_input("field", field.name)
    cert.add_input("depth", args.depth)
    try:
        result = explore(seed, args.depth)
    except LaurentViolationError as exc:
        return _not_a_cluster(cert, "exchange-graph-walk", seed, exc)
    cert.add_witness("seeds", result.seed_count)
    cert.add_witness("variables", result.variable_count)
    cert.add_witness("closed", "yes" if result.closed else "no")
    for i, v in enumerate(result.variables):
        cert.add_witness(f"var{i + 1}", v.render())
    cert.add_check("exchange-graph-walk", True)
    return cert


def _cmd_laurent(args) -> Certificate:
    field = _field_for(args)
    cert = Certificate("laurent")
    cert.add_input("field", field.name)
    cert.add_input("op", args.op)
    lhs = parse_laurent(args.lhs, args.vars, field)
    cert.add_input("lhs", lhs.render())
    rhs = None
    if args.op in ("add", "sub", "mul", "div"):
        if args.rhs is None:
            raise argparse.ArgumentTypeError(f"--rhs required for {args.op}")
        rhs = parse_laurent(args.rhs, args.vars, field)
        cert.add_input("rhs", rhs.render())
    if args.op == "add":
        out = lhs + rhs
    elif args.op == "sub":
        out = lhs - rhs
    elif args.op == "mul":
        out = lhs * rhs
    elif args.op == "div":
        try:
            out = lhs.exact_divide(rhs)
        except NotDivisibleError as exc:
            cert.add_check("exact-division", False, str(exc))
            return cert
        cert.add_check("exact-division", True)
    else:  # diff
        if args.index is None:
            raise argparse.ArgumentTypeError("--index required for diff")
        out = lhs.partial_derivative(
            _vertex(args.index, args.vars, noun="variable"))
    cert.add_witness("value", out.render())
    if args.op == "div":
        cert.add_check("quotient-times-divisor", out * rhs == lhs)
    else:
        cert.add_check("evaluated", True)
    return cert


def _cmd_split(args) -> Certificate:
    fld = GF(args.prime)
    cert = Certificate("split")
    cert.add_input("field", fld.name)
    cert.add_input("e", args.e)
    num = parse_laurent(args.num, args.vars, fld)
    den = (parse_laurent(args.den, args.vars, fld)
           if args.den is not None else LaurentPoly.one(fld, args.vars))
    r = RationalExpr(num, den)
    cert.add_input("argument", r.render())
    tnum = (parse_laurent(args.twist_num, args.vars, fld)
            if args.twist_num is not None else LaurentPoly.one(fld, args.vars))
    tden = (parse_laurent(args.twist_den, args.vars, fld)
            if args.twist_den is not None else LaurentPoly.one(fld, args.vars))
    twist = RationalExpr(tnum, tden)
    cert.add_input("twist", twist.render())
    m = SplittingMap(args.prime, args.e, twist)
    value = split_apply(m, r)
    cert.add_witness("value", value.render())
    cert.add_check("evaluated", True)
    return cert


def _cmd_certify_acyclic(args) -> Certificate:
    fld = GF(args.prime)
    seed, label = _load_seed(args.quiver, fld)
    cert = Certificate("certify-acyclic")
    cert.add_input("quiver", label)
    cert.add_input("quiver-digest", seed.quiver.digest())
    cert.add_input("prime", args.prime)
    try:
        witness = freg_witness_sink(seed, args.prime)
    except (NotAcyclicError, NoMutableVertexError) as exc:
        cert.add_check("hypotheses", False, str(exc))
        return cert
    cert.add_check("hypotheses", True)
    cert.add_witness("sink", witness.sink + 1)
    cert.add_witness("e", witness.e)
    cert.add_witness("twist", witness.map.twist.render())
    cert.add_witness("value", witness.value.render())
    cert.add_check("splits-to-one", witness.verified)
    return cert


def _cmd_markov(args) -> Certificate:
    if args.a < 2:
        raise argparse.ArgumentTypeError("the Markov family needs a >= 2")
    cert = Certificate("markov")
    cert.add_input("a", args.a)
    cert.add_input("check", args.check)
    if args.check == "relation":
        fld = _field_for(args)
        cert.add_input("field", fld.name)
        m = markov_M(args.a, fld)
        cert.add_witness("M", m.render())
        cert.add_check("relation-vanishes", True)  # asserted by markov_M
        grading = Grading(args.a)
        cert.add_witness("deg-M", grading.degree((0, 0, 0, 1)))
        cert.add_check("relation-homogeneous",
                       grading.is_homogeneous(grading.relation_poly(fld)))
    elif args.check == "grading":
        fld = _field_for(args)
        cert.add_input("field", fld.name)
        if args.a == 2:
            depth = args.depth if args.depth is not None else 4
            cert.add_input("depth", depth)
            result = explore(markov_seed(2, fld), depth)
            cert.add_witness("variables", result.variable_count)
            bad = [v.render() for v in result.variables
                   if v.coordinate_sums() != {1}]
            cert.add_check("variables-homogeneous-degree-1", not bad,
                           "" if not bad else bad[0])
        else:
            grading = Grading(args.a)
            cert.add_witness("deg-M", grading.degree((0, 0, 0, 1)))
            cert.add_check("deg-M-nonnegative",
                           grading.degree((0, 0, 0, 1)) >= 0)
            cert.add_check("relation-homogeneous",
                           grading.is_homogeneous(grading.relation_poly(fld)))
    elif args.check == "membership":
        fld = _field_for(args)
        cert.add_input("field", fld.name)
        depth = args.depth if args.depth is not None else 2
        cert.add_input("depth", depth)
        m = markov_M(args.a, fld)
        verdict = upper_membership_sample(m, markov_seed(args.a, fld), depth)
        cert.add_witness("clusters-checked", verdict.clusters_checked)
        detail = ("" if verdict.ok else "fails at path "
                  + str([k + 1 for k in verdict.failing_path]))
        cert.add_check("laurent-in-every-sampled-cluster", verdict.ok, detail)
    elif args.check == "freg":
        if args.prime is None:
            raise argparse.ArgumentTypeError("--prime required for freg")
        if args.a != 2:
            raise argparse.ArgumentTypeError(
                "the M^3/6 witness is the a=2 construction")
        cert.add_input("prime", args.prime)
        cert.add_input("e", args.e)
        try:
            result = markov_freg_certificate(args.prime, args.e)
        except BadCharacteristicError as exc:
            cert.add_check("characteristic", False, str(exc))
            return cert
        cert.add_check("characteristic", True)
        cert.add_witness("twist", result.map.twist.render())
        cert.add_witness("value", result.value.render())
        cert.add_check("splits-to-one", result.passed)
    else:  # obstruction
        if args.prime is None:
            raise argparse.ArgumentTypeError(
                "--prime required for obstruction")
        if args.a < 3:
            raise argparse.ArgumentTypeError("obstruction needs --a >= 3")
        cert.add_input("prime", args.prime)
        cert.add_input("e", args.e)
        report = graded_obstruction_check(args.a, args.prime, args.e)
        cert.add_witness("deg-M", report.deg_m)
        cert.add_witness("monomials-checked", report.checked)
        cert.add_check("relation-homogeneous", report.relation_homogeneous)
        detail = "" if not report.failures else str(report.failures[0])
        cert.add_check("split-degree-positive-or-zero",
                       not report.failures, detail)
    return cert


def _cmd_lowerbound(args) -> Certificate:
    fld = GF(args.prime)
    seed, label = _load_seed(args.quiver, fld)
    cert = Certificate("lowerbound")
    cert.add_input("quiver", label)
    cert.add_input("prime", args.prime)
    cert.add_input("check", args.check)
    pres = lower_bound_generators(seed)
    for i, g in enumerate(pres.gens):
        cert.add_witness(f"g{i + 1}", g.render(pres.names))
    if args.check == "split":
        cert.add_check("psi-of-one-is-one",
                       verify_lb_splitting(pres, args.prime))
        cert.add_check("localization-identity",
                       localization_identity_check(pres))
    else:  # compat
        degree = args.degree
        cert.add_input("degree", degree)
        report = compat_check(
            pres, args.prime,
            degree_bounded_monomials(2 * pres.n, degree))
        cert.add_witness("monomials-checked", report.checked)
        detail = "" if report.ok else "g=" + report.failures[0][0]
        cert.add_check("psi-f-image-in-ideal", report.ok, detail)
    return cert


def _cmd_volform(args) -> Certificate:
    field = _field_for(args)
    seed, label = _load_seed(args.quiver, field)
    cert = Certificate("volform")
    cert.add_input("quiver", label)
    cert.add_input("field", field.name)
    if args.path:
        path = [_vertex(k, seed.n, seed.quiver.frozen) for k in args.path]
        sign = mutation_path_sign(seed, path)
        cert.add_input("path", ",".join(str(k) for k in args.path))
        cert.add_witness("sign", sign)
        cert.add_check("jacobian-identity-each-step", True)
    else:
        vertices = ([_vertex(args.at, seed.n, seed.quiver.frozen)]
                    if args.at is not None
                    else list(seed.quiver.mutable))
        for k in vertices:
            sign = volume_form_mutation_sign(seed, k)
            cert.add_witness(f"sign-at-{k + 1}", sign)
        cert.add_check("jacobian-identity", True)
    return cert


# -- wiring -----------------------------------------------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _add_common(sp):
    sp.add_argument("--json", action="store_true",
                    help="emit the certificate as JSON")
    sp.add_argument("--budget-terms", type=positive_int, default=None,
                    help="max terms per polynomial")
    sp.add_argument("--budget-seeds", type=positive_int, default=None,
                    help="max seeds per exploration")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cf",
        description="Exact cluster mutation and Frobenius-splitting "
                    "certificates.")
    sub = ap.add_subparsers(dest="command")

    sp = sub.add_parser("mutate", help="mutate a seed along a vertex list")
    sp.add_argument("--quiver", required=True)
    sp.add_argument("--prime", type=int, default=None)
    sp.add_argument("--at", type=int, nargs="+", required=True,
                    help="1-based vertices, applied left to right")
    _add_common(sp)
    sp.set_defaults(func=_cmd_mutate)

    sp = sub.add_parser("explore", help="breadth-first exchange-graph walk")
    sp.add_argument("--quiver", required=True)
    sp.add_argument("--prime", type=int, default=None)
    sp.add_argument("--depth", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_explore)

    sp = sub.add_parser("laurent", help="exact Laurent arithmetic")
    sp.add_argument("--vars", type=nonnegative_int, required=True)
    sp.add_argument("--prime", type=int, default=None)
    sp.add_argument("--op", required=True,
                    choices=["add", "sub", "mul", "div", "diff"])
    sp.add_argument("--lhs", required=True)
    sp.add_argument("--rhs")
    sp.add_argument("--index", type=int, help="1-based variable for diff")
    _add_common(sp)
    sp.set_defaults(func=_cmd_laurent)

    sp = sub.add_parser("split", help="apply a twisted splitting map")
    sp.add_argument("--vars", type=nonnegative_int, required=True)
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--num", required=True)
    sp.add_argument("--den")
    sp.add_argument("--twist-num")
    sp.add_argument("--twist-den")
    _add_common(sp)
    sp.set_defaults(func=_cmd_split)

    sp = sub.add_parser("certify-acyclic",
                        help="strong F-regularity witness at a sink")
    sp.add_argument("--quiver", required=True)
    sp.add_argument("--prime", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_certify_acyclic)

    sp = sub.add_parser("markov", help="the Markov-family showcase")
    sp.add_argument("--a", type=int, default=2)
    sp.add_argument("--prime", type=int, default=None)
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--depth", type=nonnegative_int, default=None)
    sp.add_argument("--check", required=True,
                    choices=["relation", "grading", "membership", "freg",
                             "obstruction"])
    _add_common(sp)
    sp.set_defaults(func=_cmd_markov)

    sp = sub.add_parser("lowerbound",
                        help="splitting of the presented lower bound")
    sp.add_argument("--quiver", required=True)
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--check", required=True, choices=["split", "compat"])
    sp.add_argument("--degree", type=nonnegative_int, default=2)
    _add_common(sp)
    sp.set_defaults(func=_cmd_lowerbound)

    sp = sub.add_parser("volform", help="log-volume-form mutation signs")
    sp.add_argument("--quiver", required=True)
    sp.add_argument("--prime", type=int, default=None)
    sp.add_argument("--at", type=int, default=None)
    sp.add_argument("--path", type=lambda s: [int(x) for x in s.split(",")],
                    default=None, help="comma-separated 1-based vertices")
    _add_common(sp)
    sp.set_defaults(func=_cmd_volform)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command is None:
        ap.print_help()
        return USAGE_EXIT

    overrides = {}
    if getattr(args, "budget_terms", None) is not None:
        overrides["max_terms"] = args.budget_terms
    if getattr(args, "budget_seeds", None) is not None:
        overrides["max_seeds"] = args.budget_seeds

    started = time.perf_counter()
    try:
        with budgets.limits(**overrides):
            cert = args.func(args)
    except (QuiverFormatError, BudgetExceededError, MutationAtFrozenError,
            argparse.ArgumentTypeError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _stderr_time(started)
        return USAGE_EXIT
    except ClusterFrobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _stderr_time(started)
        return MATH_EXIT
    _print(cert, args.json)
    _stderr_time(started)
    return 0 if cert.passed else MATH_EXIT


def _stderr_time(started: float) -> None:
    print(f"wall-time: {time.perf_counter() - started:.3f}s",
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
