"""Per-layer tracing of clusterfrob from outside the program.

`Tracer.install` replaces public functions of each module with timing
wrappers, at every name their callers use: a function that another module
bound by import (`frobenius` imports `express_rational` from `seed`) is
found by identity in every loaded clusterfrob module and replaced there
too.  A target that no longer exists is reported as absent.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by the spans it encloses.  Spans of the first traced pass are
kept in memory, up to SPAN_CAP, and written out at the end of the run.
"""

from __future__ import annotations

import math
import sys
import time
from array import array

# (layer group, module, attribute path) of every wrapped function
TARGETS = (
    ("kernels.mul", "clusterfrob.kernels", "mul_terms"),
    ("kernels.add", "clusterfrob.kernels", "add_terms"),
    ("kernels.add", "clusterfrob.kernels", "sub_terms"),
    ("kernels.add", "clusterfrob.kernels", "neg_terms"),
    ("kernels.add", "clusterfrob.kernels", "scale_shift_terms"),
    ("kernels.submul", "clusterfrob.kernels", "submul_terms"),
    ("laurent.mul", "clusterfrob.laurent", "LaurentPoly.__mul__"),
    ("laurent.pow", "clusterfrob.laurent", "LaurentPoly.__pow__"),
    ("laurent.divide", "clusterfrob.laurent", "LaurentPoly.exact_divide"),
    ("quiver.canonical", "clusterfrob.quiver", "Quiver.canonical_form"),
    ("quiver.mutate", "clusterfrob.quiver", "Quiver.mutate"),
    ("seed.mutate", "clusterfrob.seed", "Seed.mutate"),
    ("seed.key", "clusterfrob.seed", "Seed.key"),
    ("seed.explore", "clusterfrob.seed", "explore"),
    ("seed.subst", "clusterfrob.seed", "cluster_substitution"),
    ("seed.subst", "clusterfrob.seed", "express_rational"),
    ("frobenius.split_apply", "clusterfrob.frobenius", "split_apply"),
    ("frobenius.standard_split", "clusterfrob.frobenius", "standard_split"),
    ("lowerbound.psi", "clusterfrob.lowerbound", "psi_f_apply"),
    ("budgets", "clusterfrob.budgets", "current"),
    ("budgets", "clusterfrob.budgets", "raw_allowance"),
    ("budgets", "clusterfrob.budgets", "limits"),
    ("budgets", "clusterfrob.budgets", "raw_meter"),
)

GROUPS = tuple(dict.fromkeys(g for g, _, _ in TARGETS))

# Per-layer metrics of one pass: (name, unit).  BENCHMARK.json lists the
# same names; ratios whose base is 0 on a workload read 0.
METRICS = (
    ("kernels.mul_calls", "count"),
    ("kernels.add_calls", "count"),
    ("kernels.mul_raw_products", "count"),
    ("kernels.mul_terms_out", "count"),
    ("kernels.mul_merge_ratio", "ratio"),
    ("kernels.mul_self_s", "s"),
    ("kernels.submul_calls", "count"),
    ("kernels.submul_self_s", "s"),
    ("kernels.add_self_s", "s"),
    ("laurent.mul_calls", "count"),
    ("laurent.mul_self_s", "s"),
    ("laurent.pow_calls", "count"),
    ("laurent.pow_self_s", "s"),
    ("laurent.divide_calls", "count"),
    ("laurent.divide_steps", "count"),
    ("laurent.divide_self_s", "s"),
    ("laurent.divide_not_divisible", "count"),
    ("laurent.divide_useful_ratio", "ratio"),
    ("laurent.peak_terms", "count"),
    ("quiver.canonical_calls", "count"),
    ("quiver.canonical_relabelings", "count"),
    ("quiver.canonical_self_s", "s"),
    ("quiver.mutate_calls", "count"),
    ("quiver.mutate_self_s", "s"),
    ("seed.mutate_calls", "count"),
    ("seed.mutate_self_s", "s"),
    ("seed.key_self_s", "s"),
    ("seed.explore_new_ratio", "ratio"),
    ("seed.subst_calls", "count"),
    ("seed.subst_self_s", "s"),
    ("frobenius.split_apply_calls", "count"),
    ("frobenius.split_apply_self_s", "s"),
    ("frobenius.standard_split_terms_in", "count"),
    ("frobenius.standard_split_kept_ratio", "ratio"),
    ("lowerbound.psi_calls", "count"),
    ("lowerbound.psi_self_s", "s"),
    ("lowerbound.psi_product_terms", "count"),
    ("lowerbound.psi_kept_ratio", "ratio"),
    ("budgets.calls", "count"),
    ("budgets.self_s", "s"),
    ("trace.overhead_s", "s"),
)

SPAN_CAP = 200_000


def _resolve(module: str, path: str):
    """(owner, attribute, function) or None when the target is gone."""
    owner = sys.modules.get(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None) if owner is not None else None
    return None if fn is None else (owner, attr, fn)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class _Frame:
    __slots__ = ("group", "span", "child_s", "last_mul_terms")

    def __init__(self, group, span):
        self.group = group
        self.span = span
        self.child_s = 0.0
        self.last_mul_terms = 0


class Tracer:
    def __init__(self):
        self.absent: list[str] = []  # targets missing at the last install
        self._patches: list[tuple[object, str, object]] = []
        self.recording = False
        self.span_group = array("B")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self.reset()

    def reset(self) -> None:
        """Zero the counters before a pass."""
        self._stack = [_Frame(None, -1)]
        self.calls = dict.fromkeys(GROUPS, 0)
        self.self_s = dict.fromkeys(GROUPS, 0.0)
        self.extra = dict.fromkeys(
            ("raw", "terms_out", "peak_terms", "divide_steps",
             "not_divisible", "relabelings", "explore_new",
             "explore_mutations", "split_in", "split_kept",
             "psi_product_terms", "psi_kept"), 0)

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "clusterfrob"
                                         or name.startswith("clusterfrob."))]
        for group, module, path in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            wrapper = self._wrap(GROUPS.index(group), group, fn)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, index: int, group: str, fn):
        tracer = self
        clock = time.perf_counter
        on_return = getattr(self, "_on_" + group.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            span = -1
            if tracer.recording:
                span = tracer._open_span(index, parent.span)
            frame = _Frame(group, span)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_return is not None:
                    on_return(args, None, exc, frame, parent)
                raise
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                parent.child_s += duration
                tracer.calls[group] += 1
                tracer.self_s[group] += duration - frame.child_s
                if span >= 0:
                    tracer.span_end[span] = t1
            if on_return is not None:
                on_return(args, result, None, frame, parent)
            return result

        return wrapper

    def _open_span(self, index: int, parent: int) -> int:
        if len(self.span_start) >= SPAN_CAP:
            self.spans_dropped += 1
            return -1
        self.span_group.append(index)
        self.span_parent.append(parent)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        return len(self.span_start) - 1

    # -- counters measured at the boundaries ----------------------------------

    def _on_kernels_mul(self, args, result, exc, frame, parent):
        self.extra["raw"] += len(args[0]) * len(args[1])
        if result is not None:
            self.extra["terms_out"] += len(result)

    def _peak(self, result) -> int:
        """Term count of a LaurentPoly result (0 for NotImplemented or an
        exception), folded into the peak."""
        terms = len(getattr(result, "terms", ()))
        if terms > self.extra["peak_terms"]:
            self.extra["peak_terms"] = terms
        return terms

    def _on_laurent_mul(self, args, result, exc, frame, parent):
        parent.last_mul_terms = self._peak(result)

    def _on_laurent_pow(self, args, result, exc, frame, parent):
        self._peak(result)

    def _on_laurent_divide(self, args, result, exc, frame, parent):
        steps = self._peak(result)
        if result is not None:
            self.extra["divide_steps"] += steps
        elif type(exc).__name__ == "NotDivisibleError":
            self.extra["not_divisible"] += 1

    def _on_quiver_canonical(self, args, result, exc, frame, parent):
        q = args[0]
        self.extra["relabelings"] += (math.factorial(len(q.mutable))
                                      * math.factorial(len(q.frozen)))

    def _on_seed_mutate(self, args, result, exc, frame, parent):
        if parent.group == "seed.explore":
            self.extra["explore_mutations"] += 1

    def _on_seed_explore(self, args, result, exc, frame, parent):
        if result is not None:
            self.extra["explore_new"] += result.seed_count - 1

    def _on_frobenius_standard_split(self, args, result, exc, frame, parent):
        self.extra["split_in"] += len(args[0].terms)
        if result is not None:
            self.extra["split_kept"] += len(result.terms)

    def _on_lowerbound_psi(self, args, result, exc, frame, parent):
        # the last product computed directly under psi is f^(p-1) * r
        self.extra["psi_product_terms"] += frame.last_mul_terms
        if result is not None:
            self.extra["psi_kept"] += len(result.terms)

    # -- results --------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        """The METRICS of the pass since the last reset."""
        c, s, x = self.calls, self.self_s, self.extra
        return {
            "kernels.mul_calls": c["kernels.mul"],
            "kernels.add_calls": c["kernels.add"],
            "kernels.mul_raw_products": x["raw"],
            "kernels.mul_terms_out": x["terms_out"],
            "kernels.mul_merge_ratio": _ratio(x["terms_out"], x["raw"]),
            "kernels.mul_self_s": s["kernels.mul"],
            "kernels.submul_calls": c["kernels.submul"],
            "kernels.submul_self_s": s["kernels.submul"],
            "kernels.add_self_s": s["kernels.add"],
            "laurent.mul_calls": c["laurent.mul"],
            "laurent.mul_self_s": s["laurent.mul"],
            "laurent.pow_calls": c["laurent.pow"],
            "laurent.pow_self_s": s["laurent.pow"],
            "laurent.divide_calls": c["laurent.divide"],
            "laurent.divide_steps": x["divide_steps"],
            "laurent.divide_self_s": s["laurent.divide"],
            "laurent.divide_not_divisible": x["not_divisible"],
            "laurent.divide_useful_ratio": _ratio(
                c["laurent.divide"] - x["not_divisible"],
                c["laurent.divide"]),
            "laurent.peak_terms": x["peak_terms"],
            "quiver.canonical_calls": c["quiver.canonical"],
            "quiver.canonical_relabelings": x["relabelings"],
            "quiver.canonical_self_s": s["quiver.canonical"],
            "quiver.mutate_calls": c["quiver.mutate"],
            "quiver.mutate_self_s": s["quiver.mutate"],
            "seed.mutate_calls": c["seed.mutate"],
            "seed.mutate_self_s": s["seed.mutate"],
            "seed.key_self_s": s["seed.key"],
            "seed.explore_new_ratio": _ratio(x["explore_new"],
                                             x["explore_mutations"]),
            "seed.subst_calls": c["seed.subst"],
            "seed.subst_self_s": s["seed.subst"],
            "frobenius.split_apply_calls": c["frobenius.split_apply"],
            "frobenius.split_apply_self_s": s["frobenius.split_apply"],
            "frobenius.standard_split_terms_in": x["split_in"],
            "frobenius.standard_split_kept_ratio": _ratio(
                x["split_kept"], x["split_in"]),
            "lowerbound.psi_calls": c["lowerbound.psi"],
            "lowerbound.psi_self_s": s["lowerbound.psi"],
            "lowerbound.psi_product_terms": x["psi_product_terms"],
            "lowerbound.psi_kept_ratio": _ratio(x["psi_kept"],
                                                x["psi_product_terms"]),
            "budgets.calls": c["budgets"],
            "budgets.self_s": s["budgets"],
            "trace.overhead_s": overhead_s,
        }

    def write_spans(self, path) -> int:
        """Write the kept spans as tab-separated lines; returns the count."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tlayer\tstart_s\tend_s\n")
            for i, g in enumerate(self.span_group):
                fh.write(f"{i}\t{self.span_parent[i]}\t{GROUPS[g]}\t"
                         f"{self.span_start[i] - origin:.9f}\t"
                         f"{self.span_end[i] - origin:.9f}\n")
        return len(self.span_group)
