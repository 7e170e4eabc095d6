"""Benchmark of clusterfrob: one workload per run, timed end to end, or
traced per layer with `--trace 1`.

    python3 cfbench/run.py --workload exchange_graph --seed 1 --seconds 20 \
        --trace 0

Runs from the root of a source checkout: the package is imported from
./src on the pure kernel backend.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it, and cfbench/out/, hold the details (backend, pass count, failed
checks, spans).  See cfbench/README.md.
"""

import time

START = time.perf_counter()
STARTUP_CPU_S = time.process_time()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
MIN_PASSES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """clusterfrob from this checkout's src/, on the pure backend."""
    os.environ["CLUSTERFROB_BACKEND"] = "pure"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import clusterfrob
    where = Path(clusterfrob.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"clusterfrob came from {where}, not {src}")
    return clusterfrob


class Passes:
    """Runs whole passes for a while; keeps each pass's wall time and
    checks that every pass produced the same outputs."""

    def __init__(self, workload, cf, inputs):
        self.workload, self.cf = workload, cf
        self.inputs = inputs  # the inputs of the next pass
        self.times: list[float] = []
        self.attempted = self.failed = 0
        self.digests: set = set()
        self.last = None  # (inputs, outputs) of the latest pass

    def one(self) -> float:
        wl, cf = self.workload, self.cf
        inputs = self.inputs if self.inputs is not None else wl.build(cf)
        self.inputs = None
        gc.collect()
        t0 = time.perf_counter()
        outputs, attempted, failed = wl.run(cf, inputs)
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        self.attempted += attempted
        self.failed += failed
        self.digests.add(wl.digest(outputs))
        self.last = (inputs, outputs)
        return elapsed

    def until(self, deadline: float, minimum: int) -> None:
        done = 0
        while done < minimum or time.perf_counter() < deadline:
            self.one()
            done += 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        cf = import_program()
    except ImportError as exc:
        print(f"cannot import clusterfrob: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    passes = Passes(wl, cf, wl.build(cf))
    # interpreter start-up before the first line is pure CPU work, so its
    # CPU time stands in for its wall time
    setup_s = STARTUP_CPU_S + time.perf_counter() - START

    tracer = None
    t_measure = time.perf_counter()
    if args.trace:
        # untraced and traced passes alternate, so a drift in machine
        # speed does not land in the tracing overhead of a pair
        tracer = Tracer()
        per_pass = []
        deadline = t_measure + args.seconds
        while not per_pass or time.perf_counter() < deadline:
            untraced = passes.one()
            passes.inputs = wl.build(cf)  # not traced: set-up, not a pass
            tracer.reset()
            tracer.recording = not per_pass
            tracer.install()
            try:
                traced = passes.one()
            finally:
                tracer.uninstall()
            per_pass.append(tracer.metrics(traced - untraced))
    else:
        passes.until(t_measure + args.seconds, MIN_PASSES)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    inputs, outputs = passes.last
    errors = wl.check(cf, inputs, outputs, random.Random(args.seed))
    if len(passes.digests) != 1:
        errors.append(f"outputs differ between passes "
                      f"({len(passes.digests)} distinct)")

    if args.trace:
        # counts repeat exactly from pass to pass; times take the median
        metrics = {name: {"value": statistics.median_low(
            m[name] for m in per_pass), "unit": unit}
            for name, unit in METRICS}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(passes.times), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    details = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "backend": cf.kernels.backend(), "python": sys.version.split()[0],
        "passes": len(passes.times),
        "pass_s": [round(t, 6) for t in passes.times],
        "check_errors": errors,
    }
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        spans = OUT / f"spans-{wl.name}-seed{args.seed}.tsv"
        details.update(traced_passes=len(per_pass), absent=tracer.absent,
                       spans_file=str(spans.relative_to(ROOT)),
                       spans_written=tracer.write_spans(spans),
                       spans_dropped=tracer.spans_dropped)
    result = {"correct": not errors, "attempted": passes.attempted,
              "failed": passes.failed, "metrics": metrics}
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"details": details, "result": result},
                             indent=1) + "\n", encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
