"""threepage benchmark: one workload, one seed, end to end or traced.

    python3 perfbench/run.py --workload refute-t33 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src/`` directory, so nothing needs installing.

``--trace 0`` measures the end-to-end metrics.  ``setup_s`` is the median
of several set-ups, each in a fresh interpreter.  Passes over the workload's
inputs then repeat, closed loop in this one process, until ``--seconds`` is
spent (at least one pass); ``wall_s`` is the median pass.  ``peak_rss_mb``
counts this process and its children.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus ``proc.cpu_s`` of the untraced
ones and ``trace.overhead_s``, the difference of the two median pass times.
The spans of the last traced pass are written to
``.perfbench_traces/<workload>-seed<seed>.tsv.gz``.  End-to-end numbers
never come from a traced run.

Every operation is checked against a known answer.  A wrong answer or an
exception is a failed operation; ``fail_ratio`` is failed / attempted.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_traces"
SETUP_PROBES = 9


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    outcomes: list
    tracer: Tracer | None = None


def cpu_seconds() -> float:
    return sum(r.ru_utime + r.ru_stime for r in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up times, each measured in a fresh interpreter."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=60, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def one_pass(workload, inputs, tracer=None) -> Pass:
    if tracer is not None:
        tracer.install()
    try:
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        outcomes = workload.run_pass(inputs, tracer.begin_op if tracer else lambda: None)
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(wall, cpu, outcomes, tracer)


def repeat(seconds: float, step, min_passes: int) -> list[Pass]:
    """Run step(k) for k = 0, 1, ... until another pass of the mean length
    would overrun the time budget."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(step(len(passes)))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def layer_metrics(names, traced: list[Pass], untraced: list[Pass],
                  limit_exceeded: int) -> dict:
    """Per-layer metrics: counts from the first traced pass (every pass does
    the same work), self times as medians over the traced passes."""
    first = traced[0].tracer.stats

    def self_s(name: str) -> float:
        return statistics.median(p.tracer.stats[name].self_s for p in traced)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in first:
        out[f"{name}.calls"] = first[name].calls
        out[f"{name}.self_s"] = self_s(name)
    enum = first["search.enumerate"]
    out.update({
        "search.emitted": enum.emitted,
        "search.yield_ratio": ratio(enum.emitted, first["presentation.validate"].calls),
        "presentation.canonical_ratio": ratio(
            first["presentation.is_canonical"].true_returns,
            first["presentation.is_canonical"].calls),
        "invariants.bracket_skein.crossings_max":
            first["invariants.bracket_skein"].crossings_max,
        "invariants.match_ratio": ratio(
            first["invariants.equal_up_to_mirror"].true_returns,
            first["invariants.equal_up_to_mirror"].calls),
        "torus.default_limit_exceeded": limit_exceeded,
        "proc.cpu_s": statistics.median(p.cpu_s for p in untraced),
        "trace.overhead_s": (statistics.median(p.wall_s for p in traced)
                             - statistics.median(p.wall_s for p in untraced)),
    })
    return {name: out[name] for name in names}


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.4f}, max {max(values):.4f}"


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "threepage" / "__init__.py").is_file():
        print(f"perfbench: no threepage package under {SRC}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spec
    from tracer import Tracer
    from workloads import WORKLOADS, default_limit_exceeded

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    units = {name: unit for name, unit, *_ in spec.END_TO_END + spec.PER_LAYER}
    if args.trace:
        inputs = workload.build(args.seed)
        passes = repeat(args.seconds, lambda k: one_pass(
            workload, inputs, Tracer() if k % 2 else None), min_passes=2)
        untraced, traced = passes[0::2], passes[1::2]
        metrics = layer_metrics([name for name, *_ in spec.PER_LAYER], traced, untraced,
                                default_limit_exceeded(traced[0].outcomes))
        spans = TRACE_DIR / f"{args.workload}-seed{args.seed}.tsv.gz"
        traced[-1].tracer.write_spans(spans)
        print(f"traced passes: {describe([p.wall_s for p in traced])}; "
              f"untraced passes: {describe([p.wall_s for p in untraced])}; "
              f"{traced[-1].tracer.span_count()} spans of the last traced pass "
              f"written to {spans}")
    else:
        setups = setup_seconds(args.workload, args.seed)
        inputs = workload.build(args.seed)
        passes = repeat(args.seconds, lambda k: one_pass(workload, inputs), min_passes=1)
        walls = [p.wall_s for p in passes]
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": peak_rss_mb()}
        print(f"wall_s: median of {describe(walls)} passes; "
              f"setup_s: median of {describe(setups)} fresh interpreters")

    outcomes = [o for p in passes for o in p.outcomes]
    failures = workload.failures(outcomes)
    for reason in failures:
        print(f"FAILED {reason}", file=sys.stderr)
    attempted, failed = len(outcomes), len(failures)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} fail_ratio = {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
