"""What the benchmark reports, and the BENCHMARK.json that declares it.

Run ``python3 perfbench/spec.py`` from the repository root to rewrite
BENCHMARK.json from these tables and the workload definitions.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 40

#: (name, unit, better, bound): bound is the share of the parent's median by
#: which the metric may worsen.  On the 2-core shared VM the benchmark was
#: written on, the speed of the same pure-Python loop drifts by up to 1.6x over
#: tens of seconds, so the timings get the widest bound allowed; setup_s is
#: also only a few tens of milliseconds.  Peak memory is steady.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better), all from the traced run.
PER_LAYER = (
    ("search.enumerate.self_s", "s", "lower"),
    ("search.emitted", "count", "lower"),
    ("search.yield_ratio", "ratio", "higher"),
    ("presentation.validate.calls", "count", "lower"),
    ("presentation.validate.self_s", "s", "lower"),
    ("presentation.is_canonical.calls", "count", "lower"),
    ("presentation.is_canonical.self_s", "s", "lower"),
    ("presentation.canonical_ratio", "ratio", "higher"),
    ("presentation.components.calls", "count", "lower"),
    ("presentation.components.self_s", "s", "lower"),
    ("diagram.project.calls", "count", "lower"),
    ("diagram.project.self_s", "s", "lower"),
    ("diagram.trace.calls", "count", "lower"),
    ("diagram.trace.self_s", "s", "lower"),
    ("diagram.abs_linking_multiset.calls", "count", "lower"),
    ("diagram.abs_linking_multiset.self_s", "s", "lower"),
    ("diagram.braid_closure.self_s", "s", "lower"),
    ("invariants.profile.calls", "count", "lower"),
    ("invariants.profile.self_s", "s", "lower"),
    ("invariants.jones_set.self_s", "s", "lower"),
    ("invariants.bracket_skein.calls", "count", "lower"),
    ("invariants.bracket_skein.self_s", "s", "lower"),
    ("invariants.bracket_skein.crossings_max", "count", "lower"),
    ("invariants.equal_up_to_mirror.calls", "count", "lower"),
    ("invariants.equal_up_to_mirror.self_s", "s", "lower"),
    ("invariants.match_ratio", "ratio", "higher"),
    ("laurent.mul.calls", "count", "lower"),
    ("laurent.mul.self_s", "s", "lower"),
    ("laurent.add.calls", "count", "lower"),
    ("laurent.add.self_s", "s", "lower"),
    ("torus.construct.self_s", "s", "lower"),
    ("torus.default_limit_exceeded", "count", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def manifest(workloads) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def manifest_text(workloads) -> str:
    return json.dumps(manifest(workloads), indent=2) + "\n"


if __name__ == "__main__":
    import sys

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    (root / "BENCHMARK.json").write_text(manifest_text(WORKLOADS.values()))
