"""Self-test of the benchmark: python3 -m pytest perfbench -q

Tiny passes of each workload, answers that must be counted as failures,
the tracer's bookkeeping, and the command's output contract.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

import threepage  # noqa: E402
from threepage import invariants, search  # noqa: E402

TINY_TORUS = (("tnn", 3, 3), ("tpq", 2, 3), ("tpq_tight", 2, 5))
TINY_INDEX = wl.INDEX_TARGETS[:2]  # unknot and Hopf link


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_manifest_is_generated_from_spec():
    text = (ROOT / "BENCHMARK.json").read_text()
    assert text == spec.manifest_text(wl.WORKLOADS.values())
    data = json.loads(text)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in data[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"])
    assert all(m["bound"] <= 0.25 for m in data["end_to_end"])


@pytest.mark.parametrize("seed", [1, 2])
def test_tiny_index_search_passes(seed):
    w = wl.WORKLOADS["index-search"]
    outcomes = w.run_pass(wl.build_index(seed, TINY_INDEX))
    assert w.failures(outcomes) == []
    assert [value[1].n for _, value, _ in outcomes] == [3, 6]


def test_tiny_torus_verify_passes():
    w = wl.WORKLOADS["torus-verify"]
    outcomes = w.run_pass(wl.build_torus(5, TINY_TORUS))
    assert w.failures(outcomes) == []
    assert wl.default_limit_exceeded(outcomes) == 0


def test_refute_check_accepts_frozen_counts_only():
    report = search.RefutationReport(wl.T33_EXAMINED, (), wl.T33_LINKING_CANDIDATES)
    item = wl.RefuteInput()
    assert wl.check_refute(item, report) is None
    assert wl.check_refute(item, dataclasses.replace(report, examined=499))
    assert wl.check_refute(item, dataclasses.replace(report, linking_candidates=1))
    assert wl.check_refute(item, dataclasses.replace(report, witnesses=(threepage.HOPF,)))


def test_wrong_expected_index_is_a_failed_operation():
    w = wl.WORKLOADS["index-search"]
    trefoil = wl.build_index(3)[2]
    assert trefoil.name == "trefoil"
    failures = w.failures(w.run_pass([dataclasses.replace(trefoil, index=7)]))
    assert len(failures) == 1 and "expected index 7" in failures[0]


def test_exception_is_a_failed_operation(monkeypatch):
    # Without the explicit limit, tnn(6) hits DEFAULT_CROSSING_LIMIT.
    monkeypatch.setattr(wl, "TORUS_LIMIT", invariants.DEFAULT_CROSSING_LIMIT)
    w = wl.WORKLOADS["torus-verify"]
    failures = w.failures(w.run_pass(wl.build_torus(1, (("tnn", 6, 6),))))
    assert len(failures) == 1 and "CrossingLimitError" in failures[0]


def test_known_answers_are_independent_formulas():
    # V(T(2,3)) = t + t^3 - t^4 with t = A^-4
    assert wl.torus_knot_jones(2, 3) == {-4: 1, -12: 1, -16: -1}
    assert wl.torus_arcs_and_pages("tnn", 3, 3) == (10, (4, 3, 3))
    assert wl.torus_arcs_and_pages("tpq_tight", 2, 5) == (11, (4, 4, 3))


def test_same_seed_same_inputs():
    for name in wl.WORKLOADS:
        build = wl.WORKLOADS[name].build
        assert build(7) == build(7)
    assert wl.build_index(1) != wl.build_index(2)


def test_tracer_wraps_every_reference_and_restores_it():
    originals = [(owner, attr, getattr(owner, attr)) for _, owner, attr in TRACED]
    profile = invariants.profile
    tracer = Tracer()
    with tracer:
        assert search.profile is invariants.profile is threepage.profile
        assert search.profile is not profile
        threepage.three_page_index(threepage.profile(threepage.HOPF), 6)
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
    assert search.profile is profile
    st = tracer.stats
    assert st["invariants.profile"].calls == st["search.enumerate"].emitted + 1
    assert st["invariants.equal_up_to_mirror"].true_returns == 1
    assert all(s.self_s >= 0 for s in st.values())
    assert tracer.span_count() == sum(s.calls for s in st.values())


def test_end_to_end_run_prints_contract_json():
    proc = run_bench("--workload", "index-search", "--seed", "4", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert set(result["metrics"]) == {m[0] for m in spec.END_TO_END}
    assert "fail_ratio" in proc.stdout


def test_traced_refute_run_reports_every_layer():
    proc = run_bench("--workload", "refute-t33", "--seed", "1", "--seconds", "1",
                     "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m[0] for m in spec.PER_LAYER}
    assert result["correct"]
    assert metrics["search.emitted"] == wl.T33_EXAMINED
    assert metrics["invariants.bracket_skein.calls"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "refute-t33", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
