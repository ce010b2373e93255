"""Tests of the benchmark itself: the span recorder and a smoke run of every workload."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import Recorder  # noqa: E402


def test_self_time_subtracts_union_of_children_and_excluded_time():
    spans = [
        (1, "parent", 0.0, 10.0, None, 0, 1.0),
        (2, "child", 1.0, 4.0, 1, 0, 0.0),
        (3, "child", 3.0, 6.0, 1, 0, 0.0),  # overlaps the first child, as pool workers do
        (4, "child", 8.0, 12.0, 1, 0, 0.0),  # clipped to the parent's end
    ]
    self_s = Recorder().self_times(spans)
    # children cover [1, 6] and [8, 10]; one more second is excluded leaf time
    assert self_s[1] == pytest.approx(2.0)
    assert self_s[2] == pytest.approx(3.0)


def test_spans_from_many_threads_are_all_kept_with_their_parents():
    class Work:
        def outer(self, k):
            return self.inner(k) + 1

        def inner(self, k):
            return k

    rec = Recorder()
    rec.wrap_method("outer", Work, "outer")
    rec.wrap_method("inner", Work, "inner")
    calls, workers = 2000, 8
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: [Work().outer(i) for i in range(calls)]) for _ in range(workers)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(old)
        rec.uninstall()

    spans = rec.spans()
    assert len(spans) == 2 * calls * workers
    by_id = {s[0]: s for s in spans}
    assert len(by_id) == len(spans)
    for sid, name, start, end, parent, _op, _exc in spans:
        if name == "inner":
            outer = by_id[parent]
            assert outer[1] == "outer" and outer[2] <= start <= end <= outer[3]
        else:
            assert parent is None
    assert Work.outer.__name__ == "outer" and not hasattr(Work.outer, "__wrapped__")


def test_smoke_run_checks_every_workload_and_reports_every_declared_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "5"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(result["metrics"]) == {w["name"] for w in spec["workloads"]}
    for metrics in result["metrics"].values():
        assert {name: m["unit"] for name, m in metrics.items()} == declared

    oracle = result["metrics"]["oracle"]
    assert oracle["linear.solve_linear.calls"]["value"] == 0
    assert oracle["solver.picard.iterations"]["value"] == 0
    assert oracle["solver.oracle.passes"]["value"] > 0
    assert result["metrics"]["fine-solve"]["solver.picard.iterations"]["value"] > 0
