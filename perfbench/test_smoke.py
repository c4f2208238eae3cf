"""Smoke test of the benchmark at its shortest run length.

    python3 -m pytest perfbench -q

Every workload runs one pass twice at a fixed seed, untraced and traced.
Each run must be correct and report every metric BENCHMARK.json names,
with its unit, and the attempted count and the metrics that depend only
on the seeded inputs (units count, bit and ratio) must repeat exactly.
Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_UNITS = ("count", "bit", "ratio")


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--passes", "1"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_metrics_present_and_counts_repeat(workload, trace):
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    results = []
    for _ in range(2):
        proc = run(workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        results.append(result)
    assert results[0]["attempted"] == results[1]["attempted"]
    for name, unit in expected.items():
        if unit in EXACT_UNITS:
            assert (results[0]["metrics"][name]["value"]
                    == results[1]["metrics"][name]["value"]), name


def test_refuses_to_run_without_sources():
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("deep-line", 0, root=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tracer_counts_errors_and_restores_functions():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from sketchcast import fp_high, stable
    from tracer import Tracer

    original = stable.build_sketch
    tracer = Tracer()
    tracer.install()
    try:
        assert fp_high.build_sketch is stable.build_sketch is not original
        with pytest.raises(MemoryError):
            fp_high.build_sketch(stable.MAX_SKETCH_CELLS + 1, 1, 1.5)
    finally:
        tracer.remove()
    assert fp_high.build_sketch is stable.build_sketch is original
    assert tracer.counts["stable.cap_errors"] == 1
    assert [s[3] for s in tracer.spans] == ["stable.build_sketch"]
