"""Fast self-test of the benchmark (tiny horizons and durations).

Run from the root of a checkout::

    python3 -m pytest -q paperbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from rep import WORKLOADS, run_rep  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Per-layer metrics that are self times; with unattributed_s they add
#: up to traced_wall_s.
SELF_TIMES = [
    "events.self_s", "netsim.send.self_s", "ps.snapshot.self_s",
    "ps.apply_push.self_s", "ps.shm.create_s", "ps.shm.unlink_s",
    "ml.grad.self_s", "ml.optim.self_s", "ml.batch.self_s", "ml.eval.self_s",
    "core.tuning.self_s", "core.scheduler.self_s", "sync.self_s",
    "obs.emit.self_s", "obs.export_s", "runtime.run_s",
]


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_workloads_are_the_benchmark_workloads():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1 + trace
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if trace:
        assert sum(values[name] for name in SELF_TIMES) + values[
            "unattributed_s"
        ] == pytest.approx(values["traced_wall_s"], rel=1e-9)
    else:
        assert all(value > 0 for value in values.values())


@pytest.mark.parametrize("workload", ["cifar10-adaptive-ssp-traced", "mp-mf-adaptive"])
def test_layer_timers_are_removed_after_a_traced_run(workload, tmp_path):
    before = layers.wrapped_attributes()
    record = run_rep(workload, seed=5, traced=True, quick=True, scratch=tmp_path)
    after = layers.wrapped_attributes()
    assert record["errors"] == []
    # The wrappers were live during the run ...
    assert sum(calls for calls, _ in record["layers"].values()) > 0
    # ... and every attribute they replaced is the original object again.
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_seed_spread_report_covers_every_des_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "spread.py"), "--seeds", "1,2", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report) == {
        name for name, spec in WORKLOADS.items() if not spec.multiprocess
    }
    for entry in report.values():
        assert entry["failed"] == 0 and len(entry["per_seed"]) == 2
        for metric in ("final_loss", "iters_per_s"):
            assert entry[metric]["min"] <= entry[metric]["median"] <= entry[metric]["max"]


def test_missing_program_fails_without_a_result(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: no program.
    (tmp_path / "paperbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "paperbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "paperbench/run.py", "--workload", "mf-asp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
