"""Paper-scale benchmark of the SpecSync reproduction.

Run from the root of a checkout::

    python3 paperbench/run.py --workload mp-mf-adaptive --seed 3 --seconds 60 --trace 0

Four workloads.  ``BENCHMARK.json`` declares two of them and says why;
the two DES MF workloads run the same way but are left out of it, because
on a shared 2-vCPU host their CPU-bound figures drift with the host's
speed by more than the benchmark's bounds over ten runs:

``mf-adaptive``
    DES, MF, 40 workers, SpecSync-Adaptive, fixed 540 s virtual horizon.
``mf-asp``
    The same model, cluster and horizon under ASP (``original``).
``cifar10-adaptive-ssp-traced``
    DES, CIFAR-10 MLP, 40 workers, Adaptive on SSP, with a trace
    collector on and a Chrome trace written, as ``repro run --trace`` does.
``mp-mf-adaptive``
    The multiprocess backend, MF, 2 worker processes, the Adaptive tuner
    in the parent, 3 s of wall time.

This script repeats the workload in fresh processes (``rep.py``) for
``--seconds`` seconds, each under a wall deadline, and pools the
repetitions' measurements into one value per metric.  The first
twentieth of the time is an untimed warm-up of set-up-only processes.
With ``--trace 0`` no timing wrapper is installed and ``repro.obs`` is off
(except on the traced workload, which traces by definition); the metrics
are the end-to-end ones:

``iters_per_s``
    iterations applied by the server per wall second of
    ``TrainingEngine.run()`` (plus writing the trace on the traced
    workload) or of ``MultiprocessRun.run()``: all repetitions'
    iterations over all their run time.
``setup_s``
    building dataset, partitions, model and engine or run object; the
    median of every build, on the DES workloads those of set-up-only
    processes too.
``final_loss``
    eval loss at the end of the run; median over repetitions.
``peak_rss_mb``
    peak resident memory of a repetition's process tree (the worker and
    server processes included on the multiprocess workload); median over
    repetitions.
``overrun_s``
    on the multiprocess workload, ``run()`` wall time minus
    ``duration_s``: spawn, shutdown, join and shared-memory unlink.  On
    the DES workloads, the repetition's process lifetime outside its
    ``main()``: interpreter start, importing the program and exit,
    sampled also on set-up-only processes after each repetition.  The
    mean over all samples.

Failed runs are not a metric: ``failed`` over ``attempted`` in the result
line is the failed fraction.  With ``--trace 1`` untraced and traced
repetitions alternate; the traced ones time each layer's public calls
(``layers.py``) and the metrics are the per-layer ones, listed with the
end-to-end metric each should move in ``predictions.json``.

Checks, each failing the repetition it concerns: the final loss is finite
and below the initial eval loss; on the DES, (iterations, aborts,
final loss, transfer bytes, re-syncs sent) is identical across every
repetition of the invocation, traced or not; the written trace parses and
its ``run_end`` instant counts the run's iterations; on the multiprocess
workload every worker completes an iteration and no shared-memory segment
outlives ``run()``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"paperbench: the program is not in this checkout ({ROOT / 'src'})")

from rep import WORKLOADS  # noqa: E402  (imports the program from ROOT/src)

#: Repetitions may not run past this many seconds after the invocation
#: starts, so a hang is cut and reported well inside a 180 s budget.
HARD_LIMIT_S = 150.0
#: Scratch directory (inside the checkout) for trace files.
SCRATCH = ".paperbench-scratch"
#: How often run.py samples the repetition's process tree for RSS.
RSS_POLL_S = 0.05
#: Set-up-only processes after each untraced DES repetition.  The host's
#: speed swings over seconds, so these spread the samples of setup_s and
#: of the DES overrun_s (one process start is ~0.5 s) over the run.
SETUP_PROBES = 2
#: Share of ``--seconds`` spent warming up before the first repetition.
WARMUP_SHARE = 0.05


def _children(pid: int) -> List[int]:
    found = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
    except OSError:
        pass
    return found


def _tree_rss_kb(pid: int) -> int:
    """Summed VmRSS of ``pid`` and all its descendants, in KiB."""
    total = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
        pending.extend(_children(current))
    return total


def spawn_rep(workload: str, seed: int, traced: bool, quick: bool,
              deadline_s: float, setup_only: bool = False) -> dict:
    """Run one repetition in a fresh process; a failure becomes ``errors``.
    With ``setup_only`` the process builds the set-up and exits."""
    spec = json.dumps({"workload": workload, "seed": seed, "traced": traced,
                       "quick": quick, "scratch": SCRATCH,
                       "setup_only": setup_only})
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), spec],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, start_new_session=True,
    )
    peak_tree_kb = 0
    timed_out = False
    try:
        while True:
            peak_tree_kb = max(peak_tree_kb, _tree_rss_kb(proc.pid))
            try:
                stdout, stderr = proc.communicate(timeout=RSS_POLL_S)
                break
            except subprocess.TimeoutExpired:
                if time.perf_counter() - started > deadline_s:
                    timed_out = True
                    break
    finally:
        wall_s = time.perf_counter() - started
        # The repetition's session holds every process it started (the
        # multiprocess backend's server and workers included).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if timed_out:
            proc.communicate()
    if timed_out:
        return {"errors": [f"no result within the {deadline_s:.0f} s deadline"]}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"errors": [f"exit code {proc.returncode}: {tail[0]}"]}
    record = json.loads(lines[-1])
    record["peak_rss_kb"] = max(record["peak_rss_kb"], peak_tree_kb)
    if "overrun_s" not in record:
        record["overrun_s"] = wall_s - record["main_s"]
    return record


def _fingerprint(record: dict) -> tuple:
    return (record["iterations"], record["aborts"], record["final_loss"],
            record["netsim_bytes"], record["resyncs"])


def run_reps(workload: str, seed: int, seconds: float, trace: bool,
             quick: bool = False) -> List[dict]:
    """Repeat the workload for ``seconds``; traced and untraced alternate
    when ``trace`` is set.  Each record gains ``traced`` and, when a check
    failed, a non-empty ``errors``."""
    start = time.perf_counter()
    # On a shared 2-vCPU VM the first second or two after an idle spell
    # runs the workload about half as fast; set-up-only processes take
    # that, untimed.
    while time.perf_counter() - start < WARMUP_SHARE * seconds:
        spawn_rep(workload, seed, False, quick, HARD_LIMIT_S, setup_only=True)
    records: List[dict] = []
    durations: Dict[bool, float] = {}
    while True:
        traced = trace and len(records) % 2 == 1
        elapsed = time.perf_counter() - start
        have = {r["traced"] for r in records}
        needed = {False, True} if trace else {False}
        expected = durations.get(traced, max(durations.values(), default=0.0))
        if needed <= have and (elapsed + expected > seconds
                               or any(r["errors"] for r in records)):
            break
        if elapsed > HARD_LIMIT_S - 10:
            break
        rep_started = time.perf_counter()
        record = spawn_rep(workload, seed, traced, quick,
                           HARD_LIMIT_S - elapsed)
        if not record["errors"]:
            record["overruns"] = [record["overrun_s"]]
            if not (traced or WORKLOADS[workload].multiprocess):
                for _ in range(SETUP_PROBES):
                    probe = spawn_rep(workload, seed, traced, quick,
                                      HARD_LIMIT_S - elapsed, setup_only=True)
                    record["errors"].extend(probe["errors"])
                    if not probe["errors"]:
                        record["overruns"].append(probe["overrun_s"])
                        record["setups"].extend(probe["setups"])
        durations[traced] = max(durations.get(traced, 0.0),
                                time.perf_counter() - rep_started)
        record["traced"] = traced
        records.append(record)
        print(f"rep {len(records)} traced={traced}: "
              + (f"errors {record['errors']}" if record["errors"] else
                 f"{record['iterations']} iterations in {record['run_s']:.3f} s"),
              file=sys.stderr)

    if not WORKLOADS[workload].multiprocess:
        clean = [r for r in records if not r["errors"]]
        if clean:
            reference = _fingerprint(clean[0])
            for record in clean[1:]:
                if _fingerprint(record) != reference:
                    record["errors"].append(
                        f"outputs {_fingerprint(record)} differ from the "
                        f"first repetition's {reference}"
                    )
    return records


def _median(records: List[dict], key) -> float:
    return statistics.median(key(r) for r in records)


def _pooled_rate(records: List[dict]) -> float:
    """Iterations per wall second over all of ``records`` together."""
    return (sum(r["iterations"] for r in records)
            / sum(r["run_s"] for r in records))


def end_to_end(records: List[dict]) -> Dict[str, dict]:
    """The end-to-end metrics over successful untraced repetitions.

    The host's speed swings by a fifth over seconds, so times are pooled
    over the whole invocation: ``iters_per_s`` is the total work over the
    total run time, ``overrun_s`` the mean of every sample, and
    ``setup_s`` the median of every build of every repetition."""
    return {
        "iters_per_s": {"value": _pooled_rate(records), "unit": "1/s"},
        "setup_s": {"value": statistics.median(
            s for r in records for s in r["setups"]), "unit": "s"},
        "final_loss": {"value": _median(records, lambda r: r["final_loss"]),
                       "unit": "loss"},
        "peak_rss_mb": {"value": _median(records, lambda r: r["peak_rss_kb"] / 1024),
                        "unit": "MB"},
        "overrun_s": {"value": statistics.fmean(
            s for r in records for s in r["overruns"]), "unit": "s"},
    }


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, dict]:
    """The per-layer metrics of the traced repetition with the median wall
    time, so its layer self times plus ``unattributed_s`` add up exactly to
    its ``traced_wall_s``."""
    r = sorted(traced, key=lambda rec: rec["run_s"])[(len(traced) - 1) // 2]
    layers = r["layers"]

    def calls(key: str) -> int:
        return layers[key][0]

    def self_s(*keys: str) -> float:
        return sum(layers[key][1] for key in keys)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values = {
        "events.fired": (r.get("events_fired", 0), "count"),
        "events.self_s": (self_s("events"), "s"),
        "netsim.send.calls": (calls("netsim.send"), "count"),
        "netsim.send.self_s": (self_s("netsim.send"), "s"),
        "netsim.bytes": (r.get("netsim_bytes", 0.0), "bytes"),
        "ps.snapshot.calls": (calls("ps.snapshot"), "count"),
        "ps.snapshot.self_s": (self_s("ps.snapshot"), "s"),
        "ps.apply_push.calls": (calls("ps.apply_push"), "count"),
        "ps.apply_push.self_s": (self_s("ps.apply_push"), "s"),
        "ps.mean_staleness": (r["mean_staleness"], "updates"),
        "ps.engine.aborts": (r["aborts"], "count"),
        "ps.engine.wasted_compute_frac": (r.get("wasted_compute_frac", 0.0), "frac"),
        "ps.shm.create_s": (self_s("ps.shm.create"), "s"),
        "ps.shm.unlink_s": (self_s("ps.shm.unlink"), "s"),
        "ml.grad.calls": (calls("ml.grad"), "count"),
        "ml.grad.self_s": (self_s("ml.grad"), "s"),
        "ml.grad.us_per_call": (1e6 * ratio(self_s("ml.grad"), calls("ml.grad")), "us"),
        "ml.optim.self_s": (self_s("ml.optim"), "s"),
        "ml.batch.self_s": (self_s("ml.batch"), "s"),
        "ml.eval.self_s": (self_s("ml.eval"), "s"),
        "core.tuning.retunes": (calls("core.tuning"), "count"),
        "core.tuning.self_s": (self_s("core.tuning"), "s"),
        "core.tuning.ms_per_epoch": (
            1e3 * ratio(self_s("core.tuning"), calls("core.tuning")), "ms"),
        "core.scheduler.notifies": (calls("core.scheduler.notify"), "count"),
        "core.scheduler.self_s": (
            self_s("core.scheduler.notify", "core.scheduler.check"), "s"),
        "core.scheduler.resyncs_sent": (r["resyncs"], "count"),
        "core.scheduler.abort_yield": (ratio(r["aborts"], r["resyncs"]), "frac"),
        "sync.calls": (calls("sync"), "count"),
        "sync.self_s": (self_s("sync"), "s"),
        "obs.emit.calls": (calls("obs.emit"), "count"),
        "obs.emit.self_s": (self_s("obs.emit"), "s"),
        "obs.export_s": (self_s("obs.export"), "s"),
        "obs.trace_bytes": (r.get("trace_bytes", 0), "bytes"),
        "runtime.run_s": (self_s("runtime.run", "runtime.notify"), "s"),
        "runtime.notifies": (calls("runtime.notify"), "count"),
        "traced_wall_s": (r["run_s"], "s"),
        "unattributed_s": (r["run_s"] - self_s(*layers), "s"),
        "harness_overhead": (_pooled_rate(untraced) / _pooled_rate(traced) - 1.0, "frac"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny horizons and durations (self-test only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    records = run_reps(args.workload, args.seed, args.seconds, bool(args.trace),
                       quick=args.quick)
    shutil.rmtree(ROOT / SCRATCH, ignore_errors=True)
    clean = [r for r in records if not r["errors"]]
    failed = len(records) - len(clean)
    untraced = [r for r in clean if not r["traced"]]
    traced = [r for r in clean if r["traced"]]
    if not untraced or (args.trace and not traced):
        metrics: Dict[str, dict] = {}
    else:
        metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced)
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
