"""One benchmark repetition: set up, run and check one workload once.

``run.py`` starts each repetition as a fresh interpreter, so that peak
memory is per run and a hang can be killed at a deadline::

    python3 paperbench/rep.py '{"workload": "mf-asp", "seed": 7,
                                "traced": false, "quick": false,
                                "scratch": ".paperbench-scratch"}'

The last line of standard output is one JSON object: the measured times,
the run's outputs (iterations, aborts, losses, bytes), the layer
accounting when ``traced`` is set, and ``errors``, the failed checks.

The workload seed is the only source of randomness: it draws the
partitioning, the batch order, parameter initialisation and the compute
and network timing.  The datasets are the presets' fixed artifacts, as
in ``repro run``.  The program receives the preset, the cluster, the
scheme and the seed, and nothing that names the benchmark workload.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", Path(__file__).resolve().parent):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

# The program is imported here, before main() starts its clock, so that
# on the DES workloads overrun_s (process lifetime outside main) covers
# interpreter start, importing the program and exit.
from layers import LayerTimer  # noqa: E402
from repro import obs  # noqa: E402
from repro.cluster.spec import ClusterSpec  # noqa: E402
from repro.core.tuning import AdaptiveTuner  # noqa: E402
from repro.experiments.common import scheme_catalog  # noqa: E402
from repro.runtime import MultiprocessRun  # noqa: E402
from repro.utils.rng import RngStreams  # noqa: E402
from repro.workloads.presets import (  # noqa: E402
    cifar10_workload,
    matrix_factorization_workload,
)

PRESETS = {"mf": matrix_factorization_workload, "cifar10": cifar10_workload}

#: Each repetition builds its set-up this many times and reports every
#: build's time, so ``setup_s`` is a median of many samples although one
#: build takes ~30 ms.
SETUP_REPEATS = 10

#: The paper's cluster size for the DES workloads.
DES_WORKERS = 40
#: The multiprocess workload runs one worker per core of a 2-core host.
MP_WORKERS = 2
#: Wall seconds per virtual second on the multiprocess backend: MF's 3 s
#: virtual compute takes 3 ms.
MP_TIME_SCALE = 0.001


@dataclass(frozen=True)
class WorkloadSpec:
    """What one named workload runs.  ``size`` is the virtual horizon in
    seconds on the DES, the wall ``duration_s`` on the multiprocess
    backend; ``quick_size`` replaces it in the self-test."""

    preset: str
    scheme: str
    size: float
    quick_size: float
    multiprocess: bool = False
    #: Capture a Chrome trace, as ``repro run --trace`` does.
    writes_trace: bool = False


#: The MF horizon is long enough for ASP to recover from its early
#: divergence at 40 workers (its first learning-rate decay falls at
#: ~400 virtual seconds), so its loss check holds with margin: at 480 s
#: all of 40 seeds tried already passed.
WORKLOADS: Dict[str, WorkloadSpec] = {
    "mf-adaptive": WorkloadSpec("mf", "adaptive", 540.0, 30.0),
    "mf-asp": WorkloadSpec("mf", "original", 540.0, 30.0),
    "cifar10-adaptive-ssp-traced": WorkloadSpec(
        "cifar10", "adaptive+ssp", 1000.0, 100.0, writes_trace=True
    ),
    "mp-mf-adaptive": WorkloadSpec(
        "mf", "adaptive", 3.0, 0.5, multiprocess=True
    ),
}


def _build_des(spec: WorkloadSpec, seed: int, horizon_s: float):
    workload = PRESETS[spec.preset]()
    policy = scheme_catalog(workload.name)[spec.scheme].make()
    return workload.build_engine(
        ClusterSpec.homogeneous(DES_WORKERS), policy, seed=seed,
        horizon_s=horizon_s,
    )


def _build_mp(spec: WorkloadSpec, seed: int):
    workload = PRESETS[spec.preset]()
    dataset = workload.dataset_factory(seed)
    partitions = dataset.partition(
        MP_WORKERS, RngStreams(seed).get("partition")
    )
    return MultiprocessRun(
        model=workload.model_factory(),
        partitions=partitions,
        eval_batch=dataset.eval_batch(),
        update_rule=workload.update_rule_factory(),
        compute_model=workload.base_compute,
        batch_size=workload.batch_size,
        time_scale=MP_TIME_SCALE,
        tuner=AdaptiveTuner(),
        seed=seed,
    )


def _shm_segments() -> set:
    """Names of the shared-memory segments that exist right now."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def _check_trace(path: Path, iterations: int) -> List[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"trace does not parse: {exc}"]
    ends = [
        event for event in trace.get("traceEvents", [])
        if event.get("name") == "run_end" and event.get("ph") == "i"
    ]
    if len(ends) != 1:
        return [f"trace has {len(ends)} run_end instants, expected 1"]
    recorded = ends[0].get("args", {}).get("total_iterations")
    if recorded != iterations:
        return [f"trace run_end total_iterations {recorded} != {iterations}"]
    return []


def run_rep(workload: str, seed: int, traced: bool, quick: bool,
            scratch: Path, setup_only: bool = False) -> dict:
    """Run one repetition in this process and return its record.  With
    ``setup_only`` it stops after the set-up builds and returns their
    times."""
    spec = WORKLOADS[workload]
    size = spec.quick_size if quick else spec.size
    timer = LayerTimer() if traced else None
    collector = obs.TraceCollector() if spec.writes_trace else None
    record: dict = {"errors": []}
    errors: List[str] = record["errors"]
    with timer or contextlib.nullcontext():
        with obs.collecting(collector) if collector else contextlib.nullcontext():
            setups = []
            for _ in range(SETUP_REPEATS):
                started = time.perf_counter()
                target = (_build_mp(spec, seed) if spec.multiprocess
                          else _build_des(spec, seed, size))
                setups.append(time.perf_counter() - started)
            if setup_only:
                return {"errors": [], "setups": setups, "peak_rss_kb": 0}
            initial = (
                target.model.init_params(RngStreams(seed).get("init"))
                if spec.multiprocess else target.store.params
            )
            initial_loss = target.model.loss(initial, target.eval_batch)

            if timer is not None:
                timer.reset()
            started = time.perf_counter()
            if spec.multiprocess:
                segments_before = _shm_segments()
                result = target.run(duration_s=size)
                leaked = _shm_segments() - segments_before
            else:
                result = target.run()
        if collector is not None:
            scratch.mkdir(parents=True, exist_ok=True)
            trace_path = scratch / f"trace-{os.getpid()}.json"
            with open(trace_path, "w", encoding="utf-8") as handle:
                obs.write_chrome_trace(collector, handle)
        run_s = time.perf_counter() - started
        if timer is not None:
            record["layers"] = {
                key: [timer.calls[key], timer.self_s[key]]
                for key in sorted(timer.calls)
            }

    record.update(setups=setups,
                  run_s=run_s, initial_loss=initial_loss,
                  final_loss=result.final_loss, aborts=result.total_aborts,
                  mean_staleness=result.mean_staleness)
    if spec.multiprocess:
        record.update(
            iterations=result.total_iterations,
            resyncs=result.resyncs_sent,
            overrun_s=run_s - size,
        )
        missing = [w for w in range(MP_WORKERS)
                   if result.per_worker_iterations.get(w, 0) < 1]
        if missing:
            errors.append(f"workers {missing} completed no iteration")
        if leaked:
            errors.append(f"shared-memory segments left behind: {sorted(leaked)}")
    else:
        horizon_worker_s = DES_WORKERS * target.config.horizon_s
        record.update(
            iterations=target.store.version,
            resyncs=int(result.policy_summary.get("resyncs_sent", 0)),
            netsim_bytes=result.total_transfer_bytes,
            events_fired=target.sim.events_fired,
            wasted_compute_frac=(
                result.traces.total_wasted_compute() / horizon_worker_s
            ),
        )
    if collector is not None:
        record["trace_bytes"] = trace_path.stat().st_size
        errors.extend(_check_trace(trace_path, record["iterations"]))
        trace_path.unlink()
        with contextlib.suppress(OSError):
            scratch.rmdir()
    if not math.isfinite(record["final_loss"]):
        errors.append(f"final loss {record['final_loss']} is not finite")
    elif record["final_loss"] >= initial_loss:
        errors.append(
            f"final loss {record['final_loss']:.6g} is not below the "
            f"initial loss {initial_loss:.6g}"
        )
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return record


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    args = json.loads((argv if argv is not None else sys.argv[1:])[0])
    record = run_rep(args["workload"], int(args["seed"]), bool(args["traced"]),
                     bool(args["quick"]), ROOT / args["scratch"],
                     bool(args.get("setup_only")))
    record["main_s"] = time.perf_counter() - started
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
