"""Threaded workers + shared store + SpecSync scheduler on wall-clock time.

Concurrency structure:

* ``ThreadedParameterServer`` — the DES's :class:`ParameterStore` under a
  lock (MXNet's per-key atomic apply collapses to one lock here because
  every update touches all keys).
* ``ThreadedWorker`` — one thread per worker; "computation" is an
  interruptible wait of the sampled duration (``Event.wait``), after which
  the gradient is evaluated on the pulled snapshot, exactly like the DES.
* ``SpecSyncScheduler`` from :mod:`repro.core.scheduler`, adapted with a
  lock and ``threading.Timer`` — the identical Algorithm 1/2 logic runs on
  real time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.cluster.compute import ComputeTimeModel
from repro.core.scheduler import SpecSyncScheduler
from repro.core.tuning import HyperparamTuner
from repro.ml.datasets.base import Partition
from repro.ml.models.base import Model
from repro.ml.optim import SgdUpdateRule
from repro.ml.params import ParamSet
from repro.obs.clock import FunctionClock
from repro.obs.core import NULL_TRACER, NullTracer, Tracer
from repro.obs.core import tracer_for
from repro.obs.log import get_logger
from repro.obs.perf import NULL_PROFILER, NullProfiler, Profiler, profiler_for
from repro.obs.tracks import (
    RT_RUN_TRACK,
    RT_SCHEDULER_TRACK,
    RT_SERVER_TRACK,
    resync_flow_key,
    rt_worker_track,
)
from repro.ps.store import ParameterStore
from repro.utils.rng import RngStreams

TracerLike = Union[Tracer, NullTracer]
ProfilerLike = Union[Profiler, NullProfiler]

__all__ = [
    "ThreadedParameterServer",
    "ThreadedWorker",
    "ThreadedRun",
    "ThreadedRunResult",
    "install_threading_shim",
    "uninstall_threading_shim",
]

# ----------------------------------------------------------------------
# Dynamic-analysis patch hook
# ----------------------------------------------------------------------
_REAL_THREADING = threading


def install_threading_shim(shim) -> None:
    """Opt-in hook for :mod:`repro.analysis.dynamic`: rebind this module's
    ``threading`` to *shim*.

    The shim is a proxy for the stdlib module whose ``Lock``/``RLock``
    factories return traced wrappers, so every lock the runtime creates
    while the shim is installed records per-thread acquire/release events.
    Classes defined at import time (``ThreadedWorker``) keep their real
    ``threading.Thread`` base; only *construction* sites in this module
    are redirected.  Call :func:`uninstall_threading_shim` to restore the
    real module — instrumented runs must always pair the two.
    """
    global threading
    threading = shim


def uninstall_threading_shim() -> None:
    """Restore the real stdlib ``threading`` module binding."""
    global threading
    threading = _REAL_THREADING


class ThreadedParameterServer:
    """A :class:`ParameterStore` behind a lock, stamped on wall time."""

    def __init__(
        self,
        initial_params: ParamSet,
        update_rule: SgdUpdateRule,
        tracer: Optional[TracerLike] = None,
    ):
        self._store = ParameterStore(initial_params, update_rule)
        self._lock = threading.Lock()
        self.tracer: TracerLike = tracer if tracer is not None else NULL_TRACER
        #: Payload size a pull snapshot / push gradient moves (float64).
        #: The comms instrumentation the socket backend will inherit:
        #: per-message-kind byte histograms alongside the latencies.
        self.message_bytes = initial_params.num_elements * 8

    def pull(self) -> Tuple[ParamSet, int]:
        """A consistent snapshot and its version."""
        tracer = self.tracer
        started = time.monotonic() if tracer.enabled else 0.0
        with tracer.measure(RT_SERVER_TRACK, "pull"):
            with self._lock:
                snapshot = self._store.snapshot(time.monotonic())
        if tracer.enabled:
            tracer.observe("rt.msg.pull.latency_s", time.monotonic() - started)
            tracer.observe("rt.msg.pull.bytes", self.message_bytes)
        return snapshot.params, snapshot.version

    def push(self, worker_id: int, gradient: ParamSet,
             snapshot_version: int) -> int:
        """Apply one gradient; returns the staleness it experienced."""
        tracer = self.tracer
        started = time.monotonic() if tracer.enabled else 0.0
        with tracer.measure(RT_SERVER_TRACK, "push"):
            with self._lock:
                staleness = self._store.apply_push(
                    worker_id, gradient, snapshot_version, time.monotonic()
                ).staleness
        if tracer.enabled:
            tracer.count("rt.pushes")
            tracer.observe("rt.staleness", staleness)
            tracer.observe("rt.msg.push.latency_s", time.monotonic() - started)
            tracer.observe("rt.msg.push.bytes", self.message_bytes)
        return staleness

    @property
    def version(self) -> int:
        with self._lock:
            return self._store.version

    def mean_staleness(self) -> float:
        """Average staleness over all applied pushes."""
        with self._lock:
            return self._store.mean_staleness()


class _ThreadSafeScheduler:
    """Lock + Timer adapter putting :class:`SpecSyncScheduler` on wall time."""

    def __init__(
        self,
        num_workers: int,
        tuner: HyperparamTuner,
        send_resync,
        tracer: Optional[TracerLike] = None,
        profiler: Optional[ProfilerLike] = None,
    ):
        self._lock = threading.RLock()
        self._timers: List[threading.Timer] = []
        self._closed = False
        self._tracer: TracerLike = tracer if tracer is not None else NULL_TRACER
        self.inner = SpecSyncScheduler(
            num_workers=num_workers,
            tuner=tuner,
            schedule_fn=self._schedule,
            now_fn=time.monotonic,
            send_resync_fn=send_resync,
            # Wall-clock tracer + runtime track names: the identical
            # Algorithm 2 logic reports on the wall-time domain here.
            tracer=tracer,
            profiler=profiler,
            worker_track_fn=rt_worker_track,
            self_track=RT_SCHEDULER_TRACK,
        )

    def _schedule(self, delay: float, fn) -> None:
        with self._lock:
            if self._closed:
                return
            timer = threading.Timer(delay, self._fire, args=(fn,))
            timer.daemon = True
            self._timers.append(timer)
            timer.start()
            if self._tracer.enabled:
                self._tracer.gauge(
                    "rt.scheduler.pending_timers", len(self._timers)
                )

    def _fire(self, fn) -> None:
        # A Timer is a Thread: the timer executing this callback is the
        # current thread, so it can drop itself from the outstanding list
        # (otherwise _timers grows for the whole run).  The finally
        # guarantees the prune even when fn() raises.
        try:
            with self._lock:
                if self._closed:
                    return
                fn()
        finally:
            me = threading.current_thread()
            with self._lock:
                self._timers = [t for t in self._timers if t is not me]
                if self._tracer.enabled:
                    self._tracer.gauge(
                        "rt.scheduler.pending_timers", len(self._timers)
                    )

    def handle_notify(self, worker_id: int, iteration: int) -> None:
        with self._lock:
            if not self._closed:
                self.inner.handle_notify(worker_id, iteration)

    def close(self) -> None:
        """Mark closed and cancel every outstanding timer.

        Idempotent.  Cancellation happens outside the lock (a timer that
        already started firing blocks on the lock in :meth:`_fire`; holding
        it here would serialize against every such straggler) and pops
        timers one by one, so an exception from one ``cancel`` cannot
        strand the rest un-cancelled.
        """
        with self._lock:
            self._closed = True
            timers, self._timers = self._timers, []
        try:
            while timers:
                timers[-1].cancel()
                timers.pop()
        finally:
            if timers:
                # A cancel raised: re-stash the remainder so a retrying
                # close() still cancels them instead of leaking threads.
                with self._lock:
                    self._timers.extend(timers)


class ThreadedWorker(threading.Thread):
    """One training worker on its own thread."""

    def __init__(
        self,
        worker_id: int,
        server: ThreadedParameterServer,
        model: Model,
        partition: Partition,
        compute_model: ComputeTimeModel,
        batch_size: int,
        time_scale: float,
        batch_rng: np.random.Generator,
        compute_rng: np.random.Generator,
        stop_event: threading.Event,
        scheduler: Optional[_ThreadSafeScheduler] = None,
        max_aborts_per_iteration: int = 1,
        tracer: Optional[TracerLike] = None,
        profiler: Optional[ProfilerLike] = None,
    ):
        super().__init__(name=f"worker-{worker_id}", daemon=True)
        self.tracer: TracerLike = tracer if tracer is not None else NULL_TRACER
        self.profiler: ProfilerLike = (
            profiler if profiler is not None else NULL_PROFILER
        )
        self.track = rt_worker_track(worker_id)
        self.worker_id = worker_id
        self.server = server
        self.model = model
        self.partition = partition
        self.compute_model = compute_model
        self.batch_size = batch_size
        self.time_scale = time_scale
        self.batch_rng = batch_rng
        self.compute_rng = compute_rng
        self.stop_event = stop_event
        self.scheduler = scheduler
        self.max_aborts_per_iteration = max_aborts_per_iteration

        self.abort_event = threading.Event()
        self.iterations = 0
        self.aborts = 0
        self._last_resync_peer_pushes: Optional[int] = None

    def request_resync(self, peer_pushes: Optional[int] = None) -> None:
        """Called by the scheduler adapter: abort the in-flight computation.

        ``peer_pushes`` (the triggering count from the scheduler's
        decision) is stored so the worker-side abort instant can carry it;
        the read is racy against a concurrent abort but only decorates
        observability output, never control flow.
        """
        self._last_resync_peer_pushes = peer_pushes
        if self.tracer.enabled:
            self.tracer.instant(
                self.track, "resync_signal", cat="abort",
                args={"worker": self.worker_id, "peer_pushes": peer_pushes},
            )
        self.abort_event.set()

    def run(self) -> None:  # pragma: no cover - exercised via integration tests
        while not self.stop_event.is_set():
            self._one_iteration()

    def _one_iteration(self) -> None:
        iteration_scope = self.tracer.measure(
            self.track, "iteration", cat="iteration"
        )
        with iteration_scope, self.profiler.measure("rt.iteration"):
            batch = self.partition.sample_batch(self.batch_rng, self.batch_size)
            with self.tracer.measure(self.track, "pull"), \
                    self.profiler.measure("rt.pull"):
                snapshot, version = self.server.pull()
            aborts_left = self.max_aborts_per_iteration
            while True:
                duration = (
                    self.compute_model.sample(self.compute_rng) * self.time_scale
                )
                compute_started = time.monotonic()
                interrupted = self.abort_event.wait(timeout=duration)
                if self.stop_event.is_set():
                    return
                if interrupted and aborts_left > 0:
                    # Re-sync: discard the wait, pull fresher parameters,
                    # restart the same batch (Algorithm 2, worker lines 5-7).
                    self.abort_event.clear()
                    if self.tracer.enabled:
                        wasted = time.monotonic() - compute_started
                        self.tracer.instant(
                            self.track, "abort", cat="abort",
                            args={"worker": self.worker_id,
                                  "wasted_s": round(wasted, 9),
                                  "peer_pushes": self._last_resync_peer_pushes},
                        )
                        self.tracer.count("rt.aborts")
                    with self.tracer.measure(self.track, "pull"):
                        snapshot, version = self.server.pull()
                    self.aborts += 1
                    aborts_left -= 1
                    continue
                self.abort_event.clear()
                break
            _, gradient = self.model.loss_and_grad(snapshot, batch)
            with self.tracer.measure(self.track, "push"), \
                    self.profiler.measure("rt.push"):
                self.server.push(self.worker_id, gradient, version)
            self.iterations += 1
            if self.scheduler is not None:
                self.scheduler.handle_notify(self.worker_id, self.iterations)


@dataclass
class ThreadedRunResult:
    """Counters from one threaded run."""

    total_iterations: int
    total_aborts: int
    mean_staleness: float
    final_loss: float
    resyncs_sent: int
    epochs_tuned: int
    wall_time_s: float


class ThreadedRun:
    """Wire up and run a threaded cluster for a wall-clock duration."""

    def __init__(
        self,
        model: Model,
        partitions: List[Partition],
        eval_batch,
        update_rule: SgdUpdateRule,
        compute_model: ComputeTimeModel,
        batch_size: int = 32,
        time_scale: float = 0.001,  # 1 virtual second -> 1 ms wall
        tuner: Optional[HyperparamTuner] = None,
        seed: int = 0,
        max_aborts_per_iteration: int = 1,
    ):
        if not partitions:
            raise ValueError("need at least one partition/worker")
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        streams = RngStreams(seed)
        self.model = model
        self.eval_batch = eval_batch
        # Wall-clock tracer: the runtime is the only layer allowed to read
        # real time, so it injects the clock into the (clock-agnostic) obs
        # layer here.  The shared no-op when observability is disabled.
        self.tracer = tracer_for(FunctionClock(time.monotonic))
        self.profiler = profiler_for(FunctionClock(time.monotonic))
        self._log = get_logger("runtime")
        self.server = ThreadedParameterServer(
            model.init_params(streams.get("init")), update_rule,
            tracer=self.tracer,
        )
        self.stop_event = threading.Event()

        self.scheduler: Optional[_ThreadSafeScheduler] = None
        if tuner is not None:
            self.scheduler = _ThreadSafeScheduler(
                num_workers=len(partitions),
                tuner=tuner,
                send_resync=self._send_resync,
                tracer=self.tracer,
                profiler=self.profiler,
            )

        self.workers = [
            ThreadedWorker(
                worker_id=i,
                server=self.server,
                model=model,
                partition=partition,
                compute_model=compute_model,
                batch_size=batch_size,
                time_scale=time_scale,
                batch_rng=streams.get("batch", i),
                compute_rng=streams.get("compute", i),
                stop_event=self.stop_event,
                scheduler=self.scheduler,
                max_aborts_per_iteration=max_aborts_per_iteration,
                tracer=self.tracer,
                profiler=self.profiler,
            )
            for i, partition in enumerate(partitions)
        ]

    def _send_resync(self, worker_id: int, iteration: int, peer_pushes: int) -> None:
        # The threaded worker guards against late re-syncs itself (the
        # abort flag is cleared at each iteration boundary), so the
        # iteration tag needs no extra check here.
        if self.tracer.enabled:
            # Close the causal flow the scheduler staged for this decision:
            # arrows land on the worker's track at the signal time.
            self.tracer.flow_end(
                resync_flow_key(worker_id, iteration), rt_worker_track(worker_id)
            )
        self.workers[worker_id].request_resync(peer_pushes)

    def run(self, duration_s: float = 0.5) -> ThreadedRunResult:
        """Run all workers for ``duration_s`` wall seconds, then stop.

        Worker joins and scheduler close happen in a ``finally`` so that a
        raising worker ``start()`` (or an interrupt during the sleep)
        cannot leak running threads or live timers past this call.
        """
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        self._log.info(
            "threaded run: %d workers for %.3gs wall",
            len(self.workers), duration_s,
        )
        started = time.monotonic()
        with self.tracer.measure(RT_RUN_TRACK, "run"), \
                self.profiler.measure("rt.run"):
            # Joining only the started workers matters: if a start() in the
            # middle of the loop raises, joining a never-started thread
            # would itself raise and mask the original error, while the
            # old is_alive() gate left a path that skipped a live join.
            started_workers: List[ThreadedWorker] = []
            try:
                for worker in self.workers:
                    worker.start()
                    started_workers.append(worker)
                time.sleep(duration_s)
            finally:
                self.stop_event.set()
                for worker in self.workers:
                    worker.abort_event.set()  # release any in-flight waits
                for worker in started_workers:
                    worker.join(timeout=5.0)
                if self.scheduler is not None:
                    self.scheduler.close()
        wall = time.monotonic() - started

        final_params, _ = self.server.pull()
        inner = self.scheduler.inner if self.scheduler is not None else None
        if self.profiler.enabled and inner is not None:
            report = inner.anomaly_report()
            if report:
                self.profiler.report("runtime.threaded", report)
        return ThreadedRunResult(
            total_iterations=sum(w.iterations for w in self.workers),
            total_aborts=sum(w.aborts for w in self.workers),
            mean_staleness=self.server.mean_staleness(),
            final_loss=self.model.loss(final_params, self.eval_batch),
            resyncs_sent=inner.resyncs_sent if inner else 0,
            epochs_tuned=inner.epochs_completed if inner else 0,
            wall_time_s=wall,
        )
