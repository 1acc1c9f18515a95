"""The SpecSync central scheduler (paper Section V, Algorithm 2).

The scheduler is the piece that replaces all-to-all push broadcasting: every
worker reports each completed iteration with a tiny ``notify`` message, and
the scheduler — holding the only global view of the push history — decides
per worker whether a ``re-sync`` is warranted.

On ``notify`` from worker *i* at time *t* (the worker pulls and starts its
next iteration immediately):

1. append *t* to the push history;
2. schedule a check at *t* + ABORT_TIME;
3. at the check, count pushes from peers in (*t*, *t* + ABORT_TIME]; if the
   count reaches ``m × ABORT_RATE``, instruct worker *i* to re-sync.

Epoch boundaries (every worker pushed at least once since the last
boundary) trigger hyperparameter retuning via the plugged-in tuner.

The class is engine-agnostic: it talks to the outside world through three
callbacks (schedule a timer, read the clock, send a re-sync), which keeps it
unit-testable without a simulation and reusable by the threaded runtime.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.hyperparams import SpecSyncHyperparams
from repro.core.tuning import EpochTrace, HyperparamTuner
from repro.obs.core import NULL_TRACER, NullTracer, Tracer
from repro.obs.log import get_logger
from repro.obs.perf import NULL_PROFILER, NullProfiler, Profiler
from repro.obs.straggler import AbortStormDetector, StragglerDetector
from repro.obs.tracks import SCHEDULER_TRACK, resync_flow_key, worker_track

__all__ = ["SpecSyncScheduler"]

#: What the scheduler accepts as a tracer (live or the shared no-op).
TracerLike = Union[Tracer, NullTracer]

#: Likewise for the profiler.
ProfilerLike = Union[Profiler, NullProfiler]


class SpecSyncScheduler:
    """Centralized speculation for all workers."""

    def __init__(
        self,
        num_workers: int,
        tuner: HyperparamTuner,
        schedule_fn: Callable[[float, Callable], None],
        now_fn: Callable[[], float],
        send_resync_fn: Callable[[int, int, int], None],
        span_window: int = 8,
        tracer: Optional[TracerLike] = None,
        profiler: Optional[ProfilerLike] = None,
        worker_track_fn: Callable[[int], str] = worker_track,
        self_track: str = SCHEDULER_TRACK,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.tuner = tuner
        self._schedule = schedule_fn
        self._now = now_fn
        self._send_resync = send_resync_fn
        #: Observability: the host (DES policy / runtime adapter) passes a
        #: tracer bound to *its* clock, plus its track-name convention, so
        #: the engine-agnostic scheduler never chooses a clock domain.
        self.tracer: TracerLike = tracer if tracer is not None else NULL_TRACER
        self.profiler: ProfilerLike = (
            profiler if profiler is not None else NULL_PROFILER
        )
        #: Online anomaly detectors over the notify stream — the runtime
        #: monitoring input SpecSync-Adaptive's retuning wants (and what
        #: `repro perf report` surfaces).  Allocated only while profiling
        #: so the disabled path stays free.
        self.straggler: Optional[StragglerDetector] = None
        self.abort_storm: Optional[AbortStormDetector] = None
        if self.profiler.enabled:
            self.straggler = StragglerDetector(num_workers)
            self.abort_storm = AbortStormDetector()
        self._worker_track = worker_track_fn
        self._self_track = self_track
        self._log = get_logger("scheduler")

        self.hyperparams: Optional[SpecSyncHyperparams] = tuner.initial()

        # Global push history (time-ordered, append-only).
        self._push_times: List[float] = []
        self._push_workers: List[int] = []

        # Per-worker history for iteration-span estimation.
        self._last_push: Dict[int, float] = {}
        self._span_samples: Dict[int, deque] = {
            w: deque(maxlen=span_window) for w in range(num_workers)
        }

        # Current-epoch state.
        self._epoch_started_at = 0.0
        self._epoch_pushes: List[Tuple[float, int]] = []
        #: worker_id -> its latest push this epoch; the keys are the
        #: workers seen this epoch.
        self._epoch_last_push: Dict[int, float] = {}

        # Stats for reports.
        self.epochs_completed = 0
        self.checks_run = 0
        self.resyncs_sent = 0
        self.hyperparam_log: List[Tuple[float, Optional[SpecSyncHyperparams]]] = []

    # ------------------------------------------------------------------
    # Protocol entry point
    # ------------------------------------------------------------------
    def handle_notify(self, worker_id: int, iteration: int) -> None:
        """A worker finished an iteration and pushed (Algorithm 2, scheduler
        ``HandleNotification``).  ``iteration`` is the index of the *next*
        iteration the worker is starting — the one a re-sync would abort.

        Raises:
            ValueError: if ``worker_id`` is outside ``[0, num_workers)`` —
                a wiring bug in the runtime, not a recoverable condition,
                so it must surface instead of corrupting epoch state.
        """
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(f"unknown worker id {worker_id}")
        now = self._now()
        if self.tracer.enabled:
            self.tracer.instant(
                self._self_track, "notify",
                args={"worker": worker_id, "iteration": iteration},
            )
            self.tracer.count("scheduler.notifies")
        self._record_push(now, worker_id)
        self._advance_epoch(now, worker_id)

        if self.hyperparams is None:
            return
        window = self.hyperparams.abort_time_s
        threshold = self.hyperparams.threshold_count(self.num_workers)
        self._schedule(
            window,
            lambda: self._check_resync(worker_id, now, iteration, threshold, window),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _record_push(self, time: float, worker_id: int) -> None:
        self._push_times.append(time)
        self._push_workers.append(worker_id)
        previous = self._last_push.get(worker_id)
        if previous is not None and time > previous:
            self._span_samples[worker_id].append(time - previous)
        self._last_push[worker_id] = time
        self._epoch_pushes.append((time, worker_id))
        latest = self._epoch_last_push.get(worker_id)
        if latest is None or time > latest:
            self._epoch_last_push[worker_id] = time
        if self.straggler is not None and self.abort_storm is not None:
            interval = self.straggler.record_push(worker_id, time)
            self.abort_storm.record_push(time)
            if interval is not None:
                self.profiler.sample(
                    f"scheduler.notify_interval.w{worker_id:03d}",
                    interval,
                    ts=time,
                )

    def _advance_epoch(self, now: float, worker_id: int) -> None:
        if len(self._epoch_last_push) < self.num_workers:
            return
        trace = EpochTrace(
            num_workers=self.num_workers,
            pushes=self._epoch_pushes,
            last_push_by_worker=self._epoch_last_push,
            iteration_spans={
                w: sum(samples) / len(samples)
                for w, samples in self._span_samples.items()
                if samples
            },
        )
        self.hyperparams = self.tuner.retune(trace)
        self.epochs_completed += 1
        if self.tracer.enabled:
            self.tracer.instant(
                self._self_track, "epoch_retuned",
                args={"epoch": self.epochs_completed,
                      "hyperparams": str(self.hyperparams)},
            )
        self._log.debug(
            "epoch %d retuned: %s", self.epochs_completed, self.hyperparams
        )
        self.hyperparam_log.append((now, self.hyperparams))
        self._epoch_started_at = now
        self._epoch_pushes = []
        self._epoch_last_push = {}

    def _check_resync(
        self,
        worker_id: int,
        window_start: float,
        iteration: int,
        threshold: float,
        window: float,
    ) -> None:
        """Algorithm 2, ``CheckResync``: fire a re-sync if enough peers pushed."""
        self.checks_run += 1
        now = self._now()
        count = self._peer_pushes_between(worker_id, window_start, now)
        if self.tracer.enabled:
            self.tracer.count("scheduler.checks")
        if self.profiler.enabled:
            # Decision latency: how late the timer fired past the end of
            # the speculation window (0 on the DES, timer skew on wall).
            self.profiler.phase(
                "scheduler.check_skew", start=window_start + window, end=now
            )
        if count >= threshold:
            self.resyncs_sent += 1
            if self.abort_storm is not None:
                self.abort_storm.record_abort(now)
            if self.tracer.enabled:
                self._trace_resync_decision(
                    worker_id, window_start, iteration, threshold, count, now
                )
            self._log.debug(
                "re-sync worker %d (iteration %d): %d peer pushes in "
                "(%.6g, %.6g] >= threshold %.3g",
                worker_id, iteration, count, window_start, now, threshold,
            )
            # The triggering peer-push count travels with the re-sync so
            # the abort instant (and the analytics ledger) can attribute
            # the decision without reconstructing the window.
            self._send_resync(worker_id, iteration, count)

    def _trace_resync_decision(
        self,
        worker_id: int,
        window_start: float,
        iteration: int,
        threshold: float,
        count: int,
        now: float,
    ) -> None:
        """Emit the decision event and stage one causal-flow origin per
        contributing peer push (plus the decision itself).  The engine
        closes the key at the abort point; a re-sync that arrives too
        late discards it, so only honored aborts grow arrows.
        """
        contributing = self._peer_push_events_between(
            worker_id, window_start, now
        )
        self.tracer.instant(
            self._self_track, "resync_decision", cat="abort",
            args={"worker": worker_id, "iteration": iteration,
                  "peer_pushes": count, "threshold": threshold,
                  "window_start": round(window_start, 9)},
        )
        self.tracer.count("scheduler.resyncs_sent")
        key = resync_flow_key(worker_id, iteration)
        for push_time, pusher in contributing:
            self.tracer.flow_begin(
                key, self._worker_track(pusher), "abort", ts=push_time,
                cat="abort", args={"pusher": pusher},
            )
        self.tracer.flow_begin(
            key, self._self_track, "abort", ts=now, cat="abort",
            args={"decision": True, "peer_pushes": count},
        )

    def _peer_pushes_between(self, worker_id: int, start: float, end: float) -> int:
        lo = bisect.bisect_right(self._push_times, start)
        hi = bisect.bisect_right(self._push_times, end)
        return sum(1 for i in range(lo, hi) if self._push_workers[i] != worker_id)

    def _peer_push_events_between(
        self, worker_id: int, start: float, end: float
    ) -> List[Tuple[float, int]]:
        """(time, worker) of each peer push in (start, end] — the causal set."""
        lo = bisect.bisect_right(self._push_times, start)
        hi = bisect.bisect_right(self._push_times, end)
        return [
            (self._push_times[i], self._push_workers[i])
            for i in range(lo, hi)
            if self._push_workers[i] != worker_id
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def estimated_span(self, worker_id: int) -> Optional[float]:
        """Current iteration-span estimate for a worker (mean of recent gaps)."""
        samples = self._span_samples.get(worker_id)
        if not samples:
            return None
        return sum(samples) / len(samples)

    def anomaly_report(self) -> dict:
        """The detectors' current verdicts (empty when profiling is off)."""
        if self.straggler is None or self.abort_storm is None:
            return {}
        return {
            "straggler": self.straggler.report(),
            "abort_storm": self.abort_storm.report(),
        }

    def summary(self) -> dict:
        """Counters for run reports (epochs, checks, re-syncs, hyperparams)."""
        summary: Dict[str, object] = {
            "epochs_completed": self.epochs_completed,
            "checks_run": self.checks_run,
            "resyncs_sent": self.resyncs_sent,
            "current_hyperparams": str(self.hyperparams) if self.hyperparams else None,
        }
        if self.straggler is not None:
            summary["stragglers"] = ",".join(
                str(w) for w in self.straggler.stragglers()
            )
        return summary

    def __repr__(self) -> str:
        return (
            f"SpecSyncScheduler(m={self.num_workers}, epochs={self.epochs_completed}, "
            f"resyncs={self.resyncs_sent}, hp={self.hyperparams})"
        )
