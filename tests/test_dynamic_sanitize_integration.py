"""Integration tests: dynamic sanitizers over the real runtime backends.

The load-bearing regression here is graph containment: on the tier-1
threaded scenario, every lock-order edge the runtime actually takes must
already be present in the static ``CONC-LOCK-ORDER`` graph — the static
analysis over-approximates, so an observed-only edge means it has grown
a blind spot.
"""

import pytest

import repro.runtime.threaded as threaded
from repro.analysis.dynamic import (
    LocksetMonitor,
    build_threaded_run,
    diff_graphs,
    load_static_runtime_graph,
    observed_lock_graph,
    run_sanitizers,
    traced_runtime_locks,
    watch_from_static,
)
from repro.analysis.engine import load_module
from repro.analysis.rules.concurrency import guarded_class_state

SERVER_LOCK = "repro.runtime.threaded.ThreadedParameterServer._lock"
SCHEDULER_LOCK = "repro.runtime.threaded._ThreadSafeScheduler._lock"


def static_guarded_field_count():
    """Fields the static pass says the server and scheduler locks guard."""
    guarded = guarded_class_state(load_module(threaded.__file__))
    return sum(
        len(guarded[name].guarded)
        for name in ("ThreadedParameterServer", "_ThreadSafeScheduler")
    )


@pytest.fixture(scope="module")
def instrumented_trace():
    """One short instrumented threaded run, shared across this module."""
    with traced_runtime_locks() as trace:
        monitor = LocksetMonitor(trace)
        run = build_threaded_run(workers=4, seed=0)
        watch_from_static(run.server, monitor)
        watch_from_static(run.scheduler, monitor)
        run.run(0.3)
    return trace, monitor


class TestStaticDynamicParity:
    def test_observed_graph_is_subset_of_static(self, instrumented_trace):
        """Static CONC-LOCK-ORDER must cover every runtime-taken edge."""
        trace, _ = instrumented_trace
        observed = observed_lock_graph(trace)
        static = load_static_runtime_graph()
        extra = observed.edge_pairs() - static.edge_pairs()
        assert not extra, (
            f"runtime took lock-order edges the static graph lacks: {extra}"
        )

    def test_traced_lock_names_match_static_convention(self, instrumented_trace):
        """The tracer infers the exact qualified names the static pass uses."""
        trace, _ = instrumented_trace
        names = trace.lock_names()
        assert SERVER_LOCK in names
        assert SCHEDULER_LOCK in names
        for name in names:
            assert name.startswith("repro.runtime."), name

    def test_runtime_run_produces_no_races(self, instrumented_trace):
        """The guarded fields really are consistently locked at runtime."""
        trace, monitor = instrumented_trace
        assert monitor.findings() == []
        # All guarded fields of both watched classes were exercised.
        assert monitor.fields_tracked() == static_guarded_field_count()
        assert len(trace) > 0

    def test_diff_against_static_is_two_sided(self, instrumented_trace):
        trace, _ = instrumented_trace
        diff = diff_graphs(observed_lock_graph(trace), load_static_runtime_graph())
        assert diff.observed_only == []
        # static_only edges are report-only: they must never be findings
        # (the static pass follows calls whether or not they happen).
        from repro.analysis.dynamic import static_gap_findings

        assert static_gap_findings(diff) == []

    def test_watch_from_static_rejects_lockless_classes(self):
        from repro.analysis.dynamic import LockTrace

        monitor = LocksetMonitor(LockTrace())
        with pytest.raises(ValueError):
            watch_from_static(object(), monitor)


class TestRunSanitizers:
    def test_threaded_clean_end_to_end(self):
        report = run_sanitizers(
            backend="threaded", duration_s=0.25, workers=3, seed=0, replay=False
        )
        assert report.clean, [f.render() for f in report.findings]
        assert report.lock_events > 0
        assert report.fields_tracked == static_guarded_field_count()
        assert SERVER_LOCK in report.locks_seen

    def test_replay_check_is_deterministic(self):
        report = run_sanitizers(
            backend="threaded", duration_s=0.2, workers=2, seed=1, replay=True
        )
        assert report.replay is not None
        assert report.replay.deterministic
        assert report.replay.run_lengths[0] == report.replay.run_lengths[1] > 0
        assert report.clean

    def test_report_serializes(self):
        report = run_sanitizers(
            backend="threaded", duration_s=0.2, workers=2, seed=0, replay=False
        )
        payload = report.to_dict()
        assert payload["backend"] == "threaded"
        assert payload["findings"] == []
        assert payload["lock_events"] == report.lock_events
        assert isinstance(payload["graph_diff"]["static_only"], list)
        text = report.render_text()
        assert "lock events" in text and "clean" in text

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            run_sanitizers(backend="carrier-pigeon")

    def test_shims_uninstalled_after_run(self):
        import threading as real_threading

        from repro.runtime import multiprocess, threaded

        run_sanitizers(duration_s=0.2, workers=2, replay=False)
        assert threaded.threading is real_threading
        assert multiprocess.mp.__name__ == "multiprocessing"
