"""Tests for Algorithm 1: freshness estimation and hyperparameter tuning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.spec import ClusterSpec
from repro.core.hyperparams import SpecSyncHyperparams
from repro.core.tuning import (
    AdaptiveTuner,
    EpochTrace,
    FixedTuner,
    candidate_windows,
    estimate_freshness_gain,
    estimate_freshness_loss,
    freshness_curve,
    freshness_improvement,
    tune_hyperparams,
)
from repro.experiments.common import scheme_catalog
from repro.workloads.presets import cifar10_workload


def make_trace(pushes, num_workers=4, spans=None):
    """Build an EpochTrace from (time, worker) pairs."""
    pushes = sorted(pushes)
    last = {}
    for t, w in pushes:
        last[w] = max(last.get(w, t), t)
    return EpochTrace(
        num_workers=num_workers,
        pushes=pushes,
        last_push_by_worker=last,
        iteration_spans=spans or {w: 10.0 for w in range(num_workers)},
    )


class TestHyperparams:
    def test_threshold_count(self):
        hp = SpecSyncHyperparams(abort_time_s=1.0, abort_rate=0.25)
        assert hp.threshold_count(40) == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SpecSyncHyperparams(abort_time_s=0.0, abort_rate=0.1)
        with pytest.raises(ValueError):
            SpecSyncHyperparams(abort_time_s=1.0, abort_rate=-0.1)
        with pytest.raises(ValueError):
            SpecSyncHyperparams(abort_time_s=1.0, abort_rate=0.1).threshold_count(0)


class TestFreshnessGain:
    def test_counts_peer_pushes_after_own_last_push(self):
        trace = make_trace(
            [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 1)], num_workers=3
        )
        # worker 0's reference is t=0; peers push at 1, 2, 3.
        assert estimate_freshness_gain(trace, 0, 1.0) == 1
        assert estimate_freshness_gain(trace, 0, 2.0) == 2
        assert estimate_freshness_gain(trace, 0, 3.0) == 3

    def test_excludes_own_pushes(self):
        trace = make_trace([(0.0, 0), (1.0, 0), (2.0, 1)], num_workers=2)
        # worker 0's reference is its LAST push (t=1); only the peer at 2.
        assert estimate_freshness_gain(trace, 0, 5.0) == 1

    def test_window_boundary_inclusive(self):
        trace = make_trace([(0.0, 0), (2.0, 1)], num_workers=2)
        assert estimate_freshness_gain(trace, 0, 2.0) == 1
        assert estimate_freshness_gain(trace, 0, 1.999) == 0

    def test_worker_without_pushes_has_zero_gain(self):
        trace = make_trace([(0.0, 0)], num_workers=3)
        assert estimate_freshness_gain(trace, 2, 10.0) == 0

    def test_gain_is_monotone_step_function(self):
        trace = make_trace(
            [(0.0, 0), (1.0, 1), (2.5, 2), (7.0, 1)], num_workers=3
        )
        gains = [estimate_freshness_gain(trace, 0, w) for w in
                 (0.5, 1.0, 2.0, 2.5, 6.0, 7.0)]
        assert gains == sorted(gains)
        assert gains == [0, 1, 1, 2, 2, 3]

    def test_negative_window_rejected(self):
        trace = make_trace([(0.0, 0)], num_workers=1)
        with pytest.raises(ValueError):
            estimate_freshness_gain(trace, 0, -1.0)


class TestFreshnessLoss:
    def test_formula(self):
        # l = Δ(m−1)/T
        assert estimate_freshness_loss(41, 10.0, 2.0) == pytest.approx(8.0)

    def test_linear_in_window(self):
        one = estimate_freshness_loss(10, 5.0, 1.0)
        three = estimate_freshness_loss(10, 5.0, 3.0)
        assert three == pytest.approx(3 * one)

    def test_zero_window_zero_loss(self):
        assert estimate_freshness_loss(10, 5.0, 0.0) == 0.0

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            estimate_freshness_loss(10, 0.0, 1.0)


class TestCandidateWindows:
    def test_pairwise_differences(self):
        windows = candidate_windows([0.0, 1.0, 3.0])
        assert windows == [1.0, 2.0, 3.0]

    def test_deduplication(self):
        windows = candidate_windows([0.0, 1.0, 2.0])  # diffs 1,1,2
        assert windows == [1.0, 2.0]

    def test_subsampling_cap(self):
        times = [float(i) ** 1.3 for i in range(100)]
        windows = candidate_windows(times, max_candidates=50)
        assert len(windows) == 50
        assert windows == sorted(windows)

    def test_empty_and_single(self):
        assert candidate_windows([]) == []
        assert candidate_windows([5.0]) == []

    @given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=2, max_size=25))
    def test_all_windows_positive_and_sorted(self, times):
        windows = candidate_windows(times)
        assert all(w > 0 for w in windows)
        assert windows == sorted(windows)


class TestTuneHyperparams:
    def test_thin_trace_returns_none(self):
        assert tune_hyperparams(make_trace([], num_workers=2)) is None
        assert tune_hyperparams(
            EpochTrace(num_workers=2, pushes=[(0.0, 0)],
                       last_push_by_worker={0: 0.0}, iteration_spans={})
        ) is None

    def test_picks_window_covering_burst(self):
        """A burst of peer pushes shortly after most workers' last pushes
        should pull the tuned window out to cover the burst."""
        pushes = [(float(w) * 0.01, w) for w in range(3)]  # 0,1,2 at ~t=0
        # worker 3 then pushes in a burst around t ≈ 1
        pushes += [(1.0 + k * 0.1, 3) for k in range(4)]
        trace = make_trace(pushes, num_workers=4,
                           spans={w: 10.0 for w in range(4)})
        hp = tune_hyperparams(trace)
        assert hp is not None
        # Windows shorter than ~1s uncover nothing for workers 0-2, so the
        # maximizer must reach into the burst.
        assert hp.abort_time_s >= 0.9

    def test_window_below_mean_span(self):
        pushes = [(float(i), i % 3) for i in range(9)]
        trace = make_trace(pushes, num_workers=3,
                           spans={w: 3.0 for w in range(3)})
        hp = tune_hyperparams(trace)
        assert hp is not None
        assert hp.abort_time_s < 3.0

    def test_abort_rate_follows_algorithm1_line7(self):
        pushes = [(float(i) * 0.5, i % 4) for i in range(12)]
        spans = {w: 2.0 for w in range(4)}
        trace = make_trace(pushes, num_workers=4, spans=spans)
        hp = tune_hyperparams(trace)
        assert hp is not None
        m = 4
        mean_span = 2.0
        expected_rate = hp.abort_time_s * (m - 1) / (mean_span * m)
        assert hp.abort_rate == pytest.approx(expected_rate)

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=2,
            max_size=30,
        )
    )
    def test_tuned_window_is_a_candidate_or_none(self, pushes):
        trace = make_trace(pushes, num_workers=5)
        hp = tune_hyperparams(trace)
        if hp is not None:
            candidates = candidate_windows([t for t, _ in trace.pushes])
            assert any(abs(hp.abort_time_s - c) < 1e-9 for c in candidates)

    def test_tuned_window_maximizes_improvement(self):
        pushes = [(float(i) * 0.7, i % 4) for i in range(10)]
        trace = make_trace(pushes, num_workers=4,
                           spans={w: 5.0 for w in range(4)})
        hp = tune_hyperparams(trace)
        assert hp is not None
        best = freshness_improvement(trace, hp.abort_time_s)
        for candidate in candidate_windows([t for t, _ in trace.pushes]):
            if 0 < candidate < 5.0:
                assert freshness_improvement(trace, candidate) <= best + 1e-9


class TestTuners:
    def test_fixed_tuner_is_constant(self):
        hp = SpecSyncHyperparams(1.0, 0.2)
        tuner = FixedTuner(hp)
        assert tuner.initial() is hp
        assert tuner.retune(make_trace([(0.0, 0), (1.0, 1)])) is hp
        assert tuner.label == "cherrypick"

    def test_adaptive_tuner_starts_disabled(self):
        tuner = AdaptiveTuner()
        assert tuner.initial() is None
        assert tuner.label == "adaptive"

    def test_adaptive_tuner_records_history_and_cost(self):
        tuner = AdaptiveTuner()
        trace = make_trace([(float(i) * 0.5, i % 3) for i in range(9)],
                           num_workers=3)
        result = tuner.retune(trace)
        assert result is not None
        assert tuner.history == [result]
        assert tuner.total_tuning_wall_s > 0

    def test_adaptive_tuner_validates_candidates(self):
        with pytest.raises(ValueError):
            AdaptiveTuner(max_candidates=0)


# ----------------------------------------------------------------------
# The scalar Algorithm 1 — one F̃(Δ) per window, one worker at a time —
# kept here as the oracle the vectorised scan must equal bit for bit.
# ----------------------------------------------------------------------
def scalar_improvement(trace, window_s):
    push_times = trace.push_times()
    fallback_span = trace.mean_span()
    total = 0.0
    m = trace.num_workers
    for worker_id in range(m):
        gain = estimate_freshness_gain(trace, worker_id, window_s, push_times)
        span = trace.iteration_spans.get(worker_id, fallback_span)
        if span is None or span <= 0:
            continue
        total += gain - window_s * (m - 1) / span
    return total


def scalar_candidates(push_times, max_candidates=512):
    times = sorted(float(t) for t in push_times)
    raw = {
        round(times[j] - times[i], 9)
        for i in range(len(times))
        for j in range(i + 1, len(times))
    }
    diffs = sorted(d for d in raw if d > 0)
    if len(diffs) > max_candidates:
        idx = np.linspace(0, len(diffs) - 1, max_candidates).astype(int)
        diffs = [diffs[i] for i in idx]
    return diffs


def scalar_tune(trace, max_candidates=512):
    mean_span = trace.mean_span()
    if mean_span is None or mean_span <= 0:
        return None
    candidates = scalar_candidates(trace.push_times(), max_candidates)
    candidates = [c for c in candidates if 0 < c < mean_span]
    if not candidates:
        return None
    best_window = None
    best_improvement = -np.inf
    for window in candidates:
        improvement = scalar_improvement(trace, window)
        if improvement > best_improvement:
            best_improvement = improvement
            best_window = window
    m = trace.num_workers
    return SpecSyncHyperparams(
        abort_time_s=best_window,
        abort_rate=best_window * (m - 1) / (mean_span * m),
    )


#: Push times on a quarter-second grid make equal gaps, and so tied F̃
#: maxima, common; free floats exercise the rounding of the gaps.
push_time = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda k: k * 0.25),
    st.floats(min_value=0, max_value=20),
)


@st.composite
def epoch_traces(draw):
    """Random epoch traces: workers without a push, missing or zero
    spans, ``m = 1``."""
    m = draw(st.integers(min_value=1, max_value=8))
    pushes = draw(st.lists(
        st.tuples(push_time, st.integers(min_value=0, max_value=m - 1)),
        max_size=40,
    ))
    trace = make_trace(pushes, num_workers=m)
    trace.iteration_spans = draw(st.dictionaries(
        st.integers(min_value=0, max_value=m - 1),
        st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=30)),
    ))
    return trace


def halfway_times():
    """Gaps within a few ulps of a half-nanosecond, where NumPy's
    ``np.round(x, 9)`` and Python's ``round(x, 9)`` can disagree."""
    def near_half(args):
        k, ulps = args
        x = (k + 0.5) / 1e9
        return x + ulps * float(np.spacing(x))

    gap = st.tuples(
        st.integers(min_value=0, max_value=10**13),
        st.integers(min_value=-3, max_value=3),
    ).map(near_half)
    return st.lists(gap, min_size=1, max_size=10).map(lambda xs: [0.0] + xs)


class TestVectorisedScanMatchesScalar:
    @settings(deadline=None, max_examples=200)
    @given(epoch_traces(), st.sampled_from([512, 1, 3, 16]))
    def test_tune_hyperparams(self, trace, max_candidates):
        assert tune_hyperparams(trace, max_candidates) == scalar_tune(
            trace, max_candidates
        )

    @settings(deadline=None)
    @given(epoch_traces(), st.lists(st.floats(min_value=0, max_value=30), max_size=8))
    def test_freshness_curve(self, trace, extra):
        windows = scalar_candidates(trace.push_times()) + extra
        assert freshness_curve(trace, windows).tolist() == [
            scalar_improvement(trace, w) for w in windows
        ]

    @settings(deadline=None)
    @given(epoch_traces(), st.floats(min_value=0, max_value=30))
    def test_freshness_improvement(self, trace, window):
        assert freshness_improvement(trace, window) == scalar_improvement(
            trace, window
        )

    @settings(deadline=None)
    @given(st.lists(push_time, max_size=40), st.sampled_from([512, 1, 5]))
    def test_candidate_windows(self, times, max_candidates):
        assert candidate_windows(times, max_candidates) == scalar_candidates(
            times, max_candidates
        )

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=40, max_value=80))
    def test_candidate_windows_subsample(self, seed, count):
        times = np.random.default_rng(seed).uniform(0, 100, count).tolist()
        assert len(scalar_candidates(times, max_candidates=10**6)) > 512
        assert candidate_windows(times) == scalar_candidates(times)

    @settings(deadline=None)
    @given(halfway_times())
    def test_candidate_windows_halfway_rounding(self, times):
        assert candidate_windows(times) == scalar_candidates(times)

    def test_rounds_like_python_not_numpy(self):
        gap = 7.9217315345
        assert float(np.round(gap, 9)) != round(gap, 9)
        assert candidate_windows([0.0, gap]) == [round(gap, 9)]

    def test_tie_goes_to_shortest_window(self):
        # F̃(Δ) = ũ_0(Δ) − Δ/4 with worker 1 pushing at 1 s and 5 s: the
        # windows 1 s and 5 s tie exactly, and the scan keeps the first.
        trace = make_trace([(0.0, 0), (1.0, 1), (5.0, 1)], num_workers=2,
                           spans={0: 8.0, 1: 8.0})
        assert freshness_curve(trace, [1.0, 4.0, 5.0]).tolist() == [0.75, 0.0, 0.75]
        hp = tune_hyperparams(trace)
        assert hp is not None and hp.abort_time_s == 1.0


class TestPaperScalePin:
    """The tuner inside a 40-worker CIFAR-10 Adaptive-on-SSP DES run
    (seed 7, 200 s virtual horizon), pinned to the floats the scalar
    scan produced."""

    def test_hyperparam_log_and_run_outcome(self):
        workload = cifar10_workload()
        policy = scheme_catalog(workload.name)["adaptive+ssp"].make()
        engine = workload.build_engine(
            ClusterSpec.homogeneous(40), policy, seed=7, horizon_s=200.0
        )
        result = engine.run()
        assert (
            engine.store.version,
            result.total_aborts,
            int(result.policy_summary["resyncs_sent"]),
        ) == (468, 243, 243)
        assert [
            (now, hp.abort_time_s, hp.abort_rate)
            for now, hp in policy.scheduler.hyperparam_log
        ] == [
            (50.744687517787106, 3.228823512, 0.21969131205587988),
            (66.24582275640691, 2.449051676, 0.16905281076899362),
            (94.1961828153457, 2.703148461, 0.17341870454579247),
            (125.50662480249278, 2.429342291, 0.15037058193602615),
            (146.4238625915096, 3.346123156, 0.20525400800225044),
            (177.12149343519616, 3.129190332, 0.1865549541787429),
            (198.0395476241003, 2.833178521, 0.16480907317791643),
        ]
