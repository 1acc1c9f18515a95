"""Table II — the cost of hyperparameter tuning: Cherrypick vs Adaptive.

Reproduces the paper's cost accounting for the exhaustive grid search
(trial counts × per-trial training time) and contrasts it with the measured
cost of the Adaptive tuner, which is a closed-form scan over a short list
of logged push timestamps (Algorithm 1) — no profiling runs at all.

Paper's Table II (EC2 hours):

========== ============== ============== =============== =================
workload   ABORT_TIME     ABORT_RATE     each trial (h)  total search (h)
========== ============== ============== =============== =================
MF         5              10             1.33            40
CIFAR-10   7              10             6               420
ImageNet   10             10             > 8             > 800
========== ============== ============== =============== =================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cluster.spec import ClusterSpec
from repro.core.tuning import AdaptiveTuner
from repro.core.specsync import SpecSyncPolicy
from repro.experiments.common import ExperimentScale
from repro.utils.tables import TextTable
from repro.workloads.presets import PAPER_WORKLOADS

__all__ = ["Table2Row", "Table2Result", "run_table2", "PAPER_TABLE2"]

#: The paper's reported grid sizes and per-trial durations.
PAPER_TABLE2: Dict[str, Dict[str, float]] = {
    "mf": {"time_trials": 5, "rate_trials": 10, "trial_hours": 1.33,
           "total_hours": 40.0},
    "cifar10": {"time_trials": 7, "rate_trials": 10, "trial_hours": 6.0,
                "total_hours": 420.0},
    "imagenet": {"time_trials": 10, "rate_trials": 10, "trial_hours": 8.0,
                 "total_hours": 800.0},
}


@dataclass(frozen=True)
class Table2Row:
    workload: str
    time_trials: int
    rate_trials: int
    trial_hours: float
    cherrypick_total_hours: float
    #: measured wall-clock seconds the Adaptive tuner spent over a full run
    adaptive_tuning_wall_s: float
    adaptive_epochs_tuned: int


@dataclass
class Table2Result:
    rows: List[Table2Row]

    def render(self) -> str:
        table = TextTable(
            ["workload", "# ABORT_TIME trials", "# ABORT_RATE trials",
             "each trial (h)", "Cherrypick total (h)",
             "Adaptive total (measured)"],
            title="Table II: Hyperparameter tuning cost",
        )
        for row in self.rows:
            total_ms = row.adaptive_tuning_wall_s * 1000
            per_epoch_ms = total_ms / max(1, row.adaptive_epochs_tuned)
            table.add_row(
                [
                    row.workload,
                    row.time_trials,
                    row.rate_trials,
                    f"{row.trial_hours:g}",
                    f"{row.cherrypick_total_hours:g}",
                    f"{total_ms:.1f} ms ({row.adaptive_epochs_tuned} epochs, "
                    f"{per_epoch_ms:.1f} ms/epoch)",
                ]
            )
        return table.render()


def run_table2(
    scale: ExperimentScale = ExperimentScale.FULL, seed: int = 3
) -> Table2Result:
    """Report the paper's grid cost alongside the measured Adaptive cost.

    The Cherrypick columns restate the search dimensions (trial counts ×
    trial durations — the cost structure is the paper's point, and the
    per-trial hours are wall-clock properties of their EC2 testbed); the
    Adaptive column is *measured* here by running each workload once with
    the adaptive tuner and timing Algorithm 1's scans.
    """
    num_workers = 40 if scale is ExperimentScale.FULL else 10
    cluster = ClusterSpec.homogeneous(num_workers)
    rows: List[Table2Row] = []
    for workload in PAPER_WORKLOADS(seed):
        paper = PAPER_TABLE2[workload.name]
        tuner = AdaptiveTuner()
        policy = SpecSyncPolicy(tuner=tuner)
        horizon = (
            workload.default_horizon_s
            if scale is ExperimentScale.FULL
            else workload.paper_iteration_time_s * 30
        )
        workload.run(cluster, policy, seed=seed, horizon_s=horizon)
        rows.append(
            Table2Row(
                workload=workload.name,
                time_trials=int(paper["time_trials"]),
                rate_trials=int(paper["rate_trials"]),
                trial_hours=paper["trial_hours"],
                cherrypick_total_hours=paper["total_hours"],
                adaptive_tuning_wall_s=tuner.total_tuning_wall_s,
                adaptive_epochs_tuned=len(tuner.history),
            )
        )
    return Table2Result(rows=rows)


if __name__ == "__main__":
    print(run_table2(ExperimentScale.from_env()).render())
