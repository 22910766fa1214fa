"""Experiment harness: workloads, the runner, healer comparisons and report printing.

This is the layer the ``benchmarks/`` directory and the examples are built
on.  A benchmark is: pick a workload (initial topology), an adversary, one or
more healers, run them through :func:`run_experiment` for a number of
timesteps, and print the resulting table with
:mod:`repro.harness.reporting`.
"""

from repro.harness.workloads import (
    WORKLOADS,
    erdos_renyi_workload,
    grid_workload,
    power_law_workload,
    random_regular_workload,
    ring_workload,
    star_workload,
    two_cliques_workload,
    workload_by_name,
)
from repro.harness.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.harness.sweeps import compare_healers
from repro.harness.reporting import format_table, print_comparison, print_table

__all__ = [
    "WORKLOADS",
    "erdos_renyi_workload",
    "grid_workload",
    "power_law_workload",
    "random_regular_workload",
    "ring_workload",
    "star_workload",
    "two_cliques_workload",
    "workload_by_name",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "compare_healers",
    "format_table",
    "print_comparison",
    "print_table",
]
