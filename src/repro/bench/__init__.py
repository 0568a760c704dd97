"""Benchmark harness and the reproduction experiments E1..E10."""

from .harness import Measurement, Table, check_same_answers, measure
from .experiments import (ALL_EXPERIMENTS, experiment_e1, experiment_e2,
                          experiment_e3, experiment_e4, experiment_e5,
                          experiment_e6, experiment_e7, experiment_e8,
                          experiment_e9, experiment_e10, run_all)

__all__ = [
    "Measurement", "Table", "check_same_answers", "measure",
    "ALL_EXPERIMENTS", "experiment_e1", "experiment_e2", "experiment_e3",
    "experiment_e4", "experiment_e5", "experiment_e6", "experiment_e7",
    "experiment_e8", "experiment_e9", "experiment_e10", "run_all",
]
