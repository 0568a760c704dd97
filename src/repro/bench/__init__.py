"""Benchmark harness and the reproduction experiments E1..E10."""

from .harness import Measurement, Table, check_same_answers, measure
from .experiments import ALL_EXPERIMENTS

__all__ = [
    "Measurement", "Table", "check_same_answers", "measure",
    "ALL_EXPERIMENTS",
]
