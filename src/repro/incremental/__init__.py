"""Incremental view maintenance.

The serving layer this engine powers lives in :mod:`repro.serving`.
"""

from .maintain import MaintenanceResult, maintain

__all__ = ["MaintenanceResult", "maintain"]
