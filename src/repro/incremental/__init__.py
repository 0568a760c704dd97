"""Incremental view maintenance.

The serving layer this engine powers lives in :mod:`repro.serving`.
"""

from .maintain import (MaintenanceResult, SupportCounts,
                       is_recursive_stratum, maintain, support_counts)

__all__ = ["MaintenanceResult", "SupportCounts", "is_recursive_stratum",
           "maintain", "support_counts"]
