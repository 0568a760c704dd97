"""Static analysis: the diagnostics engine and the lint passes.

``repro.analysis`` turns the paper's standing assumptions (Section 1)
and the engines' runtime preconditions into a single battery of
re-runnable checks with stable diagnostic codes and source spans.  The
``lint`` CLI subcommand, the shell's ``:lint`` command, and the
program-loading precondition checks all route through here, so a
violation is reported identically everywhere — and *before* the
optimizer or an engine trips over it.
"""

from .dataflow import DataflowResult, Domain, analyze_dataflow
from .diagnostics import AnalysisReport, Diagnostic
from .linter import bundled_reports, lint_program, lint_source
from .passes import (CODES, PRECONDITION_PASSES, REGISTRY, AnalysisContext,
                     analyze_program, make_diagnostic, run_passes)
from .sarif import render_sarif

__all__ = [
    "AnalysisReport", "Diagnostic",
    "DataflowResult", "Domain", "analyze_dataflow",
    "bundled_reports", "lint_program", "lint_source",
    "CODES", "PRECONDITION_PASSES", "REGISTRY", "AnalysisContext",
    "analyze_program", "make_diagnostic", "run_passes", "render_sarif",
]
