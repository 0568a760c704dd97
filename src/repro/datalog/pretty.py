"""Round-trippable pretty printing for programs, ICs and substitutions.

``str()`` on the AST classes already produces parseable text for single
objects; this module adds multi-object formatting with labels, alignment
and optional rule grouping by head predicate, used by reports and the
examples.
"""

from __future__ import annotations

from typing import Iterable

from .program import Program
from .rules import Rule


def format_rule(rule: Rule, show_label: bool = True) -> str:
    """Format one rule, prefixed with its label when available."""
    text = str(rule)
    if show_label and rule.label:
        return f"{rule.label}: {text}"
    return text


def format_program(program: Program, group_by_head: bool = False,
                   show_labels: bool = True) -> str:
    """Format a whole program, one rule per line.

    With ``group_by_head`` the rules are emitted grouped by head predicate
    (source order within each group) with a blank line between groups,
    which makes transformed programs much easier to read.
    """
    if not group_by_head:
        return "\n".join(format_rule(r, show_labels) for r in program)
    seen: list[str] = []
    for rule in program:
        if rule.head.pred not in seen:
            seen.append(rule.head.pred)
    blocks = []
    for pred in seen:
        blocks.append("\n".join(
            format_rule(r, show_labels) for r in program.rules_for(pred)))
    return "\n\n".join(blocks)


def format_table(headers: Iterable[str],
                 rows: Iterable[Iterable[object]]) -> str:
    """Simple fixed-width table used by benchmark reports."""
    headers = [str(h) for h in headers]
    materialized = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))
    def fmt(cells: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in materialized)
    return "\n".join(lines)
