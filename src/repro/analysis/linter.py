"""Linting front end: from source text (or bundled fixtures) to a report.

This module is the glue between the parser and the analysis passes.  It
parses a mixed source unit (rules, facts, ICs, queries), degrades parse
failures into ``PARSE001`` diagnostics instead of exceptions, and
enumerates the repository's bundled lint targets — every paper example,
the workload generator programs, and the Datalog embedded in the
``examples/`` scripts — so CI can assert they all stay clean of
error-severity findings.
"""

from __future__ import annotations

import ast
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from ..constraints import ic as ic_module
from ..constraints.ic import IntegrityConstraint
from ..datalog.atoms import Atom
from ..datalog.parser import (ParsedIC, ParsedQuery, parse_query,
                              parse_statements)
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.spans import Span
from ..datalog.terms import Variable
from ..errors import ParseError, ReproError
from .diagnostics import AnalysisReport
from .passes import AnalysisContext, make_diagnostic, run_passes


@dataclass
class LintTarget:
    """One thing to lint: either source text or an already-built program."""

    name: str
    source: str | None = None
    program: Program | None = None
    ics: tuple[IntegrityConstraint, ...] = ()
    query: Atom | None = None
    edb_hint: tuple[str, ...] = field(default=())


def _parse_error_report(error: ParseError,
                        source: str | None) -> AnalysisReport:
    span = None
    if error.line is not None:
        column = error.column if error.column is not None else 1
        span = Span(error.line, column, error.line, column + 1)
    message = str(error).splitlines()[0]
    report = AnalysisReport(source=source)
    report.diagnostics.append(
        make_diagnostic("PARSE001", message, span=span, pass_name="parse"))
    return report


def lint_source(text: str, ic_text: str | None = None,
                query_text: str | None = None,
                names: Iterable[str] | None = None) -> AnalysisReport:
    """Lint a mixed source unit.

    The unit may contain rules, facts, integrity constraints and
    queries; ``ic_text``/``query_text`` add out-of-band constraints and
    a query (the query in ``text`` wins over ``query_text``).  Source
    that fails to parse produces a single ``PARSE001`` error instead of
    raising, so the CLI can report it uniformly.
    """
    try:
        statements = parse_statements(text)
    except ParseError as error:
        return _parse_error_report(error, text)
    rules = [s for s in statements if isinstance(s, Rule)]
    parsed_ics = [s for s in statements if isinstance(s, ParsedIC)]
    queries = [s for s in statements if isinstance(s, ParsedQuery)]
    if ic_text:
        try:
            for statement in parse_statements(ic_text):
                if isinstance(statement, ParsedIC):
                    parsed_ics.append(statement)
                else:
                    raise ParseError(
                        f"expected only integrity constraints in the IC "
                        f"input, found {statement}")
        except ParseError as error:
            return _parse_error_report(error, ic_text)
    query: Atom | None = None
    if query_text:
        try:
            parsed_query = parse_query(query_text)
        except ParseError as error:
            return _parse_error_report(error, query_text)
        queries.append(parsed_query)
    for candidate in queries:
        if candidate.literals and isinstance(candidate.literals[0], Atom):
            query = candidate.literals[0]
            break
    try:
        program = Program(rules)
        ics = tuple(ic_module.from_parsed(parsed) for parsed in parsed_ics)
    except ReproError as error:
        report = AnalysisReport(source=text)
        report.diagnostics.append(
            make_diagnostic("PARSE001", str(error), pass_name="parse"))
        return report
    return lint_program(program, ics=ics, query=query, source=text,
                        names=names)


def lint_program(program: Program,
                 ics: Iterable[IntegrityConstraint] = (),
                 query: Atom | None = None, source: str | None = None,
                 names: Iterable[str] | None = None) -> AnalysisReport:
    """Run the analysis passes over an already-built program."""
    context = AnalysisContext(program=program, ics=tuple(ics), query=query,
                              source=source)
    return run_passes(context, names)


# ---------------------------------------------------------------------------
# bundled targets: paper examples, generators, examples/ scripts
# ---------------------------------------------------------------------------

def _query_for(program: Program, pred: str) -> Atom | None:
    """A fresh-variable query atom over ``pred``, if its arity is known."""
    try:
        arity = program.predicate_arities().get(pred)
    except ReproError:
        return None
    if arity is None:
        return None
    return Atom(pred, tuple(Variable(f"Q{index + 1}")
                            for index in range(arity)))


def _script_sources(path: Path) -> tuple[str | None, str | None]:
    """Module-level PROGRAM / CONSTRAINTS string constants of a script."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    program_text: str | None = None
    ic_text: str | None = None
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if not isinstance(node.value, ast.Constant) \
                or not isinstance(node.value.value, str):
            continue
        upper = target.id.upper()
        if "PROGRAM" in upper or "RULES" in upper:
            program_text = node.value.value
        elif "CONSTRAINT" in upper or upper.startswith("IC"):
            ic_text = node.value.value
    return program_text, ic_text


def bundled_targets(examples_dir: str | Path | None = None,
                    generator_seeds: int = 3) -> list[LintTarget]:
    """Everything the repository ships that should lint without errors."""
    from ..workloads import (ALL_EXAMPLES, random_linear_program,
                             transitive_closure_program)

    targets: list[LintTarget] = []
    for factory in ALL_EXAMPLES:
        example = factory()
        targets.append(LintTarget(
            name=f"workloads/{example.name}", program=example.program,
            ics=example.ics,
            query=_query_for(example.program, example.pred)))
    closure = transitive_closure_program()
    targets.append(LintTarget(name="generators/transitive_closure",
                              source=closure, query=None))
    for seed in range(generator_seeds):
        source, _db = random_linear_program(random.Random(seed))
        targets.append(LintTarget(
            name=f"generators/random_linear_program[seed={seed}]",
            source=source))
    if examples_dir is not None:
        for path in sorted(Path(examples_dir).glob("*.py")):
            program_text, ic_text = _script_sources(path)
            if program_text is None:
                continue
            if ic_text:
                program_text = program_text + "\n" + ic_text
            targets.append(LintTarget(name=f"examples/{path.name}",
                                      source=program_text))
    return targets


def lint_target(target: LintTarget,
                names: Iterable[str] | None = None) -> AnalysisReport:
    if target.program is not None:
        return lint_program(target.program, ics=target.ics,
                            query=target.query, source=target.source,
                            names=names)
    assert target.source is not None
    return lint_source(target.source, names=names)


def bundled_reports(examples_dir: str | Path | None = None,
                    names: Iterable[str] | None = None
                    ) -> Iterator[tuple[LintTarget, AnalysisReport]]:
    """Lint every bundled target, yielding ``(target, report)`` pairs."""
    for target in bundled_targets(examples_dir):
        yield target, lint_target(target, names=names)
