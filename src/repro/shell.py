"""An interactive Datalog shell with semantic optimization built in.

Start it with ``python -m repro shell``.  Plain input is parsed as
statements in the library's syntax — rules and facts accumulate, ICs
(``body -> head.``) register constraints, and queries (``?- ... .``)
evaluate immediately.  Meta-commands begin with a dot:

=================  =====================================================
``.program``       show the current program
``.ics``           show the registered integrity constraints
``.facts [PRED]``  show stored EDB facts
``.load FILE``     read statements from a file
``.csv PRED FILE`` load a CSV file into a relation
``.update ...``    apply a changeset (``+fact. -fact.`` statements, or
                   a file of them); materialized query state is
                   maintained incrementally instead of recomputed
``.validate``      check the program against the paper's assumptions
``.lint``          run the analysis passes over the program, ICs and
                   last query (also reachable as ``:lint``)
``.residues``      show the residues of the registered ICs
``.optimize``      push the residues; the shell switches to the
                   transformed program (``.original`` switches back)
``.original``      revert to the unoptimized program
``.explain ATOM``  print a derivation tree for a derived ground atom
``.describe ...``  intelligent query answering (Section 5)
``.reset``         clear everything
``.help``          this text
``.quit``          leave the shell
=================  =====================================================

Meta-commands also accept a leading colon (``:lint``, ``:program``,
...), matching the convention of other Datalog shells.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator

from .constraints import IntegrityConstraint, from_parsed
from .core import SemanticOptimizer
from .datalog import format_program, validate_program
from .datalog.parser import (ParsedIC, ParsedQuery, parse_atom,
                             parse_statements)
from .datalog.program import Program
from .datalog.rules import Rule
from .engine.explain import explain
from .errors import ReproError
from .facts import Database, load_csv
from .iqa import describe, parse_describe
from .runtime.retry import HealthState

PROMPT = "repro> "


class Shell:
    """The shell's state machine; one :meth:`handle` call per input line.

    Incomplete statements (no terminating period yet) are buffered, so
    multi-line rules work as they do in Prolog systems.
    """

    def __init__(self) -> None:
        self.rules: list[Rule] = []
        self.ics: list[IntegrityConstraint] = []
        self.edb = Database()
        self._buffer = ""
        self._optimized: Program | None = None
        self._last_query = None  # query atom for query-dependent lints
        #: Warm serving session: queries answer from materialized views
        #: kept live by `.update`.  Dropped (None) whenever the EDB is
        #: mutated behind the version log's back (plain facts, .csv).
        self._server = None

    # -- program state -------------------------------------------------------
    @property
    def program(self) -> Program:
        if self._optimized is not None:
            return self._optimized
        return Program(self.rules)

    def handle(self, line: str) -> Iterator[str]:
        """Process one input line; yields output lines."""
        stripped = line.strip()
        if not stripped:
            return
        if self._buffer:
            self._buffer += " " + stripped
            if stripped.endswith("."):
                text, self._buffer = self._buffer, ""
                yield from self._statements(text)
            return
        if stripped.startswith("."):
            yield from self._meta(stripped)
            return
        if stripped.startswith(":"):
            yield from self._meta("." + stripped[1:])
            return
        if not stripped.endswith("."):
            self._buffer = stripped
            return
        yield from self._statements(stripped)

    # -- statements ----------------------------------------------------------
    def _statements(self, text: str) -> Iterator[str]:
        try:
            statements = parse_statements(text)
        except ReproError as error:
            yield f"error: {error}"
            return
        for statement in statements:
            if isinstance(statement, ParsedQuery):
                yield from self._answer(statement)
            elif isinstance(statement, ParsedIC):
                try:
                    self.ics.append(from_parsed(statement))
                    yield f"ic registered: {self.ics[-1]}"
                except ReproError as error:
                    yield f"error: {error}"
            elif isinstance(statement, Rule):
                if statement.is_fact:
                    self.edb.add_atom(statement.head)
                    self._server = None  # edited around the change log
                    yield f"fact stored: {statement}"
                else:
                    self.rules.append(statement)
                    self._optimized = None  # stale after edits
                    label = self.program.rules[-1].label
                    yield f"rule added [{label}]: {statement}"

    def _answer(self, query: ParsedQuery) -> Iterator[str]:
        from .datalog.atoms import Atom

        if query.literals and isinstance(query.literals[0], Atom):
            self._last_query = query.literals[0]
        try:
            rows = sorted(self._serve(query.literals), key=str)
        except ReproError as error:
            yield f"error: {error}"
            return
        if not rows:
            yield "no."
        for row in rows:
            yield "  " + ", ".join(str(value) for value in row)
        if rows:
            yield f"{len(rows)} answer(s)."

    def _session(self):
        """The warm serving session, created lazily over the EDB."""
        if self._server is None:
            from .serving import StalenessBound, ThreadedServer

            self._server = ThreadedServer(
                db=self.edb, staleness=StalenessBound(max_lag=0))
        return self._server

    def _serve(self, literals) -> set[tuple]:
        """Answer from a current snapshot of the serving session.

        The first query after a cold start or an out-of-band EDB edit
        pays a full materialization; queries after ``.update`` pay only
        incremental maintenance of the view.  The view is refreshed
        here rather than inside ``read`` so that an evaluation error
        reaches the user as itself.
        """
        server = self._session()
        server.view(self.program).refresh()
        return server.read(self.program, literals).rows

    # -- meta commands -------------------------------------------------------
    def _meta(self, line: str) -> Iterator[str]:
        command, _, argument = line.partition(" ")
        argument = argument.strip()
        handler = {
            ".program": self._cmd_program,
            ".ics": self._cmd_ics,
            ".facts": self._cmd_facts,
            ".load": self._cmd_load,
            ".csv": self._cmd_csv,
            ".update": self._cmd_update,
            ".validate": self._cmd_validate,
            ".lint": self._cmd_lint,
            ".residues": self._cmd_residues,
            ".optimize": self._cmd_optimize,
            ".original": self._cmd_original,
            ".explain": self._cmd_explain,
            ".describe": self._cmd_describe,
            ".reset": self._cmd_reset,
            ".help": self._cmd_help,
        }.get(command)
        if handler is None:
            yield f"unknown command {command}; try .help"
            return
        try:
            yield from handler(argument)
        except ReproError as error:
            yield f"error: {error}"
        except FileNotFoundError as error:
            yield f"error: {error}"

    def _cmd_program(self, _: str) -> Iterator[str]:
        if not self.rules:
            yield "(no rules)"
            return
        tag = " (optimized)" if self._optimized is not None else ""
        yield f"% program{tag}"
        yield format_program(self.program, group_by_head=True)

    def _cmd_ics(self, _: str) -> Iterator[str]:
        if not self.ics:
            yield "(no integrity constraints)"
        for ic in self.ics:
            yield str(ic)

    def _cmd_facts(self, argument: str) -> Iterator[str]:
        predicates = [argument] if argument else sorted(self.edb)
        empty = True
        for pred in predicates:
            for row in sorted(self.edb.facts(pred), key=str):
                empty = False
                yield f"{pred}({', '.join(str(v) for v in row)})."
        if empty:
            yield "(no facts)"

    def _cmd_load(self, argument: str) -> Iterator[str]:
        if not argument:
            yield "usage: .load FILE"
            return
        with open(argument, "r", encoding="utf-8") as handle:
            text = handle.read()
        yield from self._statements(text)

    def _cmd_csv(self, argument: str) -> Iterator[str]:
        parts = argument.split()
        if len(parts) != 2:
            yield "usage: .csv PRED FILE"
            return
        pred, path = parts
        added = load_csv(self.edb, pred, path)
        self._server = None  # edited around the change log
        yield f"{added} fact(s) loaded into {pred}"

    def _cmd_update(self, argument: str) -> Iterator[str]:
        from .facts.changelog import Changeset

        if not argument:
            yield "usage: .update +pred(args). -pred(args). (or a FILE)"
            return
        text = argument
        if not argument.lstrip().startswith(("+", "-")):
            with open(argument, "r", encoding="utf-8") as handle:
                text = handle.read()
        changeset = Changeset.from_text(text)
        if changeset.is_empty:
            yield "(empty changeset)"
            return
        server = self._session()
        dropped = server.dropped_changesets
        server.update(changeset)
        if server.dropped_changesets > dropped:
            yield f"error: {server.last_error}"
            return
        yield (f"applied +{changeset.total_inserts()}"
               f"/-{changeset.total_deletes()} -> v{server.version}")
        if not server.views:
            yield "(no views)"
        for key, view in list(server.views.items()):
            yield f"view {key[0]}: " \
                  f"{view.last_mode if view.valid else 'invalid'}"
        if server.health != HealthState.HEALTHY:
            yield f"{server.health}: {server.last_error}"

    def _cmd_validate(self, _: str) -> Iterator[str]:
        yield validate_program(self.program).summary()

    def _cmd_lint(self, argument: str) -> Iterator[str]:
        from .analysis import lint_program

        query = self._last_query
        if argument:
            query = parse_atom(argument)
        report = lint_program(self.program, ics=tuple(self.ics),
                              query=query)
        if report.clean:
            yield "no findings"
            return
        for diagnostic in report:
            yield diagnostic.render()
        yield report.summary()

    def _cmd_residues(self, _: str) -> Iterator[str]:
        if not self.ics:
            yield "(no integrity constraints)"
            return
        optimizer = self._optimizer()
        items = [item for ic in self.ics
                 for item in optimizer.residues(ic)]
        if not items:
            yield "(no residues)"
        for item in items:
            yield str(item)

    def _cmd_optimize(self, _: str) -> Iterator[str]:
        if not self.ics:
            yield "(no integrity constraints to push)"
            return
        report = self._optimizer().optimize()
        yield report.summary()
        if report.changed:
            self._optimized = report.optimized
            yield "switched to the optimized program (.original reverts)"

    def _optimizer(self) -> SemanticOptimizer:
        return SemanticOptimizer(Program(self.rules), self.ics)

    def _cmd_original(self, _: str) -> Iterator[str]:
        self._optimized = None
        yield "using the original program"

    def _cmd_explain(self, argument: str) -> Iterator[str]:
        if not argument:
            yield "usage: .explain pred(c1, ...)"
            return
        goal = parse_atom(argument)
        derivation = explain(self.program, self.edb, goal)
        if derivation is None:
            yield f"{goal} is not derivable"
        else:
            yield derivation.render()

    def _cmd_describe(self, argument: str) -> Iterator[str]:
        query = parse_describe(f".describe {argument}".replace(
            ".describe", "describe", 1))
        result = describe(self.program, query, ics=tuple(self.ics))
        yield result.summary()

    def _cmd_reset(self, _: str) -> Iterator[str]:
        self.__init__()
        yield "cleared"

    def _cmd_help(self, _: str) -> Iterator[str]:
        yield __doc__.split("meta-commands begin with a dot:")[-1].strip()


def run(lines: Iterable[str]) -> list[str]:
    """Run the shell over a sequence of input lines (for scripting/tests)."""
    shell = Shell()
    output: list[str] = []
    for line in lines:
        if line.strip() in (".quit", ".exit"):
            break
        output.extend(shell.handle(line))
    return output


def interactive() -> int:  # pragma: no cover - needs a terminal
    """The interactive loop used by ``python -m repro shell``."""
    shell = Shell()
    print("repro shell — .help for commands, .quit to leave")
    while True:
        try:
            line = input(PROMPT)
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if line.strip() in (".quit", ".exit"):
            return 0
        for out in shell.handle(line):
            print(out)
