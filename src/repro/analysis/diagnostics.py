"""The diagnostics data model: codes, severities, spans, reports.

A :class:`Diagnostic` is one finding of an analysis pass: a stable code
(``RR001``, ``STRAT001``, ``PERF002``, ...), a severity, a message, and
— when the analysed program came from the parser — a :class:`Span`
pointing at the offending source text.  An :class:`AnalysisReport`
collects the findings of a whole run, renders them as text (optionally
with caret-annotated source excerpts) or JSON, and decides the lint
exit status (errors fail, warnings do not).

Severities:

- ``error`` — the program violates an assumption the engines or the
  optimizer *enforce*; evaluation or optimization would raise.
- ``warning`` — suspicious but executable: the paper's connectivity
  assumption, probable typos (singleton variables), guaranteed
  cross-product joins.
- ``info`` — advisory perf or applicability notes (a recursive rule
  without a generated kernel, an IC outside Algorithm 3.1's class).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from ..datalog.spans import Span, caret_excerpt

#: Severity levels, most severe first.
SEVERITIES: tuple[str, ...] = ("error", "warning", "info")

_SEVERITY_RANK: Mapping[str, int] = {name: rank
                                     for rank, name in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of an analysis pass.

    Attributes:
        code: stable machine-readable code, e.g. ``RR001``; codes never
            change meaning across releases (new codes are appended).
        severity: one of :data:`SEVERITIES`.
        message: the human-readable finding, complete on its own.
        span: source range of the offending construct, when known.
        rule_label: the rule the finding is about, when rule-scoped.
        subject: the predicate or IC label the finding is about.
        pass_name: the registry name of the pass that produced it.
    """

    code: str
    severity: str
    message: str
    span: Span | None = None
    rule_label: str | None = None
    subject: str | None = None
    pass_name: str = ""

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}; "
                             f"expected one of {SEVERITIES}")

    @property
    def location(self) -> str:
        """``line:column`` when the span is known, else the rule label."""
        if self.span is not None:
            return str(self.span)
        if self.rule_label:
            return self.rule_label
        return "-"

    def render(self, source: str | None = None) -> str:
        """One finding as text; with ``source``, adds a caret excerpt."""
        scope = f" [{self.rule_label}]" if self.rule_label else ""
        line = (f"{self.location}: {self.severity} {self.code}:"
                f"{scope} {self.message}")
        if source is not None and self.span is not None:
            excerpt = caret_excerpt(source, self.span)
            if excerpt:
                line += "\n" + excerpt
        return line

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready mapping; round-trips through :meth:`from_dict`."""
        data: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "span": self.span.to_dict() if self.span is not None else None,
            "rule": self.rule_label,
            "subject": self.subject,
            "pass": self.pass_name,
        }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Diagnostic":
        span = data.get("span")
        return cls(code=data["code"], severity=data["severity"],
                   message=data["message"],
                   span=Span.from_dict(span) if span else None,
                   rule_label=data.get("rule"),
                   subject=data.get("subject"),
                   pass_name=data.get("pass", ""))

    def _sort_key(self) -> tuple[int, int, int, str, str]:
        line = self.span.line if self.span is not None else 1 << 30
        column = self.span.column if self.span is not None else 0
        return (_SEVERITY_RANK[self.severity], line, column, self.code,
                self.message)


@dataclass
class AnalysisReport:
    """All findings of one analysis run, ordered and renderable."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: The source text the program was parsed from, for excerpts.
    source: str | None = None

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def extend(self, findings: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(findings)

    def sort(self) -> None:
        self.diagnostics.sort(key=Diagnostic._sort_key)

    # -- classification ------------------------------------------------------
    def by_severity(self, severity: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity("error")

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity("warning")

    @property
    def has_errors(self) -> bool:
        return any(d.severity == "error" for d in self.diagnostics)

    @property
    def ok(self) -> bool:
        """No error-severity findings (warnings and infos allowed)."""
        return not self.has_errors

    @property
    def clean(self) -> bool:
        """No findings at all."""
        return not self.diagnostics

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def counts(self) -> dict[str, int]:
        out = {severity: 0 for severity in SEVERITIES}
        for diagnostic in self.diagnostics:
            out[diagnostic.severity] += 1
        return out

    # -- rendering -----------------------------------------------------------
    def render(self, with_excerpts: bool = True) -> str:
        """The whole report as text, one finding per paragraph."""
        if not self.diagnostics:
            return "no findings"
        source = self.source if with_excerpts else None
        lines = [d.render(source) for d in self.diagnostics]
        counts = self.counts()
        summary = ", ".join(f"{count} {severity}{'s' if count != 1 else ''}"
                            for severity, count in counts.items() if count)
        lines.append(summary)
        return "\n".join(lines)

    def summary(self) -> str:
        """A one-line roll-up, e.g. ``2 errors, 1 warning``."""
        counts = self.counts()
        parts = [f"{count} {severity}{'s' if count != 1 else ''}"
                 for severity, count in counts.items() if count]
        return ", ".join(parts) if parts else "no findings"

    def to_dict(self) -> dict[str, Any]:
        return {"diagnostics": [d.to_dict() for d in self.diagnostics],
                "counts": self.counts(),
                "ok": self.ok}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnalysisReport":
        return cls(diagnostics=[Diagnostic.from_dict(item)
                                for item in data["diagnostics"]])
