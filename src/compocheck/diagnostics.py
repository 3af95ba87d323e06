"""Structured diagnostics shared by the integrity checks, the rule engine and the CLI."""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .records import record


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


class SourceSpan(namedtuple("SourceSpan", "file line column")):
    """Position of a model element in its source file (1-based line/column)."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@record
class Diagnostic:
    """One finding: stable code, severity, offending element path and explanation.

    ``subject`` and ``related`` use element paths: ``A`` (classifier),
    ``A.pIJL`` (port or part of class A), ``A#0`` (connector 0 of class A).
    """

    code: str
    severity: Severity
    subject: str
    message: str
    related: list[str] = []

    def sort_key(self) -> tuple[str, str]:
        return (self.subject, self.code)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "subject": self.subject,
            "message": self.message,
            "related": list(self.related),
        }

    def render(self) -> str:
        rel = f" (related: {', '.join(self.related)})" if self.related else ""
        return f"{self.code} {self.severity.value}: {self.subject}: {self.message}{rel}"


def error(code: str, subject: str, message: str, related: list[str] | None = None) -> Diagnostic:
    return Diagnostic(code, Severity.ERROR, subject, message, related or [])
