"""Validation reports and shared error types.

Validators never raise on bad mathematical content: every broken axiom
becomes a ``Violation`` naming the offending identifiers, so callers can
render complete diagnostics.  Exceptions are reserved for malformed
construction data (``StructureError``), refused preconditions
(``PreconditionError``) and unreadable documents (``DocumentError``).
"""
from __future__ import annotations

from dataclasses import dataclass, field


class StructureError(ValueError):
    """Construction input is malformed (unknown identifiers, bad shapes)."""


class PreconditionError(RuntimeError):
    """An operation refused to run because a stated hypothesis fails."""


class DocumentError(ValueError):
    """A JSON document could not be parsed or does not match its schema."""


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


@dataclass
class ValidationReport:
    subject: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, detail: str) -> None:
        self.violations.append(Violation(code, detail))

    def merge(self, other: "ValidationReport") -> None:
        self.violations.extend(other.violations)

    @classmethod
    def merged(cls, subject: str, reports) -> "ValidationReport":
        """Every violation of ``reports``, in their order, as one report on ``subject``."""
        return cls(subject, [v for rep in reports for v in rep.violations])

    def raise_if_invalid(self) -> None:
        if not self.ok:
            lines = "; ".join(f"{v.code}: {v.detail}" for v in self.violations)
            raise StructureError(f"{self.subject} invalid: {lines}")

    def to_doc(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "violations": [{"code": v.code, "detail": v.detail} for v in self.violations],
        }

    def __str__(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        body = "\n".join(f"  {v.code}: {v.detail}" for v in self.violations)
        return f"{self.subject}: {len(self.violations)} violation(s)\n{body}"


def first_failure(reports) -> ValidationReport | None:
    """The first report of a stage list that is not ok, or None; no later stage runs."""
    return next((rep for rep in reports if not rep.ok), None)
