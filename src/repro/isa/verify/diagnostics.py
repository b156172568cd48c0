"""Diagnostic records produced by the RISC-A kernel verifier.

Every checker reports :class:`Diagnostic` instances; the set of records for
one program is a :class:`VerifyResult`.  Results render to the
``repro.isa.verify/1`` JSON schema (validated by
:func:`repro.obs.schema.validate_lint`) and fold into the metrics registry
as ``lint.diagnostics{checker,severity}`` counters, so lint output flows
through the same observability pipeline as simulator metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

LINT_SCHEMA = "repro.isa.verify/1"

#: Severity names in increasing order of badness.
SEVERITIES = ("info", "warning", "error")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


def severity_rank(severity: str) -> int:
    """Numeric rank of a severity name (higher is worse)."""
    try:
        return _SEVERITY_RANK[severity]
    except KeyError:
        raise ValueError(
            f"unknown severity {severity!r}; pick from {SEVERITIES}"
        ) from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a checker id, a severity, and a program location.

    ``index`` is the instruction index the finding anchors to (``None`` for
    whole-program findings such as an undeclared feature set).
    ``instruction`` carries the rendered instruction text so reports stay
    readable without the program at hand.  ``detail`` holds checker-specific
    structured fields (register numbers, table ids, ...).
    """

    checker: str
    severity: str
    message: str
    index: int | None = None
    instruction: str | None = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        severity_rank(self.severity)  # validate eagerly

    def as_dict(self) -> dict:
        document = {
            "checker": self.checker,
            "severity": self.severity,
            "message": self.message,
            "index": self.index,
        }
        if self.instruction is not None:
            document["instruction"] = self.instruction
        if self.detail:
            document["detail"] = dict(self.detail)
        return document

    def render(self) -> str:
        where = "-" if self.index is None else f"#{self.index}"
        text = f" `{self.instruction}`" if self.instruction else ""
        return f"[{self.severity}] {self.checker} {where}:{text} {self.message}"


@dataclass
class VerifyResult:
    """All diagnostics for one program, plus identifying metadata."""

    name: str
    instructions: int
    diagnostics: list[Diagnostic]
    #: Static critical-path lower bound in cycles (None when not computed).
    critical_path: int | None = None

    def by_severity(self, severity: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity("error")

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity("warning")

    def worst_severity(self) -> str | None:
        if not self.diagnostics:
            return None
        return max(
            (d.severity for d in self.diagnostics), key=severity_rank
        )

    def at_or_above(self, severity: str) -> list[Diagnostic]:
        """Diagnostics whose severity is >= ``severity``."""
        floor = severity_rank(severity)
        return [
            d for d in self.diagnostics if severity_rank(d.severity) >= floor
        ]

    def summary(self) -> dict:
        counts = {name: 0 for name in SEVERITIES}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity] += 1
        return counts

    def as_dict(self) -> dict:
        document = {
            "program": self.name,
            "instructions": self.instructions,
            "summary": self.summary(),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }
        if self.critical_path is not None:
            document["critical_path_cycles"] = self.critical_path
        return document


def lint_document(results: list[VerifyResult], *, tool: str = "repro.tools.lint") -> dict:
    """Render verify results as a ``repro.isa.verify/1`` report document."""
    return {
        "schema": LINT_SCHEMA,
        "generated_by": tool,
        "programs": [result.as_dict() for result in results],
    }


class VerificationError(ValueError):
    """Raised by the opt-in ``verify=`` hooks when a program fails lint.

    Carries the offending :class:`VerifyResult` so callers can inspect the
    individual diagnostics programmatically.
    """

    def __init__(self, result: VerifyResult, threshold: str):
        self.result = result
        self.threshold = threshold
        offending = result.at_or_above(threshold)
        lines = [
            f"{result.name}: {len(offending)} diagnostic(s) at or above "
            f"{threshold!r}:"
        ]
        lines.extend(f"  {d.render()}" for d in offending[:20])
        if len(offending) > 20:
            lines.append(f"  ... and {len(offending) - 20} more")
        super().__init__("\n".join(lines))
