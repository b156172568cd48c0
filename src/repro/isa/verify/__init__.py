"""Static verification for RISC-A programs (``repro.isa.verify``).

:func:`verify_program` is the front door: build the CFG and dataflow
solutions once, run the checker suite, and attach the static critical-path
lower bound.  See ``docs/lint.md`` for the checker catalogue and the
soundness argument behind the critical-path oracle.

Typical use::

    from repro.isa.verify import verify_program

    result = verify_program(program, features=Features.OPT, name="Blowfish")
    if result.errors:
        ...

The ``verify=`` hooks on :meth:`KernelBuilder.build` and
:func:`repro.isa.assembler.assemble` call :func:`enforce` with a severity
threshold ("warning" or "error") and raise :class:`VerificationError` when
any diagnostic meets it.
"""

from __future__ import annotations

from repro.isa.analysis.cfg import CFG, BasicBlock
from repro.isa.analysis.dataflow import ENTRY, Liveness, ReachingDefs
from repro.isa.analysis.passes import analyses_for
from repro.isa.features import Features
from repro.isa.program import Program
from repro.isa.verify.checkers import CHECKERS, VerifyContext
from repro.isa.verify.critical_path import (
    CriticalPath,
    critical_path,
    min_latencies,
)
from repro.isa.verify.diagnostics import (
    LINT_SCHEMA,
    SEVERITIES,
    Diagnostic,
    VerificationError,
    VerifyResult,
    lint_document,
    severity_rank,
)
from repro.isa.verify.ranges import (
    encoding_violations,
    rotate_amount_violations,
    validate_emit,
)

__all__ = [
    "BasicBlock", "CFG", "CHECKERS", "CriticalPath", "Diagnostic", "ENTRY",
    "Features", "LINT_SCHEMA", "Liveness", "ReachingDefs", "SEVERITIES",
    "VerificationError", "VerifyContext", "VerifyResult", "critical_path",
    "encoding_violations", "enforce", "lint_document", "min_latencies",
    "rotate_amount_violations", "severity_rank", "validate_emit",
    "verify_program",
]


def verify_program(
    program: Program,
    features: Features | None = None,
    name: str = "program",
    checkers: list[str] | None = None,
    with_critical_path: bool = True,
) -> VerifyResult:
    """Run the static verifier over a finalized program.

    ``features`` enables the feature-gate checker (pass the level the
    program claims to target); ``checkers`` restricts the suite to the
    named checker ids (default: all of :data:`CHECKERS`).  The result
    carries the critical-path lower bound for the DF machine unless
    ``with_critical_path`` is disabled.
    """
    if checkers is None:
        selected = list(CHECKERS)
    else:
        unknown = [c for c in checkers if c not in CHECKERS]
        if unknown:
            raise ValueError(
                f"unknown checker(s) {unknown}; pick from {sorted(CHECKERS)}"
            )
        selected = list(checkers)

    analyses = analyses_for(program)
    cfg = analyses.cfg
    rdefs = analyses.rdefs
    ctx = VerifyContext(
        program=program, cfg=cfg, rdefs=rdefs,
        liveness=analyses.liveness, features=features, analyses=analyses,
    )
    diagnostics: list[Diagnostic] = []
    for checker_id in selected:
        diagnostics.extend(CHECKERS[checker_id](ctx))
    diagnostics.sort(
        key=lambda d: (d.index if d.index is not None else -1, d.checker)
    )

    bound: int | None = None
    if with_critical_path:
        bound = critical_path(program, cfg=cfg, rdefs=rdefs).cycles
    return VerifyResult(
        name=name,
        instructions=len(program.instructions),
        diagnostics=diagnostics,
        critical_path=bound,
    )


def enforce(result: VerifyResult, threshold: str) -> VerifyResult:
    """Raise :class:`VerificationError` when any diagnostic meets ``threshold``.

    The shared backend of the ``verify=`` hooks; returns the result
    unchanged when the program is clean enough.
    """
    severity_rank(threshold)  # validate the name eagerly
    if result.at_or_above(threshold):
        raise VerificationError(result, threshold)
    return result
