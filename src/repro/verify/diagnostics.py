"""Diagnostic records produced by the static verification layer.

Every check in :mod:`repro.verify` reports a :class:`Diagnostic` instead of
raising: a stable machine-readable code (``IR007``, ``PART003``, ``P4L005``
...), a severity, the verification stage that produced it, and — whenever
the offending IR instruction carries one — a source span, so a partitioner
bug surfaces as ``fw.cc:12:4: error PART003: ...``.  The fail-fast
validators (``validate_function``, ``SwitchProgram.validate``) raise the
:func:`first_error` of the same checks.  A :class:`VerificationReport`
aggregates the diagnostics for one program and serializes to the JSON
schema CI consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.lang.diagnostics import SourceLocation

#: Stage identifiers, in pipeline order.
STAGE_IR = "ir"
STAGE_PARTITION = "partition"
STAGE_P4LINT = "p4lint"
STAGE_TENANCY = "tenancy"
STAGE_SYMBOLIC = "symbolic"

#: code -> one-line description, the authoritative registry (docs render it).
DIAGNOSTIC_CODES: Dict[str, str] = {
    # Stage 1 — IR verifier (structural well-formedness).
    "IR001": "entry block missing from function",
    "IR002": "empty basic block",
    "IR003": "block does not end with a terminator",
    "IR004": "terminator in the middle of a block body",
    "IR005": "branch or jump to an unknown block",
    "IR006": "temporary assigned more than once (SSA violation)",
    "IR007": "register may be read before any definition",
    "IR008": "unreachable block silently dropped from the CFG",
    "IR009": "operand type inconsistency",
    "IR010": "extern call does not match its declared signature",
    # Stage 2 — partition invariants (paper §4.1–§4.3).
    "PART001": "state written both in an offloaded partition and on the server",
    "PART002": "offloaded write to state the server also reads",
    "PART003": "dependency edge flows backward across partitions",
    "PART004": "value live across a partition boundary missing from the shim",
    "PART005": "shim header exceeds the per-direction transfer budget",
    "PART006": "switch-side register write incompatible with cached deployment",
    "PART007": "branch condition written again after its branch on the switch",
    # Stage 3 — P4 resource lint (paper §2.2 constraints 1-5).
    "P4L001": "instruction not expressible in a P4 pipeline",
    "P4L002": "state access not backed by a switch table or register",
    "P4L003": "stateful element accessed more than once per pipeline",
    "P4L004": "control-flow loop in a switch pipeline",
    "P4L005": "table memory exceeds the switch memory budget (constraint 1)",
    "P4L006": "dependency chain exceeds the pipeline depth (constraint 2)",
    "P4L007": "per-packet metadata exceeds the scratchpad (constraint 4)",
    "P4L008": "register wider than the 64-bit ALU datapath",
    "P4L009": "more tables applied than physical pipeline stages",
    "P4L010": "action complexity: oversized straight-line block",
    # Stage 4 — multi-tenant combined-artifact lint (shared-budget
    # admission, repro.tenancy).
    "TEN001": "tenant rejected by the shared-switch resource allocator",
    "TEN002": "combined artifact exceeds a shared-switch budget axis",
    "TEN004": "tenant namespaces collide on the shared switch",
    # Stage 5 — translation validation (symbolic equivalence prover,
    # repro.verify.symbolic).
    "SYM001": "verdict mismatch between source and composed deployment",
    "SYM002": "egress-port mismatch on an emitted packet",
    "SYM003": "header-field mismatch on an emitted packet",
    "SYM004": "state-write mismatch after processing",
    "SYM005": "replicated switch copy diverges from the server master",
    "SYM006": "composition crashes where the source program does not",
    "SYM007": "path-condition unsoundness: counterexample replays equivalent",
    "SYM008": "symbolic budget exhausted — equivalence inconclusive",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static verifier."""

    code: str
    severity: str  # "error" | "warning"
    stage: str  # STAGE_IR | STAGE_PARTITION | STAGE_P4LINT
    message: str
    function: Optional[str] = None
    block: Optional[str] = None
    location: Optional[SourceLocation] = None

    def format(self) -> str:
        span = ""
        if self.location is not None and self.location.line:
            span = f"{self.location}: "
        where = ""
        if self.function:
            where = f" [{self.function}" + (f"/{self.block}]" if self.block else "]")
        return f"{span}{self.severity} {self.code}: {self.message}{where}"

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "stage": self.stage,
            "message": self.message,
        }
        if self.function:
            out["function"] = self.function
        if self.block:
            out["block"] = self.block
        if self.location is not None and self.location.line:
            out["location"] = {
                "file": self.location.filename,
                "line": self.location.line,
                "column": self.location.column,
            }
        return out


@dataclass
class VerificationReport:
    """All diagnostics the three stages produced for one program."""

    program: str
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def extend(self, diagnostics: List[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def format(self) -> str:
        if not self.diagnostics:
            return f"{self.program}: verification OK"
        lines = [d.format() for d in self.diagnostics]
        verdict = "OK" if self.ok else "FAILED"
        lines.append(
            f"{self.program}: verification {verdict}"
            f" ({len(self.errors)} errors, {len(self.warnings)} warnings)"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "program": self.program,
            "ok": self.ok,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


class VerificationError(Exception):
    """Compilation rejected by the static verifier."""

    def __init__(self, report: VerificationReport):
        self.report = report
        super().__init__(report.format())


def first_error(diagnostics: Iterable[Diagnostic]) -> Optional[Diagnostic]:
    """The diagnostic a fail-fast validator raises, if there is one."""
    return next((d for d in diagnostics if d.severity == "error"), None)


def error(
    code: str,
    stage: str,
    message: str,
    function: Optional[str] = None,
    block: Optional[str] = None,
    location: Optional[SourceLocation] = None,
) -> Diagnostic:
    assert code in DIAGNOSTIC_CODES, code
    return Diagnostic(code, "error", stage, message, function, block, location)


def warning(
    code: str,
    stage: str,
    message: str,
    function: Optional[str] = None,
    block: Optional[str] = None,
) -> Diagnostic:
    assert code in DIAGNOSTIC_CODES, code
    return Diagnostic(code, "warning", stage, message, function, block)
