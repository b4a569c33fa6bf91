"""Finding and report types shared by every static-checker pass.

Every finding carries a *fingerprint*: a stable hash of the identity
coordinates (pass x rule x function x unit x block) that survives
unrelated edits shifting instruction indices.  ``lint --json`` output
is sorted deterministically and fingerprinted, so CI can diff reports
across runs and keep them as baselines; :func:`sarif_document` derives
a SARIF 2.1.0 view from the same records.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.instructions import Instruction


class Severity(enum.Enum):
    """How bad a finding is.

    ERROR findings are violations of CGCM's correctness invariants
    (the static counterparts of the sanitizer's violation taxonomy);
    WARNING findings are suspicious-but-not-provably-wrong shapes and
    missed-optimization diagnostics; NOTE findings record what the
    checker could not verify.
    """

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "note": 2}[self.value]


@dataclass(frozen=True)
class Finding:
    """One diagnostic: which pass, what kind, where."""

    pass_name: str      #: "mapstate" | "hbcheck" | "transval" | ...
    kind: str           #: stable slug, e.g. "launch-unmapped"
    severity: Severity
    function: str       #: enclosing function name ("" for module-level)
    block: str          #: block name ("" for function/module-level)
    block_position: int  #: index of the block in the function (-1 n/a)
    index: int          #: instruction index within the block (-1 n/a)
    message: str
    #: The allocation unit (or pipeline stage, for translation
    #: validation) the finding is about; part of the fingerprint.
    unit: str = ""

    @property
    def location(self) -> str:
        if not self.function:
            return "<module>"
        if not self.block:
            return f"@{self.function}"
        return f"@{self.function}/{self.block}#{self.index}"

    @property
    def fingerprint(self) -> str:
        """Stable identity hash: pass x rule x function x unit x block.

        Deliberately excludes the instruction index and message text,
        so unrelated edits that shift positions (or reword diagnostics)
        keep the fingerprint -- ``lint --json`` diffs stay usable as CI
        baselines.  Uses sha1 (not Python's randomized ``hash``) so the
        value is identical across processes and platforms.
        """
        identity = "\x1f".join((self.pass_name, self.kind, self.function,
                                self.unit, self.block))
        return hashlib.sha1(identity.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        return (f"{self.severity.value}[{self.pass_name}] "
                f"{self.location}: {self.kind}: {self.message}")

    def to_json(self) -> Dict[str, object]:
        return {
            "pass": self.pass_name,
            "kind": self.kind,
            "severity": self.severity.value,
            "function": self.function,
            "block": self.block,
            "index": self.index,
            "unit": self.unit,
            "fingerprint": self.fingerprint,
            "message": self.message,
        }

    def sort_key(self) -> Tuple:
        return (self.function, self.block_position, self.index,
                self.severity.rank, self.pass_name, self.kind,
                self.unit, self.message)


def finding_at(pass_name: str, kind: str, severity: Severity,
               inst: Instruction, message: str,
               unit: str = "") -> Finding:
    """A finding anchored at one instruction."""
    block = inst.parent
    fn = block.parent if block is not None else None
    if block is None or fn is None:
        return Finding(pass_name, kind, severity, "", "", -1, -1, message,
                       unit)
    return Finding(pass_name, kind, severity, fn.name, block.name,
                   fn.blocks.index(block), block.index(inst), message, unit)


class LintReport:
    """All findings of one lint run over one module."""

    def __init__(self, module_name: str, findings: List[Finding],
                 passes_run: Optional[List[str]] = None):
        self.module_name = module_name
        self.findings = sorted(findings, key=Finding.sort_key)
        self.passes_run = list(passes_run or [])

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def clean(self) -> bool:
        """No errors (warnings and notes do not fail a lint run)."""
        return not self.errors

    def by_kind(self, kind: str) -> List[Finding]:
        return [f for f in self.findings if f.kind == kind]

    def summary(self) -> str:
        errors = len(self.errors)
        warnings = len(self.warnings)
        notes = len(self.findings) - errors - warnings
        verdict = "clean" if self.clean else "FAIL"
        return (f"{self.module_name}: {verdict} "
                f"({errors} errors, {warnings} warnings, {notes} notes)")

    def render(self, max_notes: Optional[int] = None) -> str:
        lines = []
        notes_shown = 0
        suppressed = 0
        for finding in self.findings:
            if finding.severity is Severity.NOTE and max_notes is not None:
                notes_shown += 1
                if notes_shown > max_notes:
                    suppressed += 1
                    continue
            lines.append("  " + finding.render())
        if suppressed:
            lines.append(f"  ... and {suppressed} more notes")
        lines.append(self.summary())
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "module": self.module_name,
            "clean": self.clean,
            "passes": self.passes_run,
            "findings": [f.to_json() for f in self.findings],
        }

    def to_sarif_run(self) -> Dict[str, object]:
        """This report as one SARIF 2.1.0 ``run`` object."""
        rules: List[Dict[str, object]] = []
        rule_ids: List[str] = []
        for finding in self.findings:
            rule = f"{finding.pass_name}/{finding.kind}"
            if rule not in rule_ids:
                rule_ids.append(rule)
                rules.append({"id": rule,
                              "name": finding.kind,
                              "properties": {"pass": finding.pass_name}})
        results = []
        for finding in self.findings:
            qualified = self.module_name
            if finding.function:
                qualified += f"::{finding.function}"
            if finding.block:
                qualified += f"::{finding.block}#{finding.index}"
            results.append({
                "ruleId": f"{finding.pass_name}/{finding.kind}",
                "ruleIndex": rule_ids.index(
                    f"{finding.pass_name}/{finding.kind}"),
                "level": finding.severity.value,
                "message": {"text": finding.message},
                "partialFingerprints": {
                    "repro/finding/v1": finding.fingerprint},
                "locations": [{"logicalLocations": [{
                    "fullyQualifiedName": qualified,
                    "kind": "function" if finding.function else "module",
                }]}],
                "properties": {"unit": finding.unit,
                               "module": self.module_name},
            })
        return {
            "tool": {"driver": {
                "name": "repro-lint",
                "informationUri":
                    "https://dl.acm.org/doi/10.1145/1993498.1993516",
                "rules": rules,
            }},
            "results": results,
            "properties": {"module": self.module_name,
                           "passes": self.passes_run,
                           "clean": self.clean},
        }


def sarif_document(reports: List["LintReport"]) -> Dict[str, object]:
    """A SARIF 2.1.0 log: one run per linted module.

    Derived from the same :class:`Finding` records as the human and
    ``--json`` formats; the per-finding fingerprint rides along as a
    SARIF partial fingerprint so result matching across runs works the
    same way in both formats.
    """
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [report.to_sarif_run() for report in reports],
    }
