"""Condition-check reports shared by the checkers, the analysis helpers and
the verification pipeline."""

from __future__ import annotations

from .record import field, record


@record(frozen=True)
class Finding:
    clause: str
    message: str
    where: str = ""

    def render(self) -> str:
        loc = f" [{self.where}]" if self.where else ""
        return f"({self.clause}){loc} {self.message}"


@record
class ConditionReport:
    """Outcome of one condition check.

    verdict is 'pass', 'fail', or 'evidence' (a semantic property that can
    only be sampled, never proved, by this tool).
    """

    name: str
    verdict: str
    findings: list[Finding] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return self.verdict in ("pass", "evidence")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "findings": [
                {"clause": f.clause, "where": f.where, "message": f.message}
                for f in self.findings
            ],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        head = f"{self.name}: {self.verdict}"
        lines = [head]
        lines += ["  " + f.render() for f in self.findings]
        lines += ["  note: " + n for n in self.notes]
        return "\n".join(lines)
