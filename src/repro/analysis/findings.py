"""Lint findings: what a rule reports and how it serializes.

A :class:`Finding` pins one defect to a ``file:line`` location, names the
rule that produced it, and carries a human-readable message.  Findings are
value objects — the engine marks suppressed ones (``# repro: allow[...]``
comments) rather than dropping them, so reporters can show both views and
the JSON output round-trips losslessly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Tuple

__all__ = ["Severity", "Finding"]


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings break determinism, protocol completeness, or
    deadlock freedom outright; ``WARNING`` findings come from heuristic
    rules that can over-approximate; ``INFO`` findings are advisory.
    The default CLI gate fails on any unsuppressed finding at warning or
    above — a warning that is truly fine should carry an explicit
    suppression with a justification.
    """

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        """Severities ordered for threshold gates (info < warning < error)."""
        return _SEVERITY_RANK[self]


_SEVERITY_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    severity: Severity
    path: str
    line: int
    message: str
    suppressed: bool = field(default=False, compare=False)
    #: line numbers along the offending control/call path (flow rules);
    #: empty for per-node rules.  ``path`` being the file path already,
    #: this serializes as ``flow_path`` in JSON.
    flow_path: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.rule_id:
            raise ValueError("rule_id must be non-empty")
        if self.line < 1:
            raise ValueError(f"line must be >= 1, got {self.line}")

    @property
    def location(self) -> str:
        """``path:line`` — clickable in most terminals and editors."""
        return f"{self.path}:{self.line}"

    def with_suppressed(self, suppressed: bool) -> "Finding":
        """A copy with the suppression flag set."""
        return replace(self, suppressed=suppressed)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "suppressed": self.suppressed,
            "flow_path": list(self.flow_path),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Finding":
        """Rebuild a finding from :meth:`to_dict` output."""
        return cls(
            rule_id=data["rule_id"],
            severity=Severity(data["severity"]),
            path=data["path"],
            line=int(data["line"]),
            message=data["message"],
            suppressed=bool(data.get("suppressed", False)),
            flow_path=tuple(int(n) for n in data.get("flow_path", ())),
        )

    def render(self) -> str:
        """One-line text form: ``path:line: severity [rule] message``.

        Flow findings append the offending path compactly, e.g.
        ``(path: L12 -> L15 -> L22)``.
        """
        mark = " (suppressed)" if self.suppressed else ""
        trail = ""
        if self.flow_path:
            trail = " (path: " + " -> ".join(f"L{n}" for n in self.flow_path) + ")"
        return (
            f"{self.location}: {self.severity.value} "
            f"[{self.rule_id}] {self.message}{trail}{mark}"
        )
