"""Shared ``--fail-on`` exit-code policy for every analysis command.

``repro lint``, ``repro sanitize``, and ``repro modelcheck`` all gate CI
the same way: findings are collected, then one policy decides the exit
code.  ``never`` always exits 0 (report-only mode); the other policies
are severity thresholds: ``info`` fails on any unsuppressed finding,
``warning`` (the default) on warnings and errors, ``error`` only on
:attr:`~repro.analysis.findings.Severity.ERROR` findings.  Info-level
findings therefore report under the default gate without failing it.
"""

from __future__ import annotations

import argparse
from typing import Sequence, Tuple

from repro.analysis.findings import Finding, Severity

__all__ = ["FAIL_ON_CHOICES", "add_fail_on_argument", "gate_exit_code"]

#: The accepted ``--fail-on`` policies, loosest first.
FAIL_ON_CHOICES: Tuple[str, ...] = ("never", "info", "warning", "error")


def add_fail_on_argument(parser: argparse.ArgumentParser, default: str = "warning") -> None:
    """Attach the standard ``--fail-on`` option to ``parser``."""
    parser.add_argument(
        "--fail-on",
        choices=FAIL_ON_CHOICES,
        default=default,
        help=(
            "exit non-zero on findings at or above this severity "
            "('never' always exits 0; default: %(default)s)"
        ),
    )


def gate_exit_code(findings: Sequence[Finding], fail_on: str) -> int:
    """The process exit code for ``findings`` under the ``fail_on`` policy.

    Suppressed findings (``# repro: allow[...]``) never trip the gate.
    The named policies are severity thresholds: ``info`` fails on any
    unsuppressed finding, ``warning`` on warnings and errors (advisory
    info findings report without failing), ``error`` lets warnings
    through so CI can gate hard defects while a warning backlog is being
    burned down, and ``never`` is report-only.
    """
    if fail_on not in FAIL_ON_CHOICES:
        raise ValueError(
            f"unknown fail-on policy {fail_on!r}; known: {', '.join(FAIL_ON_CHOICES)}"
        )
    if fail_on == "never":
        return 0
    threshold = Severity(fail_on).rank
    active = [
        f for f in findings
        if not f.suppressed and f.severity.rank >= threshold
    ]
    return 1 if active else 0
