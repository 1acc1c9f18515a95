"""Tier-1 gate: the repo's own source passes its own static analysis.

Runs the full rule set over the installed ``repro`` package and asserts
zero unsuppressed findings — every waiver must be an explicit
``# repro: allow[rule-id]`` comment with a justification next to it.
"""

import io
import os
import re
import tokenize

import repro
from repro.analysis import LintEngine, render_text, run_lint
from repro.analysis.rules import ALL_RULE_CLASSES

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def test_repro_package_self_lints_clean():
    findings = run_lint([PACKAGE_DIR])
    unsuppressed = [f for f in findings if not f.suppressed]
    assert unsuppressed == [], "\n" + render_text(unsuppressed)


def test_self_lint_exercises_every_rule_pack():
    # The gate is only meaningful if all four packs actually ran.
    rule_ids = {rule.rule_id for rule in LintEngine().rules}
    assert any(r.startswith("DET-") for r in rule_ids)
    assert any(r.startswith("PROTO-") for r in rule_ids)
    assert any(r.startswith("CONC-") for r in rule_ids)
    assert any(r.startswith("FLOW-") for r in rule_ids)
    assert len(rule_ids) >= 17


def test_existing_suppressions_carry_justifications():
    # A waiver without a reason is indistinguishable from a silenced bug:
    # every allow[...] comment must say *why* on the same or previous line.
    # It must also name a registered rule (or ``*``): a waiver for a
    # deleted rule silences nothing and only misleads the reader.
    pattern = re.compile(r"#\s*repro:\s*allow\[[^\]]+\]\s*(?P<why>.*)")
    waiver = re.compile(r"#\s*repro:\s*allow\[(?P<ids>[^\]]+)\]")
    known_ids = {cls.rule_id for cls in ALL_RULE_CLASSES} | {"*"}
    for dirpath, dirnames, filenames in os.walk(PACKAGE_DIR):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
            for lineno, line in enumerate(lines, start=1):
                match = pattern.search(line)
                if match is None:
                    continue
                why = match.group("why").strip()
                previous = lines[lineno - 2].strip() if lineno >= 2 else ""
                has_context = bool(why) or previous.startswith("#")
                assert has_context, (
                    f"{path}:{lineno} suppression lacks a justification"
                )
            # Comment tokens only: docstrings quote the allow[...] syntax.
            tokens = tokenize.generate_tokens(io.StringIO("".join(lines)).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                match = waiver.search(token.string)
                if match is None:
                    continue
                ids = {part.strip() for part in match.group("ids").split(",")}
                assert ids <= known_ids, (
                    f"{path}:{token.start[0]} waives unregistered rule(s) "
                    f"{sorted(ids - known_ids)}"
                )
