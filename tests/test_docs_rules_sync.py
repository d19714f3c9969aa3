"""The documented rule catalogs and CLI surface must match the code.

``docs/analysis.md`` and ``docs/verification.md`` both carry markdown
tables of rule/invariant ids.  These tests pin every table row to the
live registry (id, name, and severity) and fail on stale or missing
rows, so the docs cannot drift from the code.  The same goes for every
``--flag`` and ``REPRO_*`` environment variable the user-facing docs
name: each must still be an option of the CLI parser, or read by the
package.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from repro.analysis import DEFAULT_REGISTRY
from repro.verify.sanitizer import SANITIZER_INVARIANTS

DOCS = Path(__file__).resolve().parent.parent / "docs"
README = DOCS.parent / "README.md"
SRC = DOCS.parent / "src"
USER_DOCS = (README, DOCS.parent / "EXPERIMENTS.md", *sorted(DOCS.glob("*.md")))

#: Flags the docs name that belong to other tools (pytest-benchmark).
_FOREIGN_FLAGS = frozenset({"--benchmark-only"})
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_ENV_VAR = re.compile(r"\bREPRO_[A-Z0-9_]+\b")

_RULE_ROW = re.compile(
    r"^\|\s*([APLCVI]\d{3})\s*\|\s*([a-z0-9-]+)\s*\|\s*(\w+)\s*\|", re.MULTILINE
)
_INVARIANT_ROW = re.compile(
    r"^\|\s*(S\d{3})\s*\|\s*([a-z0-9-]+)\s*\|", re.MULTILINE
)


def _rule_rows(text):
    return {match[0]: (match[1], match[2]) for match in _RULE_ROW.findall(text)}


def test_analysis_doc_lists_every_registered_rule():
    rows = _rule_rows((DOCS / "analysis.md").read_text())
    assert set(rows) == set(DEFAULT_REGISTRY.ids())
    for rule_id, (name, severity) in rows.items():
        rule = DEFAULT_REGISTRY.get(rule_id)
        assert name == rule.name, rule_id
        assert severity == rule.severity.name.lower(), rule_id


def test_verification_doc_lists_every_v_rule():
    rows = _rule_rows((DOCS / "verification.md").read_text())
    v_ids = {rid for rid in DEFAULT_REGISTRY.ids() if rid.startswith("V")}
    assert set(rows) == v_ids
    for rule_id, (name, severity) in rows.items():
        rule = DEFAULT_REGISTRY.get(rule_id)
        assert name == rule.name, rule_id
        assert severity == rule.severity.name.lower(), rule_id


def test_verification_doc_lists_every_sanitizer_invariant():
    rows = dict(_INVARIANT_ROW.findall((DOCS / "verification.md").read_text()))
    assert rows == SANITIZER_INVARIANTS


def test_analysis_doc_covers_the_absint_layer():
    """The A rules exist, are documented, and point at static_analysis.md."""
    a_ids = {rid for rid in DEFAULT_REGISTRY.ids() if rid.startswith("A")}
    assert a_ids, "the absint rule layer vanished from the registry"
    text = (DOCS / "analysis.md").read_text()
    assert a_ids <= set(_rule_rows(text))
    assert "static_analysis.md" in text


def test_analysis_doc_covers_the_interference_layer():
    """The I rules exist, are documented, and point at static_analysis.md."""
    i_ids = {rid for rid in DEFAULT_REGISTRY.ids() if rid.startswith("I")}
    assert i_ids, "the interference rule layer vanished from the registry"
    text = (DOCS / "analysis.md").read_text()
    assert i_ids <= set(_rule_rows(text))
    assert "static_analysis.md" in text


def test_sanitizer_catalog_includes_static_bounds():
    assert SANITIZER_INVARIANTS["S008"] == "static-bounds-bracketing"


def test_sanitizer_catalog_includes_conflict_certificates():
    assert SANITIZER_INVARIANTS["S009"] == "conflict-certificate-replay"


def test_verification_doc_is_linked():
    assert "verification.md" in README.read_text()
    assert "verification.md" in (DOCS / "architecture.md").read_text()


def test_static_analysis_doc_is_linked():
    assert (DOCS / "static_analysis.md").exists()
    assert "static_analysis.md" in (DOCS / "architecture.md").read_text()
    assert "static_analysis.md" in (DOCS / "verification.md").read_text()


def _cli_options():
    """Every option string of ``repro``, its subcommands included."""
    from repro.cli import build_parser

    options = set()
    pending = [build_parser()]
    while pending:
        parser = pending.pop()
        for action in parser._actions:
            options.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                pending.extend(action.choices.values())
    return options


def test_every_documented_flag_is_a_cli_option():
    options = _cli_options()
    stale = {
        f"{doc.name}: {flag}"
        for doc in USER_DOCS
        for flag in _FLAG.findall(doc.read_text())
        if flag not in options and flag not in _FOREIGN_FLAGS
    }
    assert not stale, sorted(stale)


def test_every_documented_env_var_is_read_by_the_package():
    source = "\n".join(path.read_text() for path in SRC.rglob("*.py"))
    stale = {
        f"{doc.name}: {name}"
        for doc in USER_DOCS
        for name in _ENV_VAR.findall(doc.read_text())
        if f'"{name}"' not in source
    }
    assert not stale, sorted(stale)
