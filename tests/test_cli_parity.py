"""CLI/doc parity: `repro --help` and README must agree.

The parser is the source of truth and README's command table is the
one prose copy of it (docs/api.md links there); drift fails here (and
therefore CI) rather than rotting silently.
"""

from __future__ import annotations

import pathlib
import re

import repro.cli as cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parser_commands() -> set[str]:
    parser = cli.build_parser()
    for action in parser._subparsers._group_actions:
        return set(action.choices)
    raise AssertionError("parser has no subcommands")


def table_commands(text: str) -> set[str]:
    """Commands from a markdown table whose first column is `cmd`."""
    return set(re.findall(r"^\| `(\w+)` \|", text, flags=re.M))


def test_readme_command_table_matches_parser():
    readme = (ROOT / "README.md").read_text()
    assert table_commands(readme) == parser_commands()


def test_every_command_has_help_text():
    parser = cli.build_parser()
    for action in parser._subparsers._group_actions:
        for name, sub in action.choices.items():
            assert sub.description or sub.format_help(), name


def test_doc_pages_exist_and_are_indexed():
    """docs/index.md links every docs page; no dangling references."""
    docs = ROOT / "docs"
    index = (docs / "index.md").read_text()
    pages = {p.name for p in docs.glob("*.md")} - {"index.md"}
    for page in pages:
        assert f"({page})" in index, f"docs/index.md does not link {page}"
    for target in re.findall(r"\]\((\w+\.md)\)", index):
        assert (docs / target).exists(), f"index links missing page {target}"
