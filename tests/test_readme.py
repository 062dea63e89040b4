"""The README's command-line usage blocks against the `errdiff` parser.

Every `--flag` on an `errdiff <subcommand>` line of a fenced code block must
be an option of that subcommand, and every option of each subcommand must
appear on one of its lines, so a flag cannot be deleted from the parser and
stay in the docs, or be added without being documented.
"""

import argparse
import re
from pathlib import Path

from errdiff.cli import _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _documented_flags() -> dict[str, set[str]]:
    """Flags per subcommand, from the `errdiff ...` lines of fenced code blocks."""
    flags: dict[str, set[str]] = {}
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = line.split("#")[0].split()
            if len(words) >= 2 and words[0] == "errdiff":
                found = re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", " ".join(words[2:]))
                flags.setdefault(words[1], set()).update(found)
    return flags


def _parser_flags() -> dict[str, set[str]]:
    """Long options per subcommand of the `errdiff` parser, help excluded."""
    (subparsers,) = (
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {
            option
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
            if option.startswith("--")
        }
        for name, sub in subparsers.choices.items()
    }


def test_usage_blocks_match_the_parser():
    assert _documented_flags() == _parser_flags()

