"""The option table of every CLI subcommand, pinned.

For each subcommand the parser's options are recorded as
(option strings, required, default, choices, type, action) in
``cli_options.json``, sorted by option strings; the test fails if an
option is added, dropped or changed.  Regenerate that file (only when
the interface is meant to change) with

    PYTHONPATH=src python tests/test_cli_options.py
"""

import argparse
import json
import sys
from pathlib import Path

TABLE = Path(__file__).resolve().parent / "cli_options.json"


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def option_table() -> dict:
    """'group command' -> list of option records, sorted by option strings."""
    from stabkit.cli import build_parser

    table = {}
    for group, gp in _subparsers(build_parser()).items():
        for command, cp in _subparsers(gp).items():
            records = [
                {
                    "options": list(a.option_strings),
                    "required": a.required,
                    "default": a.default,
                    "choices": list(a.choices) if a.choices else None,
                    "type": a.type.__name__ if a.type else None,
                    "action": type(a).__name__,
                }
                for a in cp._actions
                if not isinstance(a, argparse._HelpAction)
            ]
            table[f"{group} {command}"] = sorted(records, key=lambda r: r["options"])
    return table


def test_options_match_record():
    assert option_table() == json.loads(TABLE.read_text())


if __name__ == "__main__":
    TABLE.write_text(json.dumps(option_table(), indent=1, sort_keys=True) + "\n")
    print(f"wrote the options of {len(option_table())} commands to {TABLE}", file=sys.stderr)
