"""The option table of every CLI subcommand, pinned.

``cli_options.json`` records the help string of each group and, for each
subcommand, its help string (no "help" key when the command is listed
without one) and its options as (option strings, required, default,
choices, type, action, help), sorted by option strings; the test fails
if an option or a help string is added, dropped or changed.  Help
strings are recorded rather than ``format_help()`` text, whose layout
depends on the terminal width and on the Python version.  Regenerate
that file (only when the interface is meant to change) with

    PYTHONPATH=src python tests/test_cli_options.py
"""

import argparse
import json
import sys
from pathlib import Path

TABLE = Path(__file__).resolve().parent / "cli_options.json"


def _subparsers(parser):
    """{name: parser} of the subcommands of parser, and {name: help} of
    those added with a help string."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices, {a.dest: a.help for a in action._choices_actions}
    return {}, {}


def option_table() -> dict:
    """{"groups": group -> help, "commands": 'group command' -> record}."""
    from stabkit.cli import build_parser

    commands = {}
    group_parsers, groups = _subparsers(build_parser())
    for group, gp in group_parsers.items():
        command_parsers, helps = _subparsers(gp)
        for command, cp in command_parsers.items():
            records = [
                {
                    "options": list(a.option_strings),
                    "required": a.required,
                    "default": a.default,
                    "choices": list(a.choices) if a.choices else None,
                    "type": a.type.__name__ if a.type else None,
                    "action": type(a).__name__,
                    "help": a.help,
                }
                for a in cp._actions
                if not isinstance(a, argparse._HelpAction)
            ]
            record = {"options": sorted(records, key=lambda r: r["options"])}
            if command in helps:
                record["help"] = helps[command]
            commands[f"{group} {command}"] = record
    return {"groups": groups, "commands": commands}


def test_options_match_record():
    assert option_table() == json.loads(TABLE.read_text())


if __name__ == "__main__":
    table = option_table()
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote the options of {len(table['commands'])} commands to {TABLE}", file=sys.stderr)
