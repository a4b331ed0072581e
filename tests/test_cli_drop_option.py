"""Every CLI subcommand with each of its options dropped in turn.

One valid argv per subcommand: the golden rows of ``test_cli_golden``,
plus ``quiver jh`` and both forms of ``group act``.  Without any one of
its options (and the option's value) a command must still end in a
documented exit code, 0, 1 or 2 (argparse's usage error counts as 2),
and never in an internal error.
"""

import pytest

from stabkit.cli import build_parser, main
from test_cli_golden import A2, COMMANDS, K3, _id
from test_cli_options import _subparsers

ROTATION = '{"M": [["0","1"],["-1","0"]], "f0": "-1/2"}'
EXTRA = [
    ["quiver", "jh", "--config", A2, "--rep", "dims=[1,1];f=[[1]]"],
    ["group", "act", "--g", ROTATION, "--curve-m", "0,-1;1,0"],
    ["group", "act", "--g", ROTATION, "--lattice", K3, "--re", "1,0,-1", "--im", "0,1,0"],
]
VALID = COMMANDS + EXTRA


def _commands() -> dict:
    """'group command' -> the parser of that subcommand."""
    return {
        f"{group} {name}": cp
        for group, gp in _subparsers(build_parser())[0].items()
        for name, cp in _subparsers(gp)[0].items()
    }


def _drops(argv, parser):
    """(option, argv without it and its value) for each option of argv."""
    i = 2
    while i < len(argv):
        flag, inline, _ = argv[i].partition("=")
        width = 1 if inline or parser._option_string_actions[flag].nargs == 0 else 2
        yield flag, argv[:i] + argv[i + width:]
        i += width


PARSERS = _commands()
CASES = [
    pytest.param(dropped, id=f"{_id(argv)} without {flag}")
    for argv in VALID
    for flag, dropped in _drops(argv, PARSERS[" ".join(argv[:2])])
]


def test_every_subcommand_has_a_valid_argv():
    assert {" ".join(argv[:2]) for argv in VALID} == set(PARSERS)


def test_the_extra_argvs_succeed(tmp_path, monkeypatch, capsys):
    """The golden rows are checked against their goldens."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STABKIT_BOUND", raising=False)
    assert [main(argv) for argv in EXTRA] == [0, 0, 0]


@pytest.mark.parametrize("argv", CASES)
def test_dropping_an_option_is_a_documented_exit(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STABKIT_BOUND", raising=False)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)
    assert "internal error" not in capsys.readouterr().err
