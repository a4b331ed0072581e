"""Byte-for-byte golden outputs of every README CLI command on configs/,
and of the gp and slicing sweeps on the Kronecker quiver at bound 2,3.

Each command runs in-process through ``cli.main`` in an empty working
directory; its exit code, stdout and every file it writes are compared
with ``cli_golden.json``.  Regenerate that file (only when an output is
meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
K3 = str(ROOT / "configs" / "k3_rank1.json")
A2 = str(ROOT / "configs" / "a2.json")
KRONECKER = str(ROOT / "configs" / "kronecker.json")

COMMANDS = [
    ["k3", "scan", "--lattice", K3, "--B", "0", "--omega", "t*h",
     "--t", "1/2..2", "--bound", "4", "-o", "walls.csv", "--svg", "walls.svg"],
    ["k3", "scan", "--lattice", K3, "--B", "u*h", "--omega", "t*h",
     "--t", "1/2..2", "--u", "0..1", "--bound", "2", "--svg", "chambers.svg"],
    ["k3", "guard", "--lattice", K3, "--B", "0", "--omega", "t*h", "--t", "2"],
    ["k3", "heart-check", "--lattice", K3, "--B", "0", "--omega", "t*h",
     "--t", "2", "--bound", "6"],
    ["k3", "normalize", "--lattice", K3, "--re", "1,0,-9/4", "--im", "0,3/2,0"],
    ["quiver", "hn", "--config", A2, "--rep", "dims=[1,1];f=[[1]]"],
    ["quiver", "check", "--config", A2, "--suite", "gp", "--bound", "2,2"],
    ["quiver", "check", "--config", KRONECKER, "--suite", "slicing", "--bound", "2,2"],
    ["quiver", "check", "--config", KRONECKER, "--suite", "gp", "--bound", "2,3"],
    ["quiver", "check", "--config", KRONECKER, "--suite", "slicing", "--bound", "2,3"],
    ["quiver", "check", "--config", A2, "--suite", "local-finiteness", "--bound", "2,2"],
    ["quiver", "deform", "--config", A2, "--eps", "1/8", "--bound", "2,2",
     "--perturb", "0:1/10,0"],
    ["quiver", "deform", "--config", A2, "--eps", "1/4", "--bound", "2,2",
     "--rotate", "1/6"],
    ["quiver", "tilt", "--config", A2, "--torsion", "d0=0", "--bound", "2,2"],
    ["curve", "decompose", "--m", "0,-1;1,0"],
    ["curve", "polygon", "--parts", "0,1 1,0"],
    ["curve", "order-check", "--d=-10..10"],
    ["group", "compose", "--g", '{"rot": "1/8"}', "--h", '{"rot": "3/8"}'],
    ["group", "commute", "--lattice", K3, "--iso", "reflection:1,0,1",
     "--g", '{"M": [["0","1"],["-1","0"]], "f0": "-1/2"}',
     "--re", "1,0,-1", "--im", "0,1,0"],
]


def run_command(argv, workdir: Path) -> dict:
    """Exit code, stdout and written files of one command run in workdir."""
    from stabkit.cli import main

    out = io.StringIO()
    old = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(old)
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return {"exit": code, "stdout": out.getvalue(), "files": files}


def _key(argv) -> str:
    return " ".join(a.replace(str(ROOT) + os.sep, "") for a in argv)


def _id(argv) -> str:
    """The subcommand, the suite of a sweep other than gp and a quiver
    bound other than 2,2."""
    words = argv[:2]
    if "--suite" in argv and argv[argv.index("--suite") + 1] != "gp":
        words = words + [argv[argv.index("--suite") + 1]]
    if argv[0] == "quiver" and "--bound" in argv and argv[argv.index("--bound") + 1] != "2,2":
        words = words + ["bound", argv[argv.index("--bound") + 1]]
    return " ".join(words)


@pytest.mark.parametrize("argv", COMMANDS, ids=[_id(c) for c in COMMANDS])
def test_readme_command_matches_golden(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("STABKIT_BOUND", raising=False)
    golden = json.loads(GOLDEN.read_text())
    assert run_command(argv, tmp_path) == golden[_key(argv)]


# run by a child interpreter: the quiver rows, as {key: run_command(...)}
_CHILD = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import test_cli_golden as g
runs = {}
for argv in g.COMMANDS:
    if argv[0] == "quiver":
        with tempfile.TemporaryDirectory() as tmp:
            runs[g._key(argv)] = g.run_command(argv, Path(tmp))
print(json.dumps({"optimize": sys.flags.optimize, "runs": runs}))
"""


def test_quiver_commands_match_golden_under_python_O(tmp_path):
    """The quiver rows again, in a child `python -O` (no assert statement
    runs) with PYTHONHASHSEED=1 (another set and dict order of strings
    than this process's), against the same goldens."""
    env = {k: v for k, v in os.environ.items() if k != "STABKIT_BOUND"}
    env["PYTHONHASHSEED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CHILD, str(Path(__file__).resolve().parent)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    golden = json.loads(GOLDEN.read_text())
    assert child["optimize"] == 1
    assert child["runs"] == {_key(a): golden[_key(a)] for a in COMMANDS if a[0] == "quiver"}
    assert len(child["runs"]) == 9


if __name__ == "__main__":
    import tempfile

    os.environ.pop("STABKIT_BOUND", None)
    record = {}
    for argv in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            record[_key(argv)] = run_command(argv, Path(tmp))
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} commands to {GOLDEN}", file=sys.stderr)
