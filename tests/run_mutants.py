"""Run the committed mutants of tests/mutants.json; exit 1 if one survives.

    python tests/run_mutants.py          # every mutant
    python tests/run_mutants.py ID ...   # the named ones

Each mutant replaces its snippet, which must occur exactly once, in a
temporary copy of src/, tests/ and configs/, and runs its test files there
with ``pytest -x``.  A mutant is killed when those tests fail.  A mutant
marked ``equivalent`` must survive, so that its reason stays true.  The
unmutated copy must pass the same tests first.  The working tree is never
changed.  This is not part of tier-1: one pass runs for a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "mutants.json"


def run_tests(work: Path, tests: list) -> int:
    """pytest's exit code for the test files, with stabkit from work/src."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=work, env=env, capture_output=True).returncode


def copy_tree(tmp: str, name: str) -> Path:
    work = Path(tmp) / name
    for part in ("src", "tests", "configs"):
        shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
    return work


def main(argv: list) -> int:
    mutants = json.loads(MUTANTS.read_text())
    if argv:
        unknown = set(argv) - {m["id"] for m in mutants}
        if unknown:
            print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        mutants = [m for m in mutants if m["id"] in argv]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="stabkit-mutants-") as tmp:
        tests = sorted({t for m in mutants for t in m["tests"]})
        if run_tests(copy_tree(tmp, "unmutated"), tests) != 0:
            print("the unmutated sources fail the listed tests", file=sys.stderr)
            return 2
        for m in mutants:
            work = copy_tree(tmp, m["id"])
            target = work / m["file"]
            text = target.read_text()
            if text.count(m["snippet"]) != 1:
                print(f"{m['id']}: the snippet does not occur exactly once in {m['file']}")
                bad += 1
                continue
            target.write_text(text.replace(m["snippet"], m["replacement"]))
            started = time.perf_counter()
            code = run_tests(work, m["tests"])
            seconds = time.perf_counter() - started
            if code not in (0, 1):
                verdict, ok = f"error (pytest exit {code})", False
            elif "equivalent" in m:
                verdict, ok = ("survived (equivalent)", True) if code == 0 else (
                    "KILLED, but marked equivalent", False)
            else:
                verdict, ok = ("killed", True) if code == 1 else ("SURVIVED", False)
            bad += not ok
            print(f"{verdict:32s} {m['id']} ({seconds:.1f} s)", flush=True)
            shutil.rmtree(work)
    print(f"{len(mutants)} mutants, {bad} not as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
