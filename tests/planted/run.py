"""Planted-bug gate: every bug in bugs.json must fail the tests it names.

Usage, from anywhere in a checkout:

    python3 tests/planted/run.py [NAME_SUBSTRING ...]

Each entry of ``bugs.json`` gives a file, an anchor that must occur in it
exactly once, the anchor's replacement and the pytest node ids expected
to catch the bug.  The script copies the checkout to a temporary
directory, checks that the named tests pass there, then plants each bug
in turn and runs only its tests.  The golden and held-out digest tests
are deselected throughout: a re-baseline re-pins them, so a bug caught
only by a digest would slip through the next re-baseline.

The run fails when an anchor is missing or ambiguous (a refactor must
update the entry, not skip it), when a named test fails on the clean
copy, or when a bug survives its tests.  Only the standard library is
used, and pytest does not collect this file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DIGEST_TESTS = (
    "tests/test_acceptance.py::test_run_all_reduced_matches_golden_digests",
    "tests/test_scenarios.py::test_held_out_seed_tree_matches_its_pins",
)
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out", "out_trajectory", ".bench_out"
)


def pytest(copy: Path, tests: list[str]) -> int:
    """Exit status of pytest on ``tests`` in ``copy``, digests deselected."""
    # No bytecode is written, so a planted file is never served a stale .pyc.
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    deselect = [arg for test in DIGEST_TESTS for arg in ("--deselect", test)]
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *deselect]
    return subprocess.run(
        [*cmd, *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ).returncode


def main(argv: list[str]) -> int:
    bugs = json.loads((HERE / "bugs.json").read_text())
    if argv:
        bugs = [bug for bug in bugs if any(word in bug["name"] for word in argv)]
    problems = []
    for bug in bugs:
        count = (ROOT / bug["file"]).read_text().count(bug["anchor"])
        if count != 1:
            problems.append(f"{bug['name']}: anchor found {count} times in {bug['file']}")
        if not bug["tests"]:
            problems.append(f"{bug['name']}: names no test")
    if problems:
        print("\n".join(problems))
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        named = sorted({test for bug in bugs for test in bug["tests"]})
        if pytest(copy, named) != 0:
            print("the named tests do not all pass on the unplanted checkout")
            return 1
        for bug in bugs:
            path = copy / bug["file"]
            clean = path.read_text()
            path.write_text(clean.replace(bug["anchor"], bug["replace"]))
            try:
                status = pytest(copy, bug["tests"])
            finally:
                path.write_text(clean)
            if status == 1:
                verdict = "caught"
            else:
                verdict = "SURVIVED" if status == 0 else f"NOT RUN (pytest exit {status})"
                problems.append(bug["name"])
            print(f"{verdict:>8}  {bug['name']}", flush=True)

    print(f"{len(bugs) - len(problems)} of {len(bugs)} planted bugs caught")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
