"""Check that two checkouts write the same default `--scenario all` trees.

Usage, from anywhere in a checkout:

    python3 tools/same_trees.py --against PATH

For each master seed S in SEEDS, ``python -m sectrack --scenario all
--master-seed S`` runs once from this checkout's ``src`` and once from
``PATH/src``, each into its own temporary directory.  Per seed, the script
prints every file whose SHA-256 differs or that exists on one side only.
It exits 1 when any seed shows a difference, 2 when a run fails, and 0
otherwise.

The trees go to temporary directories and no bytecode is written, so
neither checkout changes.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 4)
RUN = ("--scenario", "all")

# Files are compared by the benchmark's own digest rule.
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "bench"))
import run as bench  # noqa: E402


def start(checkout: Path, seed: int, out: Path) -> subprocess.Popen:
    """Start the RUN of ``checkout`` at ``seed`` into ``out``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "sectrack", *RUN, "--master-seed", str(seed), "--out", str(out)]
    return subprocess.Popen(
        cmd, cwd=out.parent, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, type=Path, help="the other checkout")
    against = parser.parse_args(argv).against.resolve()
    if not (against / "src" / "sectrack").is_dir():
        parser.error(f"{against} holds no src/sectrack")

    status = 0
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            sides = {"here": ROOT, "against": against}
            runs = {side: start(path, seed, Path(tmp) / side) for side, path in sides.items()}
            errors = {side: proc.communicate()[1] for side, proc in runs.items()}
            for side, proc in runs.items():
                if proc.returncode != 0:
                    print(f"seed {seed}: the run {side} ({sides[side]}) failed:\n{errors[side]}")
                    return 2
            ours, theirs = (bench.tree_digests(Path(tmp) / side) for side in sides)
        differ = sorted({p for p, _ in set(ours.items()) ^ set(theirs.items())})
        print(f"seed {seed}: {len(ours)} files here, {len(theirs)} against, "
              f"{len(differ)} differences")
        for name in differ:
            print(f"  {name}")
        if differ:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
