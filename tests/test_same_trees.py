"""tools/same_trees.py: two checkouts' `all` trees, compared file by file."""

from __future__ import annotations

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# A reduced `all` run, so both sides finish in about a second.
REDUCED = ("--set", "sim.duration=20", "--set", "sim.seeds=1", "--set", "sim.trials=100")


@pytest.fixture
def same_trees(monkeypatch):
    # The tool puts bench/ on the path and turns bytecode off; both are undone after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("same_trees", ROOT / "tools" / "same_trees.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SEEDS", (1,))
    monkeypatch.setattr(module, "RUN", (*module.RUN, *REDUCED))
    return module


def test_a_checkout_against_itself_has_no_differences(same_trees, capsys):
    assert same_trees.main(["--against", str(ROOT)]) == 0
    assert capsys.readouterr().out == "seed 1: 44 files here, 44 against, 0 differences\n"


def test_one_changed_byte_is_reported(same_trees, tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    metrics = tmp_path / "src" / "sectrack" / "metrics.py"
    metrics.write_text(metrics.read_text().replace('"m_beams,energy"', '"m_beams,Energy"'))
    assert same_trees.main(["--against", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed 1: 44 files here, 44 against, 6 differences"
    names = ("detection", "energy", "friendliness", "multi-target", "switching", "trajectory")
    assert lines[1:] == [f"  {name}/energy.csv" for name in names]
