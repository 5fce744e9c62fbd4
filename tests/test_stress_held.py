"""Regression guard on the stress matrix: the seed-0 cells that the recorded
baseline (bench/stress_baseline.json) lists as holding must not diverge.

Each cell runs through ``bench/stress.run_cell``, so the mapping from a cell
to its world has one definition. The baseline's diverged cells are known
failures and are not run here.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from stress import KEY_FIELDS, run_cell  # noqa: E402

HELD = [{key: cell[key] for key in KEY_FIELDS}
        for cell in json.loads((BENCH / "stress_baseline.json").read_text())
        ["cells"]
        if cell["seed"] == 0 and not cell["diverged"]]


@pytest.mark.parametrize("cell", HELD, ids=lambda cell: "-".join(
    str(cell[key]) for key in KEY_FIELDS))
def test_held_cell_does_not_diverge(cell):
    result = run_cell(cell)
    assert not result["diverged"], \
        f"max position error {result['max_m']:.3f} m"
