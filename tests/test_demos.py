"""Each demo runs as a script: it raises nothing and prints something."""

import runpy
from pathlib import Path

import numpy as np
import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    with np.printoptions():  # restores the print options a demo sets
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
