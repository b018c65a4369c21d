"""Every script under demos/ runs cleanly in-process, warnings as errors."""

import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    if path.stem.startswith("02_"):
        assert "pure |0><0|: dim H = 2, irreducible = True," in out
        assert "tracial I/2: dim H = 4, irreducible = False," in out
