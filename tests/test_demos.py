"""Every narrative script under demos/ runs to the end."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
