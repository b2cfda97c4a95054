"""Every script in ``demos/`` runs to the end.

The scripts run in this process under the test suite's warning filters,
so a ``RuntimeWarning`` (an overflow, a division by zero) fails them.
"""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # The embedding demo exports into a fresh temporary directory.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    assert "===" in capsys.readouterr().out
