"""Every walkthrough in demos/ runs to the end with its default arguments and
prints exactly its pinned stdout in tests/data/demos/."""

import runpy
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
PINS = Path(__file__).resolve().parent / "data" / "demos"


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(path)])
    out = StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()
    assert out.getvalue() == (PINS / f"{path.stem}.txt").read_text(encoding="utf-8")
