"""The demos print and draw the same bytes as their goldens.

Each demo runs as a script in a fresh working directory, so the three
pictures of draw_arcs.py land in that directory's arc_diagrams/.  The
goldens under golden/demos/ are the demos' stdout and SVG files; a
change of demo output is a deliberate edit of these files.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import infgon

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))
PICTURES = ("crossing.svg", "fan.svg", "zigzag.svg")


def run_demo(name, cwd):
    # the package is imported from where the tests import it, whatever
    # the working directory
    src = str(Path(infgon.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_every_demo_has_a_golden():
    assert DEMOS == sorted(p.stem for p in GOLDEN.glob("*.stdout"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_stdout_matches_golden(name, tmp_path):
    assert run_demo(name, tmp_path) == (GOLDEN / f"{name}.stdout").read_bytes()


def test_demo_pictures_match_golden(tmp_path):
    run_demo("draw_arcs", tmp_path)
    drawn = tmp_path / "arc_diagrams"
    assert sorted(p.name for p in drawn.iterdir()) == list(PICTURES)
    for name in PICTURES:
        got = (drawn / name).read_bytes()
        assert got == (GOLDEN / "arc_diagrams" / name).read_bytes(), name
