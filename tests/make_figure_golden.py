"""Golden outputs of the figure presets: `figure --id 2/3/4` as CSV.

Writes ``tests/golden/figure_<id>.csv`` for each preset;
``tests/test_figure_golden.py`` reruns the presets and compares.  The test
suite imports the renderer from here but never writes the files.  Run from
the repository root:

    PYTHONPATH=src python tests/make_figure_golden.py

Each file is the CLI's stdout for ``figure --id <id> --format csv``: per-round
fidelities of all four policies at p = 0.8 (figure 2, 54 lines), a p sweep at
|eta| = 1 (figure 3, 301 lines) and an |eta| sweep at p = 0.7 (figure 4, 401
lines).

Rerunning this script rewrites every cell; when a change moves outputs on
purpose, keep the unmoved cells as they were and log each moved one in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from tko_distill.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FIGURE_IDS = (2, 3, 4)


def golden_path(figure_id: int) -> Path:
    return GOLDEN_DIR / f"figure_{figure_id}.csv"


def render(figure_id: int) -> str:
    """The CSV that ``figure --id <figure_id>`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["figure", "--id", str(figure_id), "--format", "csv"])
    if code != 0:
        raise SystemExit(f"figure --id {figure_id} exited with {code}")
    return out.getvalue()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for fid in FIGURE_IDS:
        golden_path(fid).write_text(render(fid), encoding="utf-8")
        print(f"wrote {golden_path(fid)}")
