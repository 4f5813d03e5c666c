"""The figure presets held against tests/golden/figure_<id>.csv.

`make_figure_golden.py` builds the golden files and renders the CSV compared
here.  The header and every text cell (policy names, booleans, blanks) must
match exactly; every numeric cell is held to 1e-12.
"""

import csv
import io

import pytest

import make_figure_golden as golden

TOL = 1e-12


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


@pytest.mark.parametrize("figure_id", golden.FIGURE_IDS)
def test_figure_matches_golden(figure_id):
    want = list(csv.reader(io.StringIO(golden.golden_path(figure_id).read_text(encoding="utf-8"))))
    got = list(csv.reader(io.StringIO(golden.render(figure_id))))
    assert len(got) == len(want)
    assert got[0] == want[0]
    for line, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=2):
        assert len(got_row) == len(want_row), line
        for col, g, w in zip(want[0], got_row, want_row):
            want_num, got_num = _number(w), _number(g)
            if want_num is None:
                assert g == w, (line, col)
            else:
                assert got_num is not None and abs(got_num - want_num) <= TOL, (line, col, g, w)
