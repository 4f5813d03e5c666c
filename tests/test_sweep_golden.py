"""The library sweeps held against tests/golden/sweeps.json.

`make_sweep_golden.py` builds the golden file and the rows compared here.
Rounds, `reached`, `rounds_used` and error text must match exactly; every
float (final fidelity and each yield) is held to 1e-12.
"""

import json

import pytest

import make_sweep_golden as golden

TOL = 1e-12
GOLDEN = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
COLUMNS = GOLDEN["columns"]
EXACT = ("f_th", "max_rounds", "p", "abs_eta", "policy", "error", "rounds", "reached", "rounds_used")


def _check_rows(got_rows, want_rows):
    assert len(got_rows) == len(want_rows)
    for got, want in zip(got_rows, want_rows):
        got, want = dict(zip(COLUMNS, got)), dict(zip(COLUMNS, want))
        where = tuple(want[k] for k in ("f_th", "max_rounds", "p", "abs_eta", "policy"))
        for key in COLUMNS:
            if key in EXACT or want[key] is None:
                assert got[key] == want[key], (where, key)
            else:
                assert abs(got[key] - want[key]) <= TOL, (where, key)


def _golden_rows(f_th, max_rounds):
    return [r for r in GOLDEN["rows"][:-1] if (r[0], r[1]) == (f_th, max_rounds)]


@pytest.mark.parametrize("f_th, max_rounds", golden.BUDGETS)
def test_sweep_p_matches_golden(f_th, max_rounds):
    _check_rows(golden.sweep_p_rows(f_th, max_rounds), _golden_rows(f_th, max_rounds))


@pytest.mark.parametrize("f_th, max_rounds", golden.BUDGETS)
def test_sweep_eta_matches_golden(f_th, max_rounds):
    _check_rows(golden.sweep_eta_rows(f_th, max_rounds), _golden_rows(f_th, max_rounds))


def test_qpa_tie_cell_matches_golden():
    _check_rows([golden.tie_row()], GOLDEN["rows"][-1:])
