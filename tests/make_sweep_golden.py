"""Golden outputs of the library sweeps: `sweep_p` and `sweep_eta` on an edge grid.

Writes ``tests/golden/sweeps.json``; ``tests/test_sweep_golden.py`` recomputes
the same cells and compares.  The test suite imports the grid and the row
builder from here but never writes the file.  Run from the repository root:

    PYTHONPATH=src python tests/make_sweep_golden.py

Inputs: 17 p values from the clamped edges below 0 and above 1 through
p = 1 - 1e-9, times the 7 |eta| of the state-path grid, times all four
policies, under four (f_th, max_rounds) budgets; plus the qpa tie cell
p = 0.75, |eta| = 0, f_th = 0.9, where the first round lands exactly on the
threshold.  One row per cell, in ``sweep_p`` grid order: the same cells
through ``sweep_eta`` must give the same rows.  A row holds the error text
of a failed cell, else its rounds, `reached`, final fidelity and yield report.

Rerunning this script rewrites every cell; when a change moves outputs on
purpose, keep the unmoved cells as they were and log each moved one in
CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

from make_state_path_golden import GRID_ETA
from tko_distill import Policy, sweep_eta, sweep_p

GOLDEN = Path(__file__).resolve().parent / "golden" / "sweeps.json"

GRID_P = (
    0.0, -5e-10, 1e-10, 1e-6, 1e-3, 0.05, 0.1, 0.25, 0.5, 0.7, 0.8, 0.9, 0.99,
    1 - 1e-6, 1 - 1e-9, 1.0, 1 + 5e-10,
)
BUDGETS = ((0.99, 64), (1.0, 64), (0.999999, 3), (0.7, 1))
POLICIES = tuple(Policy(name) for name in ("fp", "pp", "qpa", "bbpssw"))
TIE = (0.75, 0.0, Policy.QPA, 0.9, 64)  # p, |eta|, policy, f_th, max_rounds
COLUMNS = (
    "f_th", "max_rounds", "p", "abs_eta", "policy", "error",
    "rounds", "reached", "fidelity_final", "rounds_used", "yield_at_k",
    "yield_at_k_minus_1", "average_yield",
)


def row(point, f_th: float, max_rounds: int) -> list:
    """One golden row: the cell's key, then its error or its outcome."""
    head = [f_th, max_rounds, point.p, point.abs_eta, point.policy.value]
    if point.error is not None:
        return head + [point.error] + [None] * 7
    rep = point.report
    tail = [None] * 4 if rep is None else [
        rep.rounds_used, rep.yield_at_k, rep.yield_at_k_minus_1, rep.average_yield,
    ]
    return head + [None, point.rounds, point.reached, point.fidelity_final] + tail


def sweep_p_rows(f_th: float, max_rounds: int) -> list[list]:
    """Rows of one budget through sweep_p, |eta| outermost."""
    return [
        row(pt, f_th, max_rounds)
        for e in GRID_ETA
        for pt in sweep_p(e, GRID_P, f_th=f_th, policies=POLICIES, max_rounds=max_rounds)
    ]


def sweep_eta_rows(f_th: float, max_rounds: int) -> list[list]:
    """The same rows through sweep_eta, reordered to sweep_p grid order."""
    by_p = [
        sweep_eta(p, GRID_ETA, f_th=f_th, policies=POLICIES, max_rounds=max_rounds)
        for p in GRID_P
    ]
    n_pol = len(POLICIES)
    return [
        row(by_p[i][j * n_pol + k], f_th, max_rounds)
        for j in range(len(GRID_ETA))
        for i in range(len(GRID_P))
        for k in range(n_pol)
    ]


def tie_row() -> list:
    p, e, pol, f_th, max_rounds = TIE
    (pt,) = sweep_p(e, [p], f_th=f_th, policies=(pol,), max_rounds=max_rounds)
    return row(pt, f_th, max_rounds)


def build() -> dict:
    rows = [r for budget in BUDGETS for r in sweep_p_rows(*budget)]
    rows_eta = [r for budget in BUDGETS for r in sweep_eta_rows(*budget)]
    if rows != rows_eta:
        raise SystemExit("sweep_p and sweep_eta disagree on the golden grid")
    return {"columns": list(COLUMNS), "rows": rows + [tie_row()]}


def dumps(data: dict) -> str:
    """JSON with one row per line, so a regenerated cell shows as one diff line."""
    body = ",\n".join(json.dumps(r) for r in data["rows"])
    return '{\n"columns": ' + json.dumps(data["columns"]) + ',\n"rows": [\n' + body + "\n]\n}\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dumps(build()), encoding="utf-8")
    print(f"wrote {GOLDEN}")
