"""Golden outputs of the state path: `canonical_decompose` and the exact engine.

Writes ``tests/golden/state_path.json``; ``tests/test_state_path_golden.py``
recomputes the same records and compares.  The test suite imports the input
and record builders from here but never writes the file.  Run from the
repository root:

    PYTHONPATH=src python tests/make_state_path_golden.py

Inputs:
  * a 13 p x 7 |eta| grid of plain canonical channels (u = v = I, real eta),
    from p = 1e-10 (pure branch) to p = 1 - 1e-9 (eigenvalue gap ~1e-9);
  * 100 seeded Haar-dressed, remixed channels with complex eta;
  * exact-engine fp, pp and qpa traces on the grid (f_th 0.99, 64 rounds).

A failing cell stores the error class name instead of numbers.  Rerunning
this script rewrites every cell; when a change moves outputs on purpose,
keep the unmoved cells as they were and log each moved one in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from helpers import matrix_json, plain_params, random_channel
from tko_distill import canonical_decompose, kraus_from_params, run, shared_state

GOLDEN = Path(__file__).resolve().parent / "golden" / "state_path.json"

GRID_P = (1e-10, 1e-6, 1e-3, 0.05, 0.1, 0.25, 0.5, 0.7, 0.8, 0.9, 0.99, 1 - 1e-6, 1 - 1e-9)
GRID_ETA = (0.0, 1e-5, 0.1, float(np.sin(np.pi / 8)), 0.5, float(np.sin(3 * np.pi / 8)), 1.0)
DRESSED_SEED = 20261019
DRESSED_COUNT = 100
EXACT_POLICIES = ("fp", "pp", "qpa")

# Region labels of a record.  "pure" is canonical_decompose's pure branch
# (F >= 1 - 1e-9).  Every mixed state takes the same two-eigenvector rotation;
# "degenerate" and "generic" label Schmidt-gap regions, not code paths: the
# top eigenvector's Schmidt gap times the eigenvalue gap, (alpha - beta)(2F - 1),
# below or above 1e-8.
DEGENERATE_GAP = 1e-8
PURE_F = 1.0 - 1e-9


def grid_rhos():
    for p in GRID_P:
        for e in GRID_ETA:
            yield {"p": p, "abs_eta": e}, shared_state(kraus_from_params(plain_params(p, e)))


def dressed_rhos():
    rng = np.random.default_rng(DRESSED_SEED)
    for _ in range(DRESSED_COUNT):
        kp, p, e = random_channel(rng)
        yield {"p": p, "abs_eta": e}, shared_state(kp)


def decompose_record(rho: np.ndarray) -> dict:
    try:
        prm = canonical_decompose(rho)
    except Exception as exc:  # the class is the recorded outcome
        return {"error": type(exc).__name__}
    if prm.fidelity >= PURE_F:
        branch = "pure"
    elif (prm.alpha - prm.beta) * (2.0 * prm.fidelity - 1.0) < DEGENERATE_GAP:
        branch = "degenerate"
    else:
        branch = "generic"
    out = {k: getattr(prm, k) for k in ("fidelity", "alpha", "beta", "gamma", "delta", "theta")}
    out.update(branch=branch, u_a=matrix_json(prm.u_a), u_b=matrix_json(prm.u_b))
    return out


def trace_record(p: float, abs_eta: float, policy: str) -> dict:
    try:
        trace = run(plain_params(p, abs_eta), policy, engine="exact")
    except Exception as exc:
        return {"error": type(exc).__name__}
    return {
        "reached": trace.reached,
        "records": [[r.fidelity, r.keep_prob, r.cumulative_yield] for r in trace.records],
    }


def build() -> dict:
    return {
        "grid": [{**key, **decompose_record(rho)} for key, rho in grid_rhos()],
        "dressed": [{**key, **decompose_record(rho)} for key, rho in dressed_rhos()],
        "exact": [
            {"p": p, "abs_eta": e, "policy": pol, **trace_record(p, e, pol)}
            for p in GRID_P
            for e in GRID_ETA
            for pol in EXACT_POLICIES
        ],
    }


def dumps(data: dict) -> str:
    """JSON with one record per line, so a regenerated cell shows as one diff line."""
    sections = [
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
        for name, rows in data.items()
    ]
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dumps(build()), encoding="utf-8")
    print(f"wrote {GOLDEN}")
