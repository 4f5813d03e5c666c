"""The state path held against tests/golden/state_path.json.

`make_state_path_golden.py` builds the golden file and the records compared
here.  Floats are held to 1e-12; branches, round counts, `reached` and error
classes must match exactly.  theta, u_a and u_b are compared only on the
generic branch where gamma != delta: on the degenerate branch and at the
gamma = delta tie they are fixed by construction conventions, not by the state.
"""

import json

import numpy as np
import pytest

import make_state_path_golden as golden

TOL = 1e-12
GOLDEN = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
WEIGHTS = ("fidelity", "alpha", "beta", "gamma", "delta")


def _matrix(entries) -> np.ndarray:
    return np.array([complex(re, im) for re, im in entries])


def _check_decomposition(got: dict, want: dict) -> None:
    where = (want["p"], want["abs_eta"])
    assert got.get("error") == want.get("error"), where
    if "error" in want:
        return
    assert got["branch"] == want["branch"], where
    for key in WEIGHTS:
        assert abs(got[key] - want[key]) <= TOL, (where, key)
    if want["branch"] == "generic" and abs(want["gamma"] - want["delta"]) > 1e-9:
        turn = (got["theta"] - want["theta"] + np.pi) % (2.0 * np.pi) - np.pi
        assert abs(turn) <= TOL, (where, "theta")
        for key in ("u_a", "u_b"):
            assert np.max(np.abs(_matrix(got[key]) - _matrix(want[key]))) <= TOL, (where, key)


@pytest.mark.parametrize("section, inputs", [("grid", golden.grid_rhos), ("dressed", golden.dressed_rhos)])
def test_canonical_decompose_matches_golden(section, inputs):
    wanted = GOLDEN[section]
    rows = list(inputs())
    assert len(rows) == len(wanted)
    for (key, rho), want in zip(rows, wanted):
        assert (key["p"], key["abs_eta"]) == (want["p"], want["abs_eta"])
        _check_decomposition({**key, **golden.decompose_record(rho)}, want)


def test_exact_traces_match_golden():
    wanted = GOLDEN["exact"]
    assert len(wanted) == len(golden.GRID_P) * len(golden.GRID_ETA) * len(golden.EXACT_POLICIES)
    for want in wanted:
        where = (want["p"], want["abs_eta"], want["policy"])
        got = golden.trace_record(want["p"], want["abs_eta"], want["policy"])
        assert got.get("error") == want.get("error"), where
        if "error" in want:
            continue
        assert got["reached"] == want["reached"], where
        assert len(got["records"]) == len(want["records"]), where
        assert np.max(np.abs(np.array(got["records"]) - np.array(want["records"]))) <= TOL, where
