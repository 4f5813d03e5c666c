"""The state path held against tests/golden/state_path.json.

`make_state_path_golden.py` builds the golden file and the records compared
here.  Floats are held to 1e-12; region labels, round counts, `reached` and
error classes must match exactly.  theta, u_a and u_b are compared only in the
generic region where gamma != delta: at the gamma = delta tie they are fixed by
convention, and where the Schmidt gap closes rounding moves them by more than
1e-12.  The 60-digit frame oracle holds them on every mixed grid cell with
gamma != delta instead.
"""

import json

import numpy as np
import pytest

import make_state_path_golden as golden
from helpers import oracle_frame
from tko_distill import canonical_decompose, params_analytic

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


def test_canonical_decompose_frame_matches_oracle():
    # At p = 1e-6 the second eigenvalue 1 - F ~ p/4 sits 2.5e-7 above the
    # zero pair, so rounding moves the second eigenvector by ~eps / (1 - F).
    checked = 0
    for key, rho in golden.grid_rhos():
        p, abs_eta = key["p"], key["abs_eta"]
        f, _, _, gamma, delta = params_analytic(p, abs_eta)
        if f >= golden.PURE_F or abs(gamma - delta) <= 1e-9:
            continue
        prm = canonical_decompose(rho)
        u_a, u_b = oracle_frame(p, abs_eta)
        bound = 1e-10 if p == 1e-6 else 5e-12
        turn = (prm.theta + np.pi) % (2.0 * np.pi) - np.pi
        assert abs(turn) <= bound, (p, abs_eta, "theta")
        assert np.max(np.abs(prm.u_a - u_a)) <= bound, (p, abs_eta, "u_a")
        assert np.max(np.abs(prm.u_b - u_b)) <= bound, (p, abs_eta, "u_b")
        checked += 1
    assert checked == 72
