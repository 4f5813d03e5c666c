"""The column round loop held against the scalar one-cell oracle.

`run` on both engines and every sweep cell are compared with
`helpers.oracle_trace` on the edge grid of the sweep golden, record by record
within 1e-12; analytic QPA is held to the 60-digit `helpers.oracle_qpa`.
Also here: the types a sweep point carries, the errors a sweep raises, and
that no reported fidelity, keep probability or yield exceeds 1.
"""

import io
import json
import math

import numpy as np
import pytest

from helpers import canonical_states, oracle_point, oracle_trace, plain_params
from make_state_path_golden import GRID_ETA
from make_sweep_golden import BUDGETS, GOLDEN, GRID_P
from tko_distill import (
    DegenerateProtocolError,
    DomainError,
    Policy,
    kraus_from_params,
    round_exact,
    run,
    run_point,
    shared_state,
    sweep_eta,
    sweep_p,
    sweep_to_csv,
)
from tko_distill.distill import _ENGINES, _exact_column
from tko_distill.linalg import PHI_PLUS, projector

TOL = 1e-12
POLICIES = tuple(Policy)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except DomainError as exc:
        return None, exc


def _check_traces(got, want, where):
    assert got.policy is want.policy and got.engine == want.engine, where
    assert got.reached == want.reached and got.threshold == want.threshold, where
    assert len(got.records) == len(want.records), where
    for a, b in zip(got.records, want.records):
        assert a.round_index == b.round_index, where
        for name in ("fidelity", "keep_prob", "cumulative_yield"):
            assert abs(getattr(a, name) - getattr(b, name)) <= TOL, (where, a.round_index, name)


@pytest.mark.parametrize("f_th, max_rounds", BUDGETS)
@pytest.mark.parametrize("policy", POLICIES, ids=lambda pol: pol.value)
def test_run_matches_the_scalar_oracle(policy, f_th, max_rounds):
    for p in GRID_P:
        for e in GRID_ETA:
            for engine in _ENGINES[policy]:
                where = (p, e, engine)
                got, err = _outcome(run, plain_params(p, e), policy, f_th, max_rounds, engine)
                want, want_err = _outcome(oracle_trace, plain_params(p, e), policy, f_th, max_rounds, engine)
                assert (type(err), str(err)) == (type(want_err), str(want_err)), where
                if want is not None:
                    _check_traces(got, want, where)


def _sweeps(f_th, max_rounds):
    """Every cell of the edge grid through both sweeps, with its (p, |eta|, policy)."""
    budget = {"f_th": f_th, "policies": POLICIES, "max_rounds": max_rounds}
    for e in GRID_ETA:
        cells = [(p, e, pol) for p in GRID_P for pol in POLICIES]
        yield from zip(sweep_p(e, GRID_P, **budget), cells)
    for p in GRID_P:
        cells = [(p, e, pol) for e in GRID_ETA for pol in POLICIES]
        yield from zip(sweep_eta(p, GRID_ETA, **budget), cells)


@pytest.mark.parametrize("f_th, max_rounds", BUDGETS)
def test_sweep_cells_match_the_scalar_oracle(f_th, max_rounds):
    for pt, (p, e, pol) in _sweeps(f_th, max_rounds):
        where = (p, e, pol.value)
        assert (pt.p, pt.abs_eta, pt.policy) == (p, e, pol), where
        want = oracle_point(p, e, pol, f_th, max_rounds)
        assert pt.error == want["error"], where
        if want["error"] is not None:
            assert (pt.reached, pt.rounds, pt.fidelity_final, pt.report) == (False, None, None, None)
            continue
        assert (pt.rounds, pt.reached) == (want["rounds"], want["reached"]), where
        assert abs(pt.fidelity_final - want["fidelity_final"]) <= TOL, where
        if not pt.reached:
            assert pt.report is None, where
            continue
        rep = pt.report
        assert rep.policy is pol and rep.f_th == f_th and rep.rounds_used == want["yields"][0], where
        got = (rep.yield_at_k, rep.yield_at_k_minus_1, rep.average_yield)
        assert max(abs(x - y) for x, y in zip(got, want["yields"][1:])) <= TOL, where


def test_no_cell_reports_a_value_above_one():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    columns = golden["columns"]
    for values in golden["rows"]:
        row = dict(zip(columns, values))
        numbers = [row[k] for k in ("fidelity_final", "yield_at_k", "yield_at_k_minus_1", "average_yield")]
        assert all(x is None or x <= 1.0 for x in numbers), row
    for f_th, max_rounds in BUDGETS:
        for e in GRID_ETA:
            for pt in sweep_p(e, GRID_P, f_th=f_th, policies=POLICIES, max_rounds=max_rounds):
                rep = pt.report
                if rep is not None:
                    assert max(rep.yield_at_k, rep.yield_at_k_minus_1, rep.average_yield) <= 1.0
                if pt.error is None:
                    assert pt.fidelity_final <= 1.0
                    trace = run(plain_params(pt.p, e), pt.policy, f_th, max_rounds)
                    for rec in trace.records:
                        assert max(rec.fidelity, rec.keep_prob, rec.cumulative_yield) <= 1.0, (pt, rec)


def test_the_noiseless_channel_reports_exactly_one():
    for pt in sweep_p(1.0, [0.0], policies=POLICIES) + sweep_eta(0.0, [0.0, 0.5], policies=POLICIES):
        assert pt.report.average_yield == pt.fidelity_final == 1.0, pt


def test_a_generator_grid_sweeps_like_a_list():
    grid = [0.0, 0.3, 0.9, 1.0]
    assert sweep_p(0.5, (p for p in grid)) == sweep_p(0.5, grid)
    assert sweep_eta(0.4, iter(GRID_ETA)) == sweep_eta(0.4, list(GRID_ETA))


def test_sweep_points_hold_python_scalars():
    points = sweep_p(0.5, [0.0, 0.4, 0.95, 1.0]) + [run_point(0.3, 0.2, Policy.QPA)]
    for pt in points:
        assert type(pt.reached) is bool
        assert pt.rounds is None or type(pt.rounds) is int
        assert pt.fidelity_final is None or type(pt.fidelity_final) is float
        if pt.report is not None:
            rep = pt.report
            assert type(rep.rounds_used) is int and type(rep.f_th) is float
            assert {type(v) for v in (rep.yield_at_k, rep.yield_at_k_minus_1, rep.average_yield)} == {float}
    buf = io.StringIO()
    sweep_to_csv(points, buf)
    assert ",True," not in buf.getvalue() and ",true," in buf.getvalue()
    json.dumps([[pt.rounds, pt.reached, pt.fidelity_final] for pt in points])


@pytest.mark.parametrize("p", [math.nan, 1.5, -0.1])
def test_a_bad_p_raises_value_error_naming_it(p):
    with pytest.raises(ValueError, match=rf"^noise severity p={p} outside \[0, 1\]$"):
        sweep_p(0.5, [0.3, p])
    with pytest.raises(ValueError, match=rf"^noise severity p={p} outside \[0, 1\]$"):
        sweep_eta(p, [0.5])
    with pytest.raises(ValueError, match=rf"^noise severity p={p} outside \[0, 1\]$"):
        run_point(p, 0.5, Policy.FP)


@pytest.mark.parametrize("abs_eta", [math.nan, 1.5, -0.1])
def test_a_bad_abs_eta_raises_value_error_naming_it(abs_eta):
    with pytest.raises(ValueError, match=r"^\|eta\| must lie in \[0, 1\]"):
        sweep_p(abs_eta, [0.3])
    with pytest.raises(ValueError, match=r"^\|eta\| must lie in \[0, 1\]"):
        sweep_eta(0.3, [0.5, abs_eta])


@pytest.mark.parametrize("f_th, max_rounds", [(0.5, 64), (1.01, 64), (math.nan, 64), (0.99, 0)])
def test_a_bad_budget_raises_unless_the_grid_is_empty(f_th, max_rounds):
    with pytest.raises(ValueError):
        sweep_p(0.5, [0.3], f_th=f_th, max_rounds=max_rounds)
    with pytest.raises(ValueError):
        sweep_eta(0.3, [0.5], f_th=f_th, max_rounds=max_rounds)
    with pytest.raises(ValueError):
        run(plain_params(0.3, 0.5), Policy.FP, f_th=f_th, max_rounds=max_rounds)
    assert sweep_p(0.5, [], f_th=f_th, max_rounds=max_rounds) == []
    assert sweep_eta(0.3, iter([]), f_th=f_th, max_rounds=max_rounds) == []


@pytest.mark.parametrize("p", [1.0, 1 + 5e-10])
def test_p_at_one_folds_into_the_cell(p):
    points = sweep_p(0.5, [p]) + sweep_eta(p, [0.0, 1.0])
    assert len(points) == 12
    for pt in points:
        assert pt.p == p and not pt.reached
        assert pt.error == "p=1.0 leaves no entanglement to distill"


def test_a_vanished_branch_fails_only_its_own_cell():
    good = 0.8 * projector(PHI_PLUS) + 0.2 * projector(np.array([0.0, 1.0, 0.0, 0.0]))
    empty = projector(np.array([0.0, 1.0, 0.0, 0.0]))  # FP keeps rho[1, 1] rho[2, 2] = 0
    with pytest.raises(DegenerateProtocolError, match="kept measurement branches have no population"):
        round_exact(empty, Policy.FP)
    hist, rounds, errors = _exact_column(Policy.FP, np.array([good, empty]), np.ones(2), 0.99, 64)
    alone, alone_rounds, alone_errors = _exact_column(Policy.FP, good[None].copy(), np.ones(1), 0.99, 64)
    assert list(errors) == [1] and isinstance(errors[1], DegenerateProtocolError)
    assert alone_errors == {} and rounds[0] == alone_rounds[0] >= 1
    assert np.array_equal(hist[:, : rounds[0] + 1, 0], alone[:, : rounds[0] + 1, 0])


def test_stacked_canonical_states_equal_shared_state_bit_for_bit():
    cells = [(min(max(p, 0.0), 1.0 - 1e-9), e) for p in GRID_P for e in GRID_ETA]
    stack = canonical_states(*np.array(cells).T)
    for (p, e), rho in zip(cells, stack):
        assert np.array_equal(rho, shared_state(kraus_from_params(plain_params(p, e)))), (p, e)
