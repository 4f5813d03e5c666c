"""Unit tests for optimality bounds, yield accounting, and parameter sweeps."""

import io
import json
import re
import tracemalloc

import numpy as np
import pytest

from helpers import (
    GRID,
    analytic_state_params,
    first_round_closed_form,
    oracle_locc_num_den,
    oracle_locc_template,
    optimal_fidelity_params,
    oracle_random_locc_check,
    plain_params,
)
from tko_distill import (
    DistillationTrace,
    EntanglementDestroyedError,
    Policy,
    RoundRecord,
    average_yield,
    convergence_ratios,
    fp_branch_operators,
    locc_fidelity,
    optimal_fidelity_channel,
    params_analytic,
    random_locc_check,
    run,
    run_point,
    sweep_eta,
    sweep_p,
    sweep_to_csv,
    sweep_to_json,
)
from tko_distill.analysis import _locc_num_den, _locc_template

HALF = float(np.sqrt(0.5))


def _trace(policy, threshold, rows, reached=True, engine="analytic"):
    records = []
    cumulative = 1.0
    for k, (f, keep) in enumerate(rows):
        cumulative *= keep
        records.append(RoundRecord(k, f, keep, cumulative))
    return DistillationTrace(
        policy=policy, threshold=threshold, reached=reached, records=tuple(records), engine=engine
    )


def test_optimal_fidelity_symmetric_example():
    assert abs(optimal_fidelity_params(0.75, HALF, HALF, HALF, HALF) - 0.9) < 1e-12


def test_optimal_fidelity_perfect_when_gamma_zero():
    assert abs(optimal_fidelity_params(0.6, np.sqrt(5 / 6), np.sqrt(1 / 6), 0.0, 1.0) - 1.0) < 1e-15
    for p in np.linspace(0.0, 0.99, 34):
        assert abs(optimal_fidelity_channel(float(p), 1.0) - 1.0) < 1e-12


def test_optimal_fidelity_matches_filter_round_on_grid():
    for p, abs_eta in GRID:
        f, a, b, g, d = params_analytic(p, abs_eta)
        want = optimal_fidelity_params(f, a, b, g, d)
        assert abs(optimal_fidelity_channel(p, abs_eta) - want) < 1e-12
        _, f1 = first_round_closed_form(f, a, b, g, d, Policy.FP)
        assert abs(f1 - want) < 1e-12


def test_optimal_fidelity_validates_domain():
    with pytest.raises(ValueError):
        optimal_fidelity_params(0.5, HALF, HALF, HALF, HALF)
    with pytest.raises(EntanglementDestroyedError):
        optimal_fidelity_channel(1.0, 0.5)
    with pytest.raises(ValueError):
        optimal_fidelity_channel(0.5, 1.5)


def test_optimal_fidelity_monotone_in_p_and_eta():
    ps = np.linspace(0.0, 0.98, 50)
    etas = np.linspace(0.0, 1.0, 50)
    table = np.array([[optimal_fidelity_channel(float(p), float(e)) for e in etas] for p in ps])
    # Decreasing in noise severity, non-decreasing in channel-type parameter.
    assert np.all(np.diff(table, axis=0) <= 1e-12)
    assert np.all(np.diff(table, axis=1) >= -1e-12)


def test_fp_branch_operators_achieve_the_bound():
    for p, abs_eta in GRID[::6]:
        prm = analytic_state_params(p, abs_eta)
        n_a, n_b = fp_branch_operators(prm)
        achieved = locc_fidelity(prm, n_a, n_b)
        want = optimal_fidelity_channel(p, abs_eta)
        assert abs(achieved - want) < 1e-9


def test_random_locc_never_beats_the_bound_small():
    for seed, (p, abs_eta) in enumerate(((0.3, 0.0), (0.6, 0.7071067811865476), (0.8, 1.0))):
        prm = analytic_state_params(p, abs_eta)
        best = random_locc_check(prm, samples=3000, seed=seed)
        assert best <= optimal_fidelity_channel(p, abs_eta) + 1e-9
        # Fixed seeds make the scan reproducible.
        assert best == random_locc_check(prm, samples=3000, seed=seed)


def test_locc_template_matches_pair_interleave():
    for p, abs_eta in GRID[::3]:
        prm = analytic_state_params(p, abs_eta)
        assert np.max(np.abs(_locc_template(prm) - oracle_locc_template(prm))) < 1e-15


def _random_ops(rng, n):
    return rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))


def test_locc_kernel_matches_einsum_oracle():
    rng = np.random.default_rng(2024)
    for p, abs_eta in ((0.2, 0.0), (0.5, 0.6), (0.9, 1.0)):
        prm = analytic_state_params(p, abs_eta)
        n_a, n_b = _random_ops(rng, 500), _random_ops(rng, 500)
        num, den = _locc_num_den(_locc_template(prm), n_a, n_b)
        want_num, want_den = oracle_locc_num_den(oracle_locc_template(prm), n_a, n_b)
        assert np.max(np.abs(num / den - want_num / want_den)) < 1e-14
        # A batch of one is the locc_fidelity path.
        for k in range(3):
            got = locc_fidelity(prm, n_a[k], n_b[k])
            assert abs(got - want_num[k] / want_den[k]) < 1e-14


def test_locc_fidelity_ignores_operator_scale():
    rng = np.random.default_rng(7)
    for p, abs_eta in ((0.3, 0.0), (0.6, 0.5), (0.8, 1.0)):
        prm = analytic_state_params(p, abs_eta)
        n_a, n_b = _random_ops(rng, 1)[0], _random_ops(rng, 1)[0]
        base = locc_fidelity(prm, n_a, n_b)
        for c in (1e-3, 7.5, np.exp(0.3j)):
            assert abs(locc_fidelity(prm, c * n_a, c * n_b) - base) < 1e-14
            assert abs(locc_fidelity(prm, c * n_a, n_b) - base) < 1e-14


@pytest.mark.parametrize(
    "p, abs_eta, samples, seed",
    [(p, a, 2000, seed) for p, a in ((0.4, 0.0), (0.7, 1.0), (0.5, HALF)) for seed in (0, 1, 12345)]
    # One full batch plus a one-sample tail batch.
    + [(0.6, 0.38, 20_001, 5)]
    # At and across the 2,048-pair evaluation block; one chunk plus one block and one pair.
    + [(0.3, 0.9, 2048, 6), (0.8, 0.2, 2049, 7), (0.5, 0.5, 22_049, 8)],
)
def test_random_locc_check_matches_unit_norm_oracle(p, abs_eta, samples, seed):
    prm = analytic_state_params(p, abs_eta)
    got = random_locc_check(prm, samples=samples, seed=seed)
    assert abs(got - oracle_random_locc_check(prm, samples, seed)) < 1e-14


def _traced_peak_mib(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_random_locc_check_holds_one_chunk_of_draws():
    # numpy reports its buffers to tracemalloc.  One chunk's draws are 9.8 MiB;
    # a second chunk alive while the next is drawn would add as much again.
    prm = analytic_state_params(0.5, HALF)
    one_chunk = _traced_peak_mib(lambda: random_locc_check(prm, samples=20_000, seed=1))
    five_chunks = _traced_peak_mib(lambda: random_locc_check(prm, samples=100_000, seed=1))
    assert five_chunks <= 24.0
    assert five_chunks - one_chunk < 1.0


@pytest.mark.parametrize("samples", [2.5, "3", True, 0])
def test_random_locc_check_takes_only_a_positive_integer_sample_count(samples):
    prm = analytic_state_params(0.5, HALF)
    with pytest.raises(ValueError, match=re.escape(f"samples must be an integer >= 1, got {samples!r}")):
        random_locc_check(prm, samples=samples)


def test_random_locc_check_takes_a_numpy_integer_sample_count():
    prm = analytic_state_params(0.5, HALF)
    assert random_locc_check(prm, samples=np.int64(50), seed=3) == random_locc_check(prm, samples=50, seed=3)


def test_locc_fidelity_validates_shapes():
    prm = analytic_state_params(0.5, 0.5)
    with pytest.raises(ValueError):
        locc_fidelity(prm, np.eye(3, dtype=complex), np.eye(4, dtype=complex))


def test_average_yield_frozen_example():
    trace = run(plain_params(0.8, 1.0), Policy.FP, f_th=0.99)
    report = average_yield(trace)
    assert report.rounds_used == 1
    assert abs(report.yield_at_k_minus_1 - 0.28) < 1e-12
    assert abs(report.yield_at_k - 1.0 / 28.0) < 1e-12
    assert abs(report.average_yield - 0.044264285714285714) < 1e-12


def test_average_yield_threshold_edge_cases():
    # Threshold already met before any round: every yield is the round-0 yield.
    t0 = _trace(Policy.PP, 0.9, [(0.95, 0.8)])
    rep = average_yield(t0)
    assert rep.rounds_used == 0
    assert rep.yield_at_k == rep.yield_at_k_minus_1 == rep.average_yield == 0.8
    # Final fidelity exactly at threshold: interpolation lands on the last round.
    t1 = _trace(Policy.PP, 0.9, [(0.7, 0.5), (0.9, 0.3)])
    rep = average_yield(t1)
    assert rep.rounds_used == 1
    assert abs(rep.average_yield - 0.15) < 1e-15
    # Previous fidelity exactly at threshold counts as reaching one round earlier.
    t2 = _trace(Policy.PP, 0.7, [(0.7, 0.5), (0.9, 0.3)])
    rep = average_yield(t2)
    assert rep.rounds_used == 0
    assert abs(rep.average_yield - 0.5) < 1e-15


def test_average_yield_requires_reaching_threshold():
    t = _trace(Policy.PP, 0.99, [(0.7, 0.5), (0.8, 0.3)], reached=False)
    with pytest.raises(ValueError):
        average_yield(t)


def test_average_yield_ignores_rounds_past_threshold():
    base = run(plain_params(0.8, 0.0), Policy.PP, f_th=0.99, max_rounds=3)
    extended = run(plain_params(0.8, 0.0), Policy.PP, f_th=0.9999999, max_rounds=8)
    assert len(extended.records) > len(base.records)
    clipped = DistillationTrace(
        policy=extended.policy,
        threshold=0.99,
        reached=True,
        records=extended.records,
        engine=extended.engine,
    )
    r1 = average_yield(base)
    r2 = average_yield(clipped)
    assert r1.rounds_used == r2.rounds_used
    assert abs(r1.average_yield - r2.average_yield) < 1e-12


def test_yield_never_exceeds_halving_limit():
    for p, abs_eta in GRID[::5]:
        for policy in (Policy.FP, Policy.PP):
            trace = run(plain_params(p, abs_eta), policy, f_th=0.99, max_rounds=32)
            if not trace.reached:
                continue
            k = trace.records[-1].round_index
            p_s = trace.records[0].keep_prob
            assert trace.records[-1].cumulative_yield <= 2.0**-k * p_s + 1e-12


def test_convergence_ratios_basic():
    with pytest.raises(ValueError):
        convergence_ratios(_trace(Policy.PP, 0.9, [(0.8, 0.5)]))
    t = _trace(Policy.PP, 0.999, [(0.75, 0.5), (0.9, 0.3125), (0.99, 0.4)])
    ratios = convergence_ratios(t)
    assert len(ratios) == 2
    lin, quad = ratios[0]
    assert abs(lin - 0.1 / 0.25) < 1e-12
    assert abs(quad - 0.1 / 0.25**2) < 1e-12
    # Exact fidelity 1 produces the (0, 0) sentinel instead of dividing by zero.
    t_perfect = _trace(Policy.FP, 0.99, [(5 / 7, 0.28), (1.0, 0.127)])
    assert convergence_ratios(t_perfect) == [(0.0, 0.0)]


def test_analytic_state_params_matches_closed_forms():
    prm = analytic_state_params(0.8, 1.0)
    f, a, b, g, d = params_analytic(0.8, 1.0)
    assert (prm.fidelity, prm.alpha, prm.beta, prm.gamma, prm.delta) == (f, a, b, g, d)
    assert prm.theta == 0.0
    assert np.array_equal(prm.u_a, np.eye(2, dtype=complex))


def test_run_point_success_and_domain_failure():
    good = run_point(0.8, 1.0, Policy.FP)
    assert good.reached and good.error is None
    assert good.rounds == 1
    assert abs(good.fidelity_final - 1.0) < 1e-12
    assert good.report is not None
    bad = run_point(0.9, 1.0, Policy.BBPSSW)
    assert not bad.reached
    assert bad.error is not None
    assert bad.rounds is None and bad.report is None


def test_sweeps_reject_abs_eta_outside_unit_interval():
    with pytest.raises(ValueError, match=r"\|eta\|"):
        sweep_p(-0.5, [0.3], policies=(Policy.FP,))
    with pytest.raises(ValueError, match=r"\|eta\|"):
        run_point(0.3, 1.5, Policy.FP)
    with pytest.raises(ValueError, match=r"\|eta\|"):
        sweep_eta(0.3, [0.5, float("nan")], policies=(Policy.FP,))
    # The top of the default arcsin grid is sin(pi/2), exactly 1.0.
    (edge,) = sweep_eta(0.7, [float(np.sin(np.pi / 2.0))], policies=(Policy.FP,))
    assert edge.abs_eta == 1.0 and edge.reached


def test_sweep_p_noiseless_yield_is_one():
    points = sweep_p(0.7, [0.0], f_th=0.99)
    assert len(points) == 4
    for pt in points:
        assert pt.reached and pt.error is None
        assert abs(pt.report.average_yield - 1.0) < 1e-12


def test_sweep_point_ordering():
    points = sweep_p(1.0, [0.1, 0.2], policies=(Policy.FP, Policy.PP))
    assert [(pt.p, pt.policy) for pt in points] == [
        (0.1, Policy.FP),
        (0.1, Policy.PP),
        (0.2, Policy.FP),
        (0.2, Policy.PP),
    ]
    points_eta = sweep_eta(0.7, [0.0, 1.0], policies=(Policy.FP,))
    assert [pt.abs_eta for pt in points_eta] == [0.0, 1.0]
    assert all(pt.p == 0.7 for pt in points_eta)


def test_sweep_csv_round_trips_floats():
    points = sweep_p(1.0, [0.2, 0.9], policies=(Policy.FP, Policy.BBPSSW))
    buf = io.StringIO()
    sweep_to_csv(points, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "p,abs_eta,policy,rounds,reached,fidelity_final,yield_avg"
    assert len(lines) == 1 + len(points)
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["policy"] == "fp" and row["reached"] == "true"
    pt = points[0]
    assert float(row["fidelity_final"]) == pt.fidelity_final
    assert float(row["yield_avg"]) == pt.report.average_yield
    # A failed point leaves its numeric cells empty.
    failed = [ln for ln in lines[1:] if ",bbpssw," in ln and ln.startswith("0.9")]
    assert failed and failed[0].endswith(",,false,,")


def test_sweep_json_parses_back():
    points = sweep_p(1.0, [0.3], policies=(Policy.FP,))
    buf = io.StringIO()
    sweep_to_json(points, buf)
    data = json.loads(buf.getvalue())
    assert isinstance(data, list) and len(data) == 1
    assert data[0]["policy"] == "fp"
    assert data[0]["reached"] is True
    assert abs(data[0]["yield_avg"] - points[0].report.average_yield) < 1e-15


def test_sweep_deterministic():
    def render(points):
        buf = io.StringIO()
        sweep_to_csv(points, buf)
        return buf.getvalue()

    args = (1.0, [0.1, 0.4, 0.7])
    assert render(sweep_p(*args)) == render(sweep_p(*args))
