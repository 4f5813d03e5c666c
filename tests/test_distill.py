"""Unit tests for the distillation engines (closed-form and operator-level)."""

import warnings

import numpy as np
import pytest

from helpers import (
    FP_KEEP,
    GRID,
    ID2,
    PAIR_INTERLEAVE,
    PP_KEEP,
    PSI_PLUS,
    first_round_closed_form,
    joint_state,
    oracle_branch_blocks,
    oracle_round,
    plain_params,
    random_channel,
    round_branches,
)
from tko_distill import (
    CanonicalChannelParams,
    CanonicalStateParams,
    EntanglementDestroyedError,
    NonDistillableError,
    Policy,
    bbpssw_initial_fidelity,
    bbpssw_step,
    bbpssw_trace,
    canonical_decompose,
    canonicalize,
    optimal_fidelity_channel,
    params_analytic,
    shared_state,
    recurrence_analytic,
    recurrence_step,
    round_exact,
    rssp_analytic,
    rssp_apply,
    run,
)
from tko_distill.distill import _filter_op
from tko_distill.linalg import PHI_PLUS, dagger, projector, pure_fidelity

HALF = float(np.sqrt(0.5))


def _state_params(p: float, abs_eta: float, theta: float = 0.0) -> CanonicalStateParams:
    f, a, b, g, d = params_analytic(p, abs_eta)
    return CanonicalStateParams(f, a, b, g, d, theta)


def _random_density(rng: np.random.Generator) -> np.ndarray:
    """Full-rank 4x4 density matrix from a complex Ginibre draw."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def test_pair_interleave_is_a_permutation():
    assert np.array_equal(PAIR_INTERLEAVE @ PAIR_INTERLEAVE.T, np.eye(16))
    assert np.all((PAIR_INTERLEAVE == 0) | (PAIR_INTERLEAVE == 1))
    rho = projector(PHI_PLUS)
    joint = joint_state(rho)
    assert abs(np.trace(joint).real - 1.0) < 1e-12
    perm = PAIR_INTERLEAVE.astype(complex)
    assert np.max(np.abs(joint - perm @ np.kron(rho, rho) @ perm.T)) < 1e-12


def test_rssp_ops_examples():
    # Bob's kept filter branch; at alpha = beta it keeps everything.
    m_b = _filter_op(HALF, HALF)
    assert np.max(np.abs(m_b - ID2)) < 1e-12
    m_b = _filter_op(np.sqrt(5.0 / 6.0), np.sqrt(1.0 / 6.0))
    assert abs(m_b[0, 0] - 1.0 / np.sqrt(5.0)) < 1e-12
    assert abs(m_b[1, 1] - 1.0) < 1e-12


def test_rssp_ops_completeness_random():
    # The kept branch completes to a measurement: its discarded share
    # I - m_b^dag m_b is positive semidefinite.
    rng = np.random.default_rng(31)
    for _ in range(50):
        b2 = rng.uniform(0.0, 0.5)
        alpha, beta = np.sqrt(1.0 - b2), np.sqrt(b2)
        if beta < 1e-6:
            continue
        m_b = _filter_op(alpha, beta)
        assert np.min(np.linalg.eigvalsh(ID2 - dagger(m_b) @ m_b)) > -1e-12


def test_rssp_ops_rejects_bad_order():
    with pytest.raises(ValueError):
        _filter_op(0.5, np.sqrt(0.75))


def test_rssp_apply_phase_damping_is_identity():
    prm = _state_params(0.8, 0.0)
    rho = prm.density()
    p_s, filtered = rssp_apply(rho, prm)
    assert abs(p_s - 1.0) < 1e-12
    assert np.max(np.abs(filtered - rho)) < 1e-12


def test_rssp_apply_amplitude_damping_example():
    prm = _state_params(0.8, 1.0)
    p_s, filtered = rssp_apply(prm.density(), prm)
    assert abs(p_s - 0.28) < 1e-12
    assert abs(pure_fidelity(filtered, PHI_PLUS) - 5.0 / 7.0) < 1e-12


def test_rssp_apply_matches_closed_forms():
    for p, abs_eta in GRID[::4]:
        f, a, b, g, d = params_analytic(p, abs_eta)
        if f >= 1.0:
            continue
        prm = CanonicalStateParams(f, a, b, g, d, 0.0)
        p_s, filtered = rssp_apply(prm.density(), prm)
        p_s_c, f_t, g_t, d_t = rssp_analytic(f, a, b, g, d)
        assert abs(p_s - p_s_c) < 1e-12
        assert abs(pure_fidelity(filtered, PHI_PLUS) - f_t) < 1e-12
        # The dominant component of the filtered state is exactly |Phi+>.
        assert np.max(np.abs(filtered @ PHI_PLUS - f_t * PHI_PLUS)) < 1e-9


def test_round_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(47)
    for _ in range(10):
        kp, _, _ = random_channel(rng)
        prm = canonical_decompose(shared_state(kp))
        branches = round_branches(prm.density())
        total = sum(prob for prob, _ in branches.values())
        assert abs(total - 1.0) < 1e-12


def test_round_branches_match_16x16_oracle():
    rng = np.random.default_rng(67)
    for _ in range(50):
        rho = _random_density(rng)
        branches = round_branches(rho)
        for key, block in oracle_branch_blocks(rho).items():
            prob, state = branches[key]
            oracle_prob = np.trace(block).real
            assert abs(prob - oracle_prob) < 1e-12
            assert np.max(np.abs(state - block / oracle_prob)) < 1e-12


def test_round_exact_matches_16x16_oracle():
    rng = np.random.default_rng(71)
    for _ in range(50):
        rho = _random_density(rng)
        for policy, keep in ((Policy.FP, FP_KEEP), (Policy.PP, PP_KEEP)):
            prob, state = round_exact(rho, policy)
            oracle_prob, oracle_state = oracle_round(rho, keep)
            assert abs(prob - oracle_prob) < 1e-12
            assert np.max(np.abs(state - oracle_state)) < 1e-12


def test_round_exact_fixed_point():
    keep, post = round_exact(projector(PHI_PLUS), Policy.PP)
    assert abs(keep - 0.5) < 1e-12
    assert np.max(np.abs(post - projector(PHI_PLUS))) < 1e-12


def test_round_exact_werner_diagonal_example():
    rho = 0.75 * projector(PHI_PLUS) + 0.25 * projector(PSI_PLUS)
    keep, post = round_exact(rho, Policy.PP)
    assert abs(keep - (0.75**2 + 0.25**2) / 2.0) < 1e-12
    assert abs(pure_fidelity(post, PHI_PLUS) - 0.9) < 1e-12


def test_round_exact_fp_structure_preserved():
    # After the fidelity-prioritized round the state is an exact two-Bell mixture.
    for p, abs_eta in ((0.3, 0.9238795325112867), (0.6, 0.3826834323650898), (0.8, 1.0)):
        prm = _state_params(p, abs_eta)
        _, filtered = rssp_apply(prm.density(), prm)
        _, post = round_exact(filtered, Policy.FP)
        f1 = pure_fidelity(post, PHI_PLUS)
        model = f1 * projector(PHI_PLUS) + (1.0 - f1) * projector(PSI_PLUS)
        assert np.max(np.abs(post - model)) < 1e-9


def test_round_exact_pp_block_structure():
    # The probability-prioritized round never populates the |00>-|11> direction.
    phi_minus = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)
    for p, abs_eta in ((0.4, 0.3826834323650898), (0.8, 1.0)):
        prm = _state_params(p, abs_eta)
        _, filtered = rssp_apply(prm.density(), prm)
        _, post = round_exact(filtered, Policy.PP)
        assert np.linalg.norm(post @ phi_minus) < 1e-9


def test_round_fidelity_independent_of_theta():
    f, a, b, g, d = params_analytic(0.6, 0.3826834323650898)
    for policy in (Policy.FP, Policy.PP):
        results = []
        for theta in (0.0, 1.3):
            prm = CanonicalStateParams(f, a, b, g, d, theta)
            _, filtered = rssp_apply(prm.density(), prm)
            keep, post = round_exact(filtered, policy)
            results.append((keep, pure_fidelity(post, PHI_PLUS)))
        assert abs(results[0][0] - results[1][0]) < 1e-12
        assert abs(results[0][1] - results[1][1]) < 1e-12


def test_first_round_closed_form_matches_engine():
    for p, abs_eta in ((0.2, 0.0), (0.5, 0.7071067811865476), (0.8, 1.0)):
        f, a, b, g, d = params_analytic(p, abs_eta)
        prm = CanonicalStateParams(f, a, b, g, d, 0.0)
        p_s, filtered = rssp_apply(prm.density(), prm)
        for policy in (Policy.FP, Policy.PP):
            p1, f1 = first_round_closed_form(f, a, b, g, d, policy)
            keep, post = round_exact(filtered, policy)
            assert abs(p1 - p_s * keep) < 1e-12
            assert abs(f1 - pure_fidelity(post, PHI_PLUS)) < 1e-12


def test_recurrence_step_examples():
    f1, keep = recurrence_step(0.75)
    assert abs(f1 - 0.9) < 1e-12
    assert abs(keep - 0.3125) < 1e-12
    f1, keep = recurrence_step(1.0)
    assert f1 == 1.0 and abs(keep - 0.5) < 1e-15


def test_bbpssw_step_examples():
    f1, p_succ = bbpssw_step(1.0)
    assert f1 == 1.0 and abs(p_succ - 1.0) < 1e-15
    f1, p_succ = bbpssw_step(0.75)
    num = 0.5625 + 0.0625 / 9.0
    den = 0.5625 + 0.125 + 0.0625 * 5.0 / 9.0
    assert abs(f1 - num / den) < 1e-12
    assert abs(p_succ - den) < 1e-12
    with pytest.raises(NonDistillableError):
        bbpssw_step(0.5)


def test_bbpssw_initial_fidelity_formula():
    f, a, b, _, _ = params_analytic(0.8, 1.0)
    assert abs(bbpssw_initial_fidelity(f, a, b) - f * (a + b) ** 2 / 2.0) < 1e-15
    # Phase damping loses nothing in the twirl.
    f0, a0, b0, _, _ = params_analytic(0.8, 0.0)
    assert abs(bbpssw_initial_fidelity(f0, a0, b0) - f0) < 1e-12


def test_bbpssw_trace_structure():
    trace = bbpssw_trace(0.75, f_th=0.9, max_rounds=16)
    assert trace.reached
    assert trace.records[0].round_index == 0
    assert abs(trace.records[0].fidelity - 0.75) < 1e-15
    assert abs(trace.records[1].fidelity - bbpssw_step(0.75)[0]) < 1e-12
    assert abs(trace.records[1].keep_prob - bbpssw_step(0.75)[1] / 2.0) < 1e-12
    # cumulative_yield is the running product of keep probabilities.
    product = 1.0
    for rec in trace.records:
        product *= rec.keep_prob
        assert abs(rec.cumulative_yield - product) < 1e-12


def test_bbpssw_spends_the_whole_budget_at_threshold_one():
    # The Werner recurrence shrinks 1 - F by about 2/3 per round, so F never
    # equals 1 and a threshold of exactly 1 is never reached.
    trace = run(CanonicalChannelParams(p=0.3, eta=0, zeta=1), Policy.BBPSSW, f_th=1.0)
    assert trace.rounds == 64
    assert trace.reached is False
    assert 1.0 - 1e-11 < trace.final_fidelity < 1.0


def test_recurrence_analytic_phase_damping_first_round():
    f, a, b, g, d = params_analytic(0.8, 0.0)
    trace = recurrence_analytic(f, a, b, g, d, Policy.PP, f_th=0.99, max_rounds=16)
    assert abs(trace.records[1].fidelity - f**2 / (f**2 + (1 - f) ** 2)) < 1e-12
    assert trace.reached


def test_recurrence_analytic_amp_fp_single_round():
    f, a, b, g, d = params_analytic(0.8, 1.0)
    trace = recurrence_analytic(f, a, b, g, d, Policy.FP, f_th=0.99, max_rounds=16)
    assert trace.reached
    assert len(trace.records) == 2
    assert abs(trace.records[1].fidelity - 1.0) < 1e-12


def test_recurrence_analytic_rejects_low_fidelity():
    with pytest.raises(NonDistillableError):
        recurrence_analytic(0.5, HALF, HALF, HALF, HALF, Policy.PP)


def test_trace_invariants_fp_pp():
    for p, abs_eta in GRID[::7]:
        for policy in (Policy.FP, Policy.PP):
            trace = run(plain_params(p, abs_eta), policy, f_th=0.99, max_rounds=32)
            recs = trace.records
            assert recs[0].round_index == 0
            product = 1.0
            prev_f = 0.0
            for rec in recs:
                product *= rec.keep_prob
                assert abs(rec.cumulative_yield - product) < 1e-12
                if rec.round_index >= 1:
                    assert rec.fidelity >= prev_f - 1e-12
                    assert rec.keep_prob <= 0.5 + 1e-12
                prev_f = rec.fidelity


def test_later_rounds_use_symmetric_keep_rule():
    trace = run(plain_params(0.8, 0.3826834323650898), Policy.FP, f_th=0.999999, max_rounds=16)
    for rec, prev in zip(trace.records[2:], trace.records[1:]):
        f = prev.fidelity
        assert abs(rec.keep_prob - (f**2 + (1 - f) ** 2) / 2.0) < 1e-12


def test_run_engine_rules():
    ch = plain_params(0.8, 0.0)
    assert run(ch, Policy.FP).engine == "analytic"
    assert run(ch, Policy.QPA).engine == "analytic"
    assert run(ch, Policy.QPA, engine="exact").engine == "exact"
    assert run(ch, Policy.BBPSSW).engine == "analytic"
    with pytest.raises(ValueError):
        run(ch, Policy.BBPSSW, engine="exact")
    with pytest.raises(ValueError):
        run(ch, Policy.FP, engine="magic")
    with pytest.raises(ValueError):
        run(ch, "nonsense")
    with pytest.raises(ValueError):
        run(ch, Policy.FP, f_th=0.4)
    with pytest.raises(ValueError):
        run(ch, Policy.FP, max_rounds=0)


@pytest.mark.parametrize(
    "policy, engine",
    [
        (Policy.FP, "analytic"),
        (Policy.FP, "exact"),
        (Policy.PP, "analytic"),
        (Policy.PP, "exact"),
        (Policy.QPA, "analytic"),
        (Policy.QPA, "exact"),
        (Policy.BBPSSW, "analytic"),
    ],
)
def test_round_budget_of_one_stops_after_one_round(policy, engine):
    # Every prepared fidelity here lies below 0.73, and every round-1 fidelity
    # between 0.73 and 0.99, so the two thresholds end the round both ways.
    ch = plain_params(0.8, 0.3826834323650898)
    outcomes = []
    for f_th in (0.73, 0.99):
        trace = run(ch, policy, f_th=f_th, max_rounds=1, engine=engine)
        assert trace.engine == engine
        assert trace.records[0].fidelity < f_th
        assert trace.rounds == 1 and len(trace.records) == 2
        assert trace.reached == (trace.records[1].fidelity >= f_th)
        outcomes.append(trace.reached)
    assert outcomes == [True, False]


def test_run_domain_errors():
    with pytest.raises(EntanglementDestroyedError):
        run(plain_params(1.0, 0.5), Policy.FP)
    with pytest.raises(NonDistillableError):
        run(plain_params(0.9, 1.0), Policy.BBPSSW)


def test_run_at_the_edge_of_the_domain():
    # At p = 1 - 1e-9 the fidelity weight sits within 1e-9 (|eta| = 1) or 2e-5
    # (|eta| = 1e-5) of 1/2; the closed forms in (p, |eta|) still hold.
    p = 1.0 - 1e-9
    amp = plain_params(p, 1.0)
    fp = run(amp, Policy.FP)
    assert fp.reached and fp.rounds == 1
    assert abs(fp.final_fidelity - optimal_fidelity_channel(p, 1.0)) < 1e-12
    assert run(amp, Policy.PP).reached
    with pytest.raises(NonDistillableError):
        run(amp, Policy.BBPSSW)
    assert not run(amp, Policy.QPA).reached
    near_phase = plain_params(p, 1e-5)
    traces = {pol: run(near_phase, pol) for pol in (Policy.FP, Policy.PP, Policy.BBPSSW)}
    f1 = traces[Policy.FP].records[1].fidelity
    assert abs(f1 - optimal_fidelity_channel(p, 1e-5)) < 1e-12
    # Amplitude damping closer to p = 1: the exact engine follows the closed
    # forms while F - 1/2 = (1 - p)/2 stays above canonical_decompose's 1e-14
    # cut, and refuses the state below it.
    for p in (1.0 - 1e-12, 1.0 - 1e-13):
        for policy in (Policy.FP, Policy.PP):
            t_a = run(plain_params(p, 1.0), policy)
            t_e = run(plain_params(p, 1.0), policy, engine="exact")
            assert t_e.reached and len(t_e.records) == len(t_a.records), (p, policy)
            for ra, re in zip(t_a.records, t_e.records):
                assert abs(ra.fidelity - re.fidelity) < 1e-15, (p, policy)
                assert abs(ra.keep_prob - re.keep_prob) < 1e-15, (p, policy)
    assert run(plain_params(1.0 - 1e-15, 1.0), Policy.FP).reached
    with pytest.raises(NonDistillableError):
        run(plain_params(1.0 - 1e-15, 1.0), Policy.FP, engine="exact")


def test_run_clamps_p_within_tolerance_of_the_domain():
    # p within the validator's 1e-9 tolerance outside [0, 1] runs as the edge itself.
    policies = (Policy.FP, Policy.PP, Policy.QPA, Policy.BBPSSW)
    for abs_eta in (0.0, 0.5, 1.0):
        zeta = float(np.sqrt(1.0 - abs_eta**2))
        below = CanonicalChannelParams(p=-5e-10, eta=abs_eta, zeta=zeta)
        for policy in policies:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                trace = run(below, policy)
            assert trace == run(plain_params(0.0, abs_eta), policy)
        above = CanonicalChannelParams(p=1.0 + 5e-10, eta=abs_eta, zeta=zeta)
        for policy in policies:
            with pytest.raises(EntanglementDestroyedError):
                run(above, policy)


def test_run_engines_agree_on_dressed_channels():
    rng = np.random.default_rng(59)
    for _ in range(5):
        kp, _, _ = random_channel(rng)
        cp = canonicalize(kp)
        for policy in (Policy.FP, Policy.PP):
            t_a = run(cp, policy, f_th=0.99, max_rounds=24, engine="analytic")
            t_e = run(cp, policy, f_th=0.99, max_rounds=24, engine="exact")
            assert t_a.reached == t_e.reached
            assert len(t_a.records) == len(t_e.records)
            for ra, re in zip(t_a.records, t_e.records):
                assert abs(ra.fidelity - re.fidelity) < 1e-9
                assert abs(ra.keep_prob - re.keep_prob) < 1e-9


def test_qpa_equals_pp_for_phase_damping():
    t_pp = run(plain_params(0.8, 0.0), Policy.PP, f_th=0.99)
    t_qpa = run(plain_params(0.8, 0.0), Policy.QPA, f_th=0.99)
    assert t_qpa.reached
    assert len(t_pp.records) == len(t_qpa.records)
    for ra, rb in zip(t_pp.records, t_qpa.records):
        assert abs(ra.fidelity - rb.fidelity) < 1e-9


def test_qpa_stalls_on_amplitude_damping():
    trace = run(plain_params(0.8, 1.0), Policy.QPA, f_th=0.99, max_rounds=32)
    assert not trace.reached
    assert trace.records[-1].fidelity < 0.6
