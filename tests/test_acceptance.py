"""End-to-end acceptance suite for the distillation library.

Every test asserts one headline guarantee of the package and prints a single
PASS/FAIL line with the measured margin (visible with `pytest -s`).  The
checks pin closed-form recurrences to the operator-level engine, reproduce
the benchmark round counts and yield relations, verify the optimality bound
against randomized strategies, measure convergence-rate constants, and
stress-test canonicalization on a thousand random channels.
"""

import time

import numpy as np

from helpers import (
    ETA_FRACTIONS,
    GRID,
    analytic_state_params,
    first_round_closed_form,
    optimal_fidelity_params,
    plain_params,
    random_channel,
)
from tko_distill import (
    Policy,
    average_yield,
    canonical_decompose,
    canonicalize,
    choi,
    fp_branch_operators,
    kraus_from_params,
    locc_fidelity,
    optimal_fidelity_channel,
    params_analytic,
    random_locc_check,
    recurrence_step,
    round_exact,
    rssp_analytic,
    rssp_apply,
    run,
    shared_state,
    sweep_eta,
    sweep_p,
)
from tko_distill.linalg import PHI_PLUS, pure_fidelity
from tko_distill.state import CanonicalStateParams


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_closed_form_recurrences_match_exact_engine():
    """Filter and round formulas agree with the exact operator engine on the grid."""
    worst = 0.0
    for p, abs_eta in GRID:
        f, a, b, g, d = params_analytic(p, abs_eta)
        prm = CanonicalStateParams(f, a, b, g, d, 0.0)
        rho = prm.density()
        p_s_c, f_t_c, g_t_c, d_t_c = rssp_analytic(f, a, b, g, d)
        p_s_e, filtered = rssp_apply(rho, prm)
        worst = max(worst, abs(p_s_e - p_s_c))
        worst = max(worst, abs(pure_fidelity(filtered, PHI_PLUS) - f_t_c))
        tilde = canonical_decompose(filtered)
        worst = max(worst, abs(tilde.gamma - g_t_c), abs(tilde.delta - d_t_c))
        for policy in (Policy.FP, Policy.PP):
            p1_c, f1_c = first_round_closed_form(f, a, b, g, d, policy)
            keep_e, post = round_exact(filtered, policy)
            f1_e = pure_fidelity(post, PHI_PLUS)
            worst = max(worst, abs(p1_c - p_s_e * keep_e), abs(f1_c - f1_e))
            # Three more rounds of the symmetric recursion.
            f_model = f1_e
            state = post
            for _ in range(3):
                f_model, keep_model = recurrence_step(f_model)
                keep_e2, state = round_exact(state, Policy.PP)
                worst = max(worst, abs(keep_e2 - keep_model))
                worst = max(worst, abs(pure_fidelity(state, PHI_PLUS) - f_model))
    _report(
        "closed-form filter/round recurrences vs operator engine (9x5 grid)",
        worst <= 1e-9,
        f"max deviation {worst:.3e} (tolerance 1e-9)",
    )


def test_benchmark_round_counts_p08():
    """Round counts and protocol equivalences at p = 0.8, threshold 0.99."""
    amp = plain_params(0.8, 1.0)
    pd = plain_params(0.8, 0.0)
    mid = plain_params(0.8, float(np.sin(0.25 * np.pi)))

    fp_rounds = run(amp, Policy.FP).records[-1].round_index
    pp_rounds = run(amp, Policy.PP).records[-1].round_index
    bb = run(amp, Policy.BBPSSW, max_rounds=64)
    bb_rounds = bb.records[-1].round_index

    traces = {pol: run(pd, pol) for pol in (Policy.FP, Policy.PP, Policy.QPA)}
    lengths = {len(t.records) for t in traces.values()}
    pd_dev = 0.0
    if len(lengths) == 1:
        seqs = [np.array([r.fidelity for r in t.records]) for t in traces.values()]
        pd_dev = max(float(np.max(np.abs(s - seqs[0]))) for s in seqs)
    qpa_mid = run(mid, Policy.QPA, max_rounds=32)
    qpa_amp = run(amp, Policy.QPA, max_rounds=32)

    ok = (
        fp_rounds == 1
        and pp_rounds == 3
        and bb.reached
        and 22 <= bb_rounds <= 26
        and len(lengths) == 1
        and pd_dev <= 1e-9
        and not qpa_mid.reached
        and not qpa_amp.reached
    )
    _report(
        "benchmark round counts at p=0.8 (F_th=0.99)",
        ok,
        f"amp FP {fp_rounds} round (want 1), PP {pp_rounds} (want 3), "
        f"BBPSSW {bb_rounds} (want 24+-2); phase-damping FP/PP/QPA sequences "
        f"identical to {pd_dev:.2e}; QPA not-reached at mid/amp: "
        f"{not qpa_mid.reached}/{not qpa_amp.reached}",
    )


def test_qpa_threshold_and_yield_relations_p07():
    """QPA feasibility boundary and yield relations at p = 0.7."""

    def qpa_reached(fraction: float) -> bool:
        ch = plain_params(0.7, float(np.sin(np.pi * fraction)))
        return run(ch, Policy.QPA, f_th=0.99, max_rounds=64).reached

    lo, hi = 0.0, 0.5
    assert qpa_reached(lo) and not qpa_reached(hi)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if qpa_reached(mid):
            lo = mid
        else:
            hi = mid
    boundary = 0.5 * (lo + hi)

    fp_yield = average_yield(run(plain_params(0.7, 0.0), Policy.FP)).average_yield
    pp_yield = average_yield(run(plain_params(0.7, 0.0), Policy.PP)).average_yield
    ratio = pp_yield / fp_yield

    etas = [float(np.sin(np.pi * x)) for x in np.linspace(0.0, 0.5, 100)]
    points = sweep_eta(0.7, etas, f_th=0.99, policies=(Policy.BBPSSW,), max_rounds=64)
    yields = [pt.report.average_yield for pt in points if pt.reached]
    ok_band = len(yields) == len(points) and all(1e-7 <= y <= 1e-3 for y in yields)

    ok = abs(boundary - 0.024) <= 0.002 and abs(ratio - 2.0) <= 1e-9 and ok_band
    _report(
        "QPA boundary and yield relations at p=0.7",
        ok,
        f"QPA boundary arcsin|eta|/pi = {boundary:.6f} (want 0.024 +- 0.002); "
        f"PP/FP yield ratio at |eta|=0: {ratio:.12f} (want 2); BBPSSW yields in "
        f"[{min(yields):.3e}, {max(yields):.3e}] (band [1e-7, 1e-3])",
    )


def test_yield_decrease_and_crossover_eta1():
    """Yields fall with noise and the FP/PP ranking flips once (|eta| = 1)."""
    ps = [round(0.05 * k, 2) for k in range(1, 20)]
    points = sweep_p(1.0, ps, f_th=0.99, policies=(Policy.FP, Policy.PP))
    fp = [pt.report.average_yield for pt in points if pt.policy is Policy.FP]
    pp = [pt.report.average_yield for pt in points if pt.policy is Policy.PP]
    fp_dec = all(x > y for x, y in zip(fp, fp[1:]))
    pp_dec = all(x > y for x, y in zip(pp, pp[1:]))
    signs = [np.sign(a - b) for a, b in zip(fp, pp)]
    flips = sum(1 for s, t in zip(signs, signs[1:]) if s != t)
    ok = fp_dec and pp_dec and signs[0] < 0 and signs[-1] > 0 and flips == 1
    _report(
        "yield monotonicity and FP/PP crossover at |eta|=1",
        ok,
        f"strictly decreasing on p in [0.05, 0.95]: FP {fp_dec}, PP {pp_dec}; "
        f"PP leads at p=0.05, FP leads at p=0.95, sign flips: {flips} (want 1)",
    )


def test_filter_round_optimality():
    """The filter round achieves the optimal-fidelity bound; random LOCC never beats it."""
    worst_closed = 0.0
    for p, abs_eta in GRID:
        f, a, b, g, d = params_analytic(p, abs_eta)
        want = optimal_fidelity_params(f, a, b, g, d)
        worst_closed = max(worst_closed, abs(first_round_closed_form(f, a, b, g, d, Policy.FP)[1] - want))
        worst_closed = max(worst_closed, abs(optimal_fidelity_channel(p, abs_eta) - want))
    perfect = max(
        abs(optimal_fidelity_channel(float(p), 1.0) - 1.0) for p in np.linspace(0.0, 0.99, 25)
    )

    worst_excess = -np.inf
    worst_achieve = 0.0
    sets = [(p, e) for p in (0.2, 0.5, 0.8, 0.9) for e in (np.sin(np.pi * x) for x in ETA_FRACTIONS)]
    for seed, (p, abs_eta) in enumerate(sets):
        prm = analytic_state_params(p, float(abs_eta))
        bound = optimal_fidelity_channel(p, float(abs_eta))
        best = random_locc_check(prm, samples=100_000, seed=seed)
        worst_excess = max(worst_excess, best - bound)
        n_a, n_b = fp_branch_operators(prm)
        worst_achieve = max(worst_achieve, abs(locc_fidelity(prm, n_a, n_b) - bound))

    ok = worst_closed <= 1e-12 and perfect <= 1e-12 and worst_excess <= 1e-9 and worst_achieve <= 1e-9
    _report(
        "filter-round optimality and randomized LOCC bound",
        ok,
        f"closed-form agreement {worst_closed:.2e} (tol 1e-12); |eta|=1 bound dev "
        f"{perfect:.2e}; max excess over bound across 20x100k random strategies "
        f"{worst_excess:.3e} (tol 1e-9); dedicated operators within {worst_achieve:.2e}",
    )


def test_convergence_rate_constants():
    """Error ratios approach 1 (quadratic protocols) and 2/3 (symmetrized protocol).

    The quadratic ratio at source error e is exactly 1/(1-2e+2e^2) = 1+2e+O(e^2),
    so the 1e-3 comparison is made on trajectories whose late-round errors sit
    below 5e-4, and the finite-size law itself is verified on every trace,
    including one whose trajectory passes through e ~ 6.5e-4 where the literal
    1e-3 window is exceeded by the exact constant.
    """
    f_th = 1.0 - 1e-6
    mid_eta = float(np.sin(0.25 * np.pi))
    literal_cases = [(0.0, pol) for pol in (Policy.FP, Policy.PP)] + [
        (mid_eta, pol) for pol in (Policy.FP, Policy.PP)
    ]
    worst_literal = 0.0
    checked_literal = 0
    for abs_eta, policy in literal_cases:
        trace = run(plain_params(0.8, abs_eta), policy, f_th=f_th, max_rounds=64)
        recs = trace.records
        for k in range(1, len(recs)):
            e_src = 1.0 - recs[k - 1].fidelity
            e_nxt = 1.0 - recs[k].fidelity
            if 0.0 < e_src < 1e-3 and e_nxt > 0.0:
                worst_literal = max(worst_literal, abs(e_nxt / e_src**2 - 1.0))
                checked_literal += 1

    worst_law = 0.0
    law_cases = literal_cases + [(1.0, Policy.FP), (1.0, Policy.PP)]
    for abs_eta, policy in law_cases:
        trace = run(plain_params(0.8, abs_eta), policy, f_th=f_th, max_rounds=64)
        recs = trace.records
        for k in range(1, len(recs)):
            e_src = 1.0 - recs[k - 1].fidelity
            e_nxt = 1.0 - recs[k].fidelity
            if 0.0 < e_src < 1e-2 and e_nxt > 1e-13:
                resid = abs(e_nxt / e_src**2 - (1.0 + 2.0 * e_src))
                allowance = 3.0 * e_src**2 + 5e-16 / e_src**2 + 1e-12
                worst_law = max(worst_law, resid - allowance)

    bb = run(plain_params(0.8, 1.0), Policy.BBPSSW, f_th=f_th, max_rounds=128)
    worst_linear = 0.0
    checked_linear = 0
    for k in range(1, len(bb.records)):
        e_src = 1.0 - bb.records[k - 1].fidelity
        e_nxt = 1.0 - bb.records[k].fidelity
        if 0.0 < e_src < 1e-3 and e_nxt > 0.0:
            worst_linear = max(worst_linear, abs(e_nxt / e_src - 2.0 / 3.0))
            checked_linear += 1

    ok = (
        checked_literal >= 4
        and worst_literal <= 1e-3
        and worst_law <= 0.0
        and checked_linear >= 10
        and worst_linear <= 1e-3
    )
    _report(
        "convergence-rate constants",
        ok,
        f"quadratic ratio within {worst_literal:.3e} of 1 over {checked_literal} "
        f"late rounds (tol 1e-3); finite-size law margin {worst_law:.2e} (<= 0 means "
        f"all rounds obey it); symmetrized-protocol ratio within {worst_linear:.3e} "
        f"of 2/3 over {checked_linear} rounds (tol 1e-3)",
    )


def test_canonicalization_stress_1000():
    """1000 random remixed channels round-trip; decomposition matches closed forms."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_param = worst_choi = 0.0
    for _ in range(1000):
        kp, p, abs_eta = random_channel(rng)
        cp = canonicalize(kp)
        worst_param = max(worst_param, abs(cp.p - p), abs(cp.abs_eta - abs_eta))
        worst_choi = max(
            worst_choi, float(np.linalg.norm(choi(kraus_from_params(cp)) - choi(kp)))
        )
    worst_state = 0.0
    for p, abs_eta in GRID:
        prm = canonical_decompose(shared_state(kraus_from_params(plain_params(p, abs_eta))))
        f, a, b, g, d = params_analytic(p, abs_eta)
        worst_state = max(
            worst_state,
            abs(prm.fidelity - f),
            abs(prm.alpha - a),
            abs(prm.beta - b),
            abs(prm.gamma - g),
            abs(prm.delta - d),
        )
    elapsed = time.perf_counter() - start
    ok = worst_param <= 1e-9 and worst_choi <= 1e-10 and worst_state <= 1e-9 and elapsed < 60.0
    _report(
        "canonicalization stress (1000 random channels + grid decomposition)",
        ok,
        f"(p, |eta|) recovered to {worst_param:.3e} (tol 1e-9); Choi error "
        f"{worst_choi:.3e} (tol 1e-10); state parameters to {worst_state:.3e} "
        f"(tol 1e-9); elapsed {elapsed:.2f}s (limit 60s)",
    )
