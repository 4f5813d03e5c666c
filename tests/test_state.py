"""Unit tests for the canonical entangled-state decomposition."""

import numpy as np
import pytest

from helpers import (
    GRID,
    ID2,
    PSI_PLUS,
    oracle_params_60,
    partial_trace,
    plain_params,
    random_channel,
    steering_operators,
    steering_source_fidelity,
)
from tko_distill import (
    CanonicalChannelParams,
    CanonicalStateParams,
    EntanglementDestroyedError,
    NonDistillableError,
    canonical_decompose,
    canonicalize,
    kraus_from_params,
    params_analytic,
    rssp_analytic,
    rssp_apply,
    shared_state,
    verify_canonical,
)
from tko_distill.linalg import (
    HADAMARD,
    PHI_PLUS,
    dagger,
    eig_hermitian,
    projector,
)

HALF = float(np.sqrt(0.5))


def test_params_analytic_noiseless():
    f, a, b, g, d = params_analytic(0.0, 0.7)
    assert f == 1.0
    assert all(abs(x - HALF) < 1e-15 for x in (a, b, g, d))


def test_params_analytic_amplitude_damping():
    f, a, b, g, d = params_analytic(0.8, 1.0)
    assert abs(f - 0.6) < 1e-12
    assert abs(a**2 - 5.0 / 6.0) < 1e-12
    assert abs(b**2 - 1.0 / 6.0) < 1e-12
    assert abs(g) < 1e-12
    assert abs(d - 1.0) < 1e-12


def test_params_analytic_phase_damping():
    f, a, b, g, d = params_analytic(0.8, 0.0)
    assert abs(f - 0.5 * (1.0 + np.sqrt(0.2))) < 1e-12
    assert all(abs(x - HALF) < 1e-15 for x in (a, b, g, d))


def test_params_analytic_validates_domain():
    with pytest.raises(EntanglementDestroyedError):
        params_analytic(1.0, 0.5)
    with pytest.raises(ValueError):
        params_analytic(-0.1, 0.5)
    with pytest.raises(ValueError):
        params_analytic(0.5, 1.5)


# From p = 1e-14, below canonicalize's unitary cutoff but still a channel to
# the closed forms, to p = 1 - 1e-9.  Near either end 1 - F, beta^2 or gamma^2
# is, in its defining form, a difference of nearly equal terms.
EDGE_P = (1e-14, 4e-12, 1e-10, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-6, 1 - 1e-9)
EDGE_ETA = (0.0, 1e-5, 0.1, 0.5, float(np.sin(3 * np.pi / 8)), 1.0)


def test_params_analytic_matches_60_digit_oracle_on_edge_grid():
    cells = [(p, e) for p in EDGE_P for e in EDGE_ETA]
    columns = params_analytic(*np.array(cells).T)
    for i, cell in enumerate(cells):
        want = oracle_params_60(*cell)
        for name, got_col, scalar, w in zip("FABGD", columns, params_analytic(*cell), want):
            # Relative to the oracle; a zero (gamma at |eta| = 1) must be exact.
            assert abs(got_col[i] - w) <= 1e-14 * abs(w), (cell, name, got_col[i], w)
            assert scalar == got_col[i], (cell, name)


def test_shared_state_identity_channel():
    kp = kraus_from_params(plain_params(0.0, 0.0))
    assert np.max(np.abs(shared_state(kp) - projector(PHI_PLUS))) < 1e-12


def test_shared_state_fidelity_is_top_eigenvalue():
    for p, abs_eta in GRID:
        rho = shared_state(kraus_from_params(plain_params(p, abs_eta)))
        evals, _ = eig_hermitian(rho)
        f = params_analytic(p, abs_eta)[0]
        assert abs(evals[0] - f) < 1e-10
        # The sender-side marginal is untouched by the channel.
        assert np.max(np.abs(partial_trace(rho, 2, (2,)) - ID2 / 2.0)) < 1e-12


def test_canonical_state_params_validation():
    with pytest.raises(ValueError, match="fidelity"):
        CanonicalStateParams(0.4, HALF, HALF, HALF, HALF, 0.0)
    with pytest.raises(ValueError, match="alpha"):
        CanonicalStateParams(0.8, 0.9, 0.9, HALF, HALF, 0.0)
    with pytest.raises(ValueError, match="gamma"):
        CanonicalStateParams(0.8, HALF, HALF, 0.9, 0.9, 0.0)
    with pytest.raises(ValueError, match="unitary"):
        CanonicalStateParams(0.8, HALF, HALF, HALF, HALF, 0.0, 2.0 * ID2, ID2)


def test_canonical_state_params_rejects_swapped_weights():
    a2, b2 = 5.0 / 6.0, 1.0 / 6.0
    CanonicalStateParams(0.6, np.sqrt(a2), np.sqrt(b2), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="gamma <= beta"):
        CanonicalStateParams(0.6, np.sqrt(b2), np.sqrt(a2), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="gamma <= beta"):
        CanonicalStateParams(0.6, np.sqrt(a2), np.sqrt(b2), 1.0, 0.0, 0.0)


def test_theta_is_normalized_mod_two_pi():
    base = CanonicalStateParams(0.7, 0.8, 0.6, 0.55, np.sqrt(1 - 0.55**2), 0.7)
    shifted = CanonicalStateParams(0.7, 0.8, 0.6, 0.55, np.sqrt(1 - 0.55**2), 0.7 + 2.0 * np.pi)
    assert abs(base.theta - shifted.theta) < 1e-12
    assert np.max(np.abs(base.density() - shifted.density())) < 1e-12
    assert verify_canonical(shifted, base.density()) < 1e-12


def test_canonical_decompose_maximally_entangled():
    prm = canonical_decompose(projector(PHI_PLUS))
    assert abs(prm.fidelity - 1.0) < 1e-12
    assert verify_canonical(prm, projector(PHI_PLUS)) < 1e-9


def test_canonical_decompose_phase_damping_gives_hadamard():
    kp = kraus_from_params(plain_params(0.8, 0.0))
    prm = canonical_decompose(shared_state(kp))
    assert np.max(np.abs(prm.u_a - HADAMARD)) < 1e-9
    assert np.max(np.abs(prm.u_b - HADAMARD)) < 1e-9
    assert abs(prm.fidelity - 0.5 * (1.0 + np.sqrt(0.2))) < 1e-10
    assert verify_canonical(prm, shared_state(kp)) < 1e-10


def test_phase_damping_orientation_does_not_follow_rounding():
    # At |eta| = 0, gamma = delta, so the orientation check compares two equal
    # numbers.  A tie keeps the orientation of the construction: the plain
    # state gives the Hadamard pair at every p, and 1e-16 of Hermitian noise
    # on a dressed state does not swap both qubits (theta -> 2 pi - theta).
    # u_b is compared up to a global phase, which follows the eigenvector's.
    for p in (0.1, 0.25, 0.5, 0.7, 0.8, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9):
        prm = canonical_decompose(shared_state(kraus_from_params(plain_params(p, 0.0))))
        assert np.max(np.abs(prm.u_a - HADAMARD)) < 1e-9, p
        assert np.max(np.abs(prm.u_b - HADAMARD)) < 1e-9, p
    rng = np.random.default_rng(778)
    noise_rng = np.random.default_rng(3)
    for _ in range(100):
        cp = canonicalize(random_channel(rng, complex_eta=False)[0])
        pd = CanonicalChannelParams(p=cp.p, eta=0.0j, zeta=1.0, u=cp.u, v=cp.v)
        rho = shared_state(kraus_from_params(pd))
        g = noise_rng.standard_normal((4, 4)) + 1j * noise_rng.standard_normal((4, 4))
        noise = g + dagger(g)
        noise -= np.trace(noise) / 4.0 * np.eye(4)
        plain = canonical_decompose(rho)
        nudged = canonical_decompose(rho + 1e-16 * noise / np.linalg.norm(noise))
        turn = (nudged.theta - plain.theta + np.pi) % (2.0 * np.pi) - np.pi
        assert abs(turn) < 1e-9
        assert np.max(np.abs(nudged.u_a - plain.u_a)) < 1e-9
        assert abs(abs(np.trace(dagger(plain.u_b) @ nudged.u_b)) - 2.0) < 1e-9


def test_canonical_decompose_grid_matches_closed_forms():
    for p, abs_eta in GRID:
        rho = shared_state(kraus_from_params(plain_params(p, abs_eta)))
        prm = canonical_decompose(rho)
        f, a, b, g, d = params_analytic(p, abs_eta)
        for got, want in (
            (prm.fidelity, f),
            (prm.alpha, a),
            (prm.beta, b),
            (prm.gamma, g),
            (prm.delta, d),
        ):
            assert abs(got - want) < 1e-9
        assert min(prm.theta, 2.0 * np.pi - prm.theta) < 1e-6
        assert verify_canonical(prm, rho) < 1e-9
        # Ordering chain of the canonical weights.
        tol = 1e-12
        assert -tol <= prm.gamma <= prm.beta + tol <= HALF + 2 * tol
        assert HALF - tol <= prm.alpha <= prm.delta + tol <= 1.0 + 2 * tol


def test_canonical_mixture_marginals_and_determinant_identity():
    for p, abs_eta in GRID:
        prm = canonical_decompose(shared_state(kraus_from_params(plain_params(p, abs_eta))))
        rho_canon = prm.density()
        # Alice's marginal of the canonical mixture is exactly I/2.
        assert np.max(np.abs(partial_trace(rho_canon, 2, (2,)) - ID2 / 2.0)) < 1e-10
        # Bob's marginal eigenvalue product matches the channel-parameter form.
        f = prm.fidelity
        lhs = (f * prm.alpha**2 + (1 - f) * prm.delta**2) * (
            f * prm.beta**2 + (1 - f) * prm.gamma**2
        )
        zeta2 = 1.0 - abs_eta**2
        rhs = 0.25 * (
            (1.0 + abs_eta**2 * p) * (1.0 - p + zeta2 * p) - abs_eta**2 * zeta2 * p**2
        )
        assert abs(lhs - rhs) < 1e-10
        assert abs(rhs - 0.25 * (1.0 - (abs_eta * p) ** 2)) < 1e-12


def test_canonical_decompose_dressed_random_channels():
    rng = np.random.default_rng(101)
    for _ in range(60):
        kp, p, abs_eta = random_channel(rng)
        rho = shared_state(kp)
        prm = canonical_decompose(rho)
        f, a, b, g, d = params_analytic(p, abs_eta)
        assert abs(prm.fidelity - f) < 1e-9
        assert abs(prm.alpha - a) < 1e-9
        assert abs(prm.gamma - g) < 1e-9
        assert verify_canonical(prm, rho) < 1e-9


def test_canonical_decompose_degenerate_family():
    # |eta| = 0 keeps both eigenvectors maximally entangled (alpha = beta),
    # exercising the rotation's unitary-G branch.
    rng = np.random.default_rng(202)
    for _ in range(40):
        kp, p, _ = random_channel(rng, complex_eta=False, dressed=True)
        # Rebuild with eta forced to zero but keep the random rotations.
        cp = canonicalize(kp)
        pd = CanonicalChannelParams(p=cp.p, eta=0.0j, zeta=1.0, u=cp.u, v=cp.v)
        rho = shared_state(kraus_from_params(pd))
        prm = canonical_decompose(rho)
        f, a, b, g, d = params_analytic(cp.p, 0.0)
        assert abs(prm.fidelity - f) < 1e-9
        assert abs(prm.alpha - HALF) < 1e-9
        assert verify_canonical(prm, rho) < 1e-9


def test_canonical_decompose_filtered_states():
    # Post-filter states have alpha = beta = 1/sqrt2 but generally gamma != delta,
    # a family outside the channel-generated states.
    for p, abs_eta in GRID:
        f, a, b, g, d = params_analytic(p, abs_eta)
        if f >= 1.0:
            continue
        prm = CanonicalStateParams(f, a, b, g, d, 0.0)
        _, filtered = rssp_apply(prm.density(), prm)
        out = canonical_decompose(filtered)
        _, f_t, g_t, d_t = rssp_analytic(f, a, b, g, d)
        assert abs(out.fidelity - f_t) < 1e-9
        assert abs(out.alpha - HALF) < 1e-9
        assert abs(out.beta - HALF) < 1e-9
        assert abs(out.gamma - g_t) < 1e-9
        assert abs(out.delta - d_t) < 1e-9


def test_canonical_decompose_rejects_bad_states():
    werner = 0.75 * projector(PHI_PLUS) + 0.25 * np.eye(4, dtype=complex) / 4.0
    with pytest.raises(ValueError):
        canonical_decompose(werner)
    balanced = 0.5 * projector(PHI_PLUS) + 0.5 * projector(PSI_PLUS)
    with pytest.raises(NonDistillableError):
        canonical_decompose(balanced)
    with pytest.raises(ValueError):
        canonical_decompose(np.eye(2, dtype=complex) / 2.0)


def test_verify_canonical_detects_wrong_parameters():
    rho = shared_state(kraus_from_params(plain_params(0.45, np.sin(0.25 * np.pi))))
    good = canonical_decompose(rho)
    assert verify_canonical(good, rho) < 1e-9
    f, a, b, g, d = params_analytic(0.55, np.sin(0.25 * np.pi))
    wrong = CanonicalStateParams(f, a, b, g, d, 0.0, good.u_a, good.u_b)
    assert verify_canonical(wrong, rho) > 1e-3


def test_steering_reaches_target_parameters():
    targets = [
        CanonicalStateParams(0.6, np.sqrt(0.7), np.sqrt(0.3), np.sqrt(0.2), np.sqrt(0.8), 0.0),
        CanonicalStateParams(0.6, np.sqrt(0.7), np.sqrt(0.3), np.sqrt(0.2), np.sqrt(0.8), 1.1),
        CanonicalStateParams(0.75, 0.74, np.sqrt(1 - 0.74**2), 0.5, np.sqrt(0.75), 5.0),
    ]
    for target in targets:
        f_src = steering_source_fidelity(target)
        ratio = target.gamma * target.delta / (target.alpha * target.beta)
        assert abs(f_src - target.fidelity / (target.fidelity + (1 - target.fidelity) * ratio)) < 1e-12
        m_a, m_a_bar, m_b, m_b_bar = steering_operators(target)
        for m, bar in ((m_a, m_a_bar), (m_b, m_b_bar)):
            assert np.max(np.abs(dagger(m) @ m + dagger(bar) @ bar - ID2)) < 1e-12
        source = CanonicalStateParams(f_src, HALF, HALF, HALF, HALF, 0.0).density()
        op = np.kron(m_a, m_b)
        kept = op @ source @ dagger(op)
        kept = kept / np.trace(kept).real
        assert np.max(np.abs(kept - target.density())) < 1e-9


def test_steering_requires_nonzero_gamma():
    amp = CanonicalStateParams(0.6, np.sqrt(5.0 / 6.0), np.sqrt(1.0 / 6.0), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="gamma"):
        steering_operators(amp)
