"""QPA's power form held against a 60-digit oracle and the stacked 4x4 engine.

Keeping the agreeing branches maps a = rho00 + rho33, b = rho11 + rho22 and
c = 2 Re rho03 to (a^2, b^2, c^2)/(a^2 + b^2); `helpers.oracle_qpa` iterates
that map at 60 digits.  The library evaluates it in closed form: with
n = 2^k, t = b0/a0 and r = c0/a0, round k has F_k = (1 + r^n)/(2(1 + t^n)).
"""

import numpy as np
import pytest

from helpers import oracle_qpa, plain_params, random_channel
from make_state_path_golden import GRID_ETA
from make_sweep_golden import GRID_P
from tko_distill import CanonicalChannelParams, Policy, canonicalize, run
from tko_distill.cli import _CHECK_TOL
from tko_distill.distill import _columns, _qpa_canonical, _qpa_round, _round_stack

TOL = 1e-12


def _abc(rho):
    d = np.real(np.diagonal(rho, axis1=-2, axis2=-1))
    return np.array([d[..., 0] + d[..., 3], d[..., 1] + d[..., 2], 2.0 * rho[..., 0, 3].real])


def test_power_form_matches_the_oracle_on_the_golden_grid():
    cells = [(min(max(p, 0.0), 1.0), e) for p in GRID_P if p < 1.0 for e in GRID_ETA]
    p, abs_eta = np.array(cells).T
    hist, rounds, errors = _columns(Policy.QPA, p, abs_eta, 1.0, 64)
    assert errors == {}
    for i, (pi, ei) in enumerate(cells):
        want = oracle_qpa(pi, ei, int(rounds[i]))
        cumulative = 1.0
        for k, (f, keep) in enumerate(want):
            cumulative *= keep
            got = hist[:, k, i]
            assert max(abs(got[0] - f), abs(got[1] - keep), abs(got[2] - cumulative)) <= TOL, (pi, ei, k)


@pytest.mark.parametrize("p, abs_eta", [
    (1 - 1e-9, 1e-5), (1 - 1e-9, 1.0),  # the edge cells of the golden grid
    (1 - 1e-12, 0.0), (1 - 1e-12, 0.5), (1 - 2**-52, 1e-5), (1 - 2**-52, 1.0),  # t -> 1
])
def test_power_form_holds_to_round_39_at_the_edges(p, abs_eta):
    f0, logs = _qpa_canonical(np.array([p]), np.array([abs_eta]))
    want = oracle_qpa(p, abs_eta, 39)
    assert abs(f0[0] - want[0][0]) <= TOL
    for k in range(1, 40):
        f, keep = _qpa_round(logs, k)
        assert max(abs(f[0] - want[k][0]), abs(keep[0] - want[k][1])) <= TOL, k


def test_one_stacked_round_maps_a_b_c_by_squares():
    rng = np.random.default_rng(18)
    g = rng.standard_normal((50, 4, 4)) + 1j * rng.standard_normal((50, 4, 4))
    rho = g @ g.conj().transpose(0, 2, 1)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    prob, kept = _round_stack(rho, Policy.QPA)
    a, b, c = _abc(rho)
    norm = a * a + b * b
    assert np.abs(prob - norm).max() <= 1e-14
    assert np.abs(_abc(kept) - np.array([a * a, b * b, c * c]) / norm).max() <= 1e-14


def test_engines_agree_on_dressed_channels():
    rng = np.random.default_rng(1996)
    for _ in range(300):
        cp = canonicalize(random_channel(rng)[0])
        got, want = run(cp, Policy.QPA), run(cp, Policy.QPA, engine="exact")
        assert (got.engine, want.engine) == ("analytic", "exact")
        assert (got.rounds, got.reached) == (want.rounds, want.reached), cp
        for a, b in zip(got.records, want.records):
            gaps = [abs(getattr(a, n) - getattr(b, n)) for n in ("fidelity", "keep_prob", "cumulative_yield")]
            assert max(gaps) <= _CHECK_TOL, (cp, a.round_index)


def test_a_prepared_anti_correlated_pair_stays_at_zero():
    # Z on Bob's side makes the shared state Phi-, which the Hadamards turn
    # into Psi+: a0 = 0, so the powers are taken relative to b0 and F stays 0.
    cp = CanonicalChannelParams(p=0.0, eta=0.0, zeta=1.0, v=np.diag([1.0, -1.0]))
    got, want = run(cp, Policy.QPA), run(cp, Policy.QPA, engine="exact")
    assert (got.rounds, got.reached) == (want.rounds, want.reached) == (1, False)
    for a, b in zip(got.records, want.records):
        assert max(abs(a.fidelity - b.fidelity), abs(a.keep_prob - b.keep_prob)) <= 1e-15


def test_fidelity_peaks_then_falls_to_one_half():
    # For p > 0 and |eta| > 0, c0 < a0: r < 1, so F_k -> 1/2 whatever the budget.
    trace = run(plain_params(0.3, 0.2), Policy.QPA)
    f = trace.fidelities()
    assert not trace.reached and int(np.argmax(f)) == 2 and round(f[2], 3) == 0.987
    assert all(later <= earlier for earlier, later in zip(f[2:], f[3:]))
    assert abs(f[-1] - 0.5) < 1e-12
