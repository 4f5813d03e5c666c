"""Unit tests for two-Kraus channels and canonicalization."""

import numpy as np
import pytest

from helpers import GRID, ID2, haar_unitary, plain_params, random_channel
from tko_distill import (
    CanonicalChannelParams,
    KrausPair,
    SingleKrausChannelError,
    canonicalize,
    choi,
    kraus_from_params,
    remix,
    validate,
)
from tko_distill.channel import require_valid
from tko_distill.linalg import dagger


def _pd_kraus(p: float) -> KrausPair:
    return KrausPair(
        np.diag([1.0, np.sqrt(1.0 - p)]).astype(complex),
        np.diag([0.0, np.sqrt(p)]).astype(complex),
    )


def _ad_kraus(p: float) -> KrausPair:
    return KrausPair(
        np.diag([1.0, np.sqrt(1.0 - p)]).astype(complex),
        np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex),
    )


def test_kraus_pair_validates_shape_and_finiteness():
    with pytest.raises(ValueError, match="2x2"):
        KrausPair(np.eye(3, dtype=complex), np.zeros((3, 3), dtype=complex))
    with pytest.raises(ValueError, match="finite"):
        KrausPair(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.zeros((2, 2)))


def test_validate_and_require_valid():
    ok = validate(_pd_kraus(0.3))
    assert ok.ok and ok.deviation < 1e-12
    bad = validate(KrausPair(ID2, ID2 / 2.0))
    assert not bad.ok and bad.deviation > 0.1
    with pytest.raises(ValueError, match="trace preserving"):
        require_valid(KrausPair(ID2, ID2 / 2.0))


def test_canonical_params_validation():
    with pytest.raises(ValueError, match="outside"):
        plain_params(1.5, 0.0)
    with pytest.raises(ValueError, match="eta"):
        CanonicalChannelParams(p=0.5, eta=0.6 + 0j, zeta=0.9)
    with pytest.raises(ValueError, match="non-negative"):
        CanonicalChannelParams(p=0.5, eta=0.6 + 0j, zeta=-0.8)
    with pytest.raises(ValueError, match="unitary"):
        CanonicalChannelParams(p=0.5, eta=0.6 + 0j, zeta=0.8, u=2.0 * ID2)
    assert abs(CanonicalChannelParams(p=0.5, eta=0.6j, zeta=0.8).abs_eta - 0.6) < 1e-15


def test_kraus_from_params_is_trace_preserving_on_grid():
    for p, abs_eta in GRID:
        report = validate(kraus_from_params(plain_params(p, abs_eta)))
        assert report.ok and report.deviation < 1e-12


def test_canonicalize_phase_damping_literal():
    cp = canonicalize(_pd_kraus(0.8))
    assert abs(cp.p - 0.8) < 1e-12
    assert abs(cp.abs_eta) < 1e-9
    assert abs(cp.zeta - 1.0) < 1e-12


def test_canonicalize_amplitude_damping_literal():
    cp = canonicalize(_ad_kraus(0.8))
    assert abs(cp.p - 0.8) < 1e-12
    assert abs(cp.abs_eta - 1.0) < 1e-12
    assert abs(cp.zeta) < 1e-9


def test_canonicalize_rejects_unitary_channels():
    with pytest.raises(SingleKrausChannelError):
        canonicalize(KrausPair(ID2, np.zeros((2, 2), dtype=complex)))
    # A unitary split across both operators is still a unitary channel.
    rng = np.random.default_rng(3)
    u = haar_unitary(rng)
    disguised = remix(KrausPair(u, np.zeros((2, 2), dtype=complex)), haar_unitary(rng))
    with pytest.raises(SingleKrausChannelError):
        canonicalize(disguised)


def test_canonicalize_roundtrip_random_channels():
    rng = np.random.default_rng(42)
    worst_param = worst_choi = 0.0
    for _ in range(200):
        kp, p, abs_eta = random_channel(rng)
        cp = canonicalize(kp)
        worst_param = max(worst_param, abs(cp.p - p), abs(cp.abs_eta - abs_eta))
        rebuilt = kraus_from_params(cp)
        worst_choi = max(worst_choi, float(np.linalg.norm(choi(rebuilt) - choi(kp))))
    assert worst_param < 1e-9
    assert worst_choi < 1e-10


def test_canonicalize_frame_does_not_follow_rounding():
    # Both roots of the fold's quadratic give a valid canonical form, with the
    # same p and |eta| but a different u, v and eta phase.  The rule picks one,
    # so 1e-16 of noise on the pair must not switch to the other.  |eta| >= 0.99
    # is left out: as |eta| -> 1 the quadratic has a double root, and the remix
    # is known only to about 1e-8 there.
    rng = np.random.default_rng(2206)
    noise_rng = np.random.default_rng(5)
    for i in range(100):
        abs_eta = 0.0 if i % 5 == 0 else float(rng.uniform(0.0, 0.99))
        kp, _, _ = random_channel(rng, abs_eta=abs_eta)
        noise = noise_rng.standard_normal((2, 2, 2)) + 1j * noise_rng.standard_normal((2, 2, 2))
        plain = canonicalize(kp)
        nudged = canonicalize(KrausPair(kp.c1 + 1e-16 * noise[0], kp.c2 + 1e-16 * noise[1]))
        assert np.max(np.abs(nudged.u - plain.u)) < 1e-10, i
        assert np.max(np.abs(nudged.v - plain.v)) < 1e-10, i
        assert abs(nudged.eta - plain.eta) < 1e-10, i


def test_remix_preserves_choi_and_validates():
    rng = np.random.default_rng(8)
    kp, _, _ = random_channel(rng, remixed=False)
    mixed = remix(kp, haar_unitary(rng))
    assert np.max(np.abs(choi(mixed) - choi(kp))) < 1e-12
    with pytest.raises(ValueError, match="unitary"):
        remix(kp, 2.0 * ID2)


def test_choi_is_a_density_matrix():
    for p, abs_eta in ((0.0, 0.0), (0.8, 1.0), (0.5, 0.5)):
        kp = kraus_from_params(plain_params(p, abs_eta))
        ch = choi(kp)
        assert abs(np.trace(ch).real - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh((ch + dagger(ch)) / 2.0)) > -1e-12
