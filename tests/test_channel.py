"""Unit tests for two-Kraus channels, canonicalization, and serialization."""

import numpy as np
import pytest

from helpers import GRID, ID2, haar_unitary, plain_params, random_channel
from tko_distill import (
    CanonicalChannelParams,
    KrausPair,
    SingleKrausChannelError,
    canonical_params_from_json,
    canonicalize,
    channel_from_json,
    channel_to_json,
    choi,
    kraus_from_params,
    params_to_json,
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


def test_channel_json_roundtrip():
    rng = np.random.default_rng(17)
    kp, _, _ = random_channel(rng)
    obj = channel_to_json(kp)
    back = channel_from_json(obj)
    assert np.max(np.abs(back.c1 - kp.c1)) < 1e-15
    assert np.max(np.abs(back.c2 - kp.c2)) < 1e-15


def test_channel_spec_with_both_keys_reads_canonical():
    kraus = channel_to_json(kraus_from_params(plain_params(0.2, 0.0)))["kraus"]
    canonical = {"p": 0.6, "eta": [0.0, 0.8]}
    back = channel_from_json({"kraus": kraus, "canonical": canonical})
    want = kraus_from_params(canonical_params_from_json(canonical))
    assert np.array_equal(back.c1, want.c1) and np.array_equal(back.c2, want.c2)


def test_params_json_roundtrip_and_minimal_form():
    cp = CanonicalChannelParams(p=0.3, eta=0.5j, zeta=float(np.sqrt(0.75)))
    back = canonical_params_from_json(params_to_json(cp))
    assert abs(back.p - cp.p) < 1e-15
    assert abs(back.eta - cp.eta) < 1e-15
    assert abs(back.zeta - cp.zeta) < 1e-15
    # zeta, u, v may be omitted; eta may be a bare number.
    minimal = canonical_params_from_json({"p": 0.3, "eta": 0.5})
    assert abs(minimal.zeta - np.sqrt(0.75)) < 1e-12
    assert np.array_equal(minimal.u, ID2)
