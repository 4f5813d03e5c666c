"""Unit tests for the dense linear-algebra helpers."""

import numpy as np
import pytest

from helpers import PSI_PLUS, haar_unitary, partial_trace, schmidt_vector
from tko_distill.linalg import (
    HADAMARD,
    ID2,
    PHI_PLUS,
    check_density_matrix,
    dagger,
    eig_hermitian,
    is_hermitian,
    is_unitary,
    projector,
    pure_fidelity,
    schmidt,
    svd,
)


def test_constants_are_normalized():
    assert is_unitary(HADAMARD)
    assert np.allclose(HADAMARD @ HADAMARD, ID2)
    assert abs(np.linalg.norm(PHI_PLUS) - 1.0) < 1e-15
    assert abs(np.linalg.norm(PSI_PLUS) - 1.0) < 1e-15
    assert abs(PHI_PLUS.conj() @ PSI_PLUS) < 1e-15


def test_dagger():
    m = np.array([[1.0, 2.0j], [3.0, 4.0]], dtype=complex)
    assert np.array_equal(dagger(m), m.conj().T)


def test_projector_and_pure_fidelity():
    pr = projector(PHI_PLUS)
    assert np.allclose(pr, pr @ pr)
    assert abs(np.trace(pr) - 1.0) < 1e-15
    assert abs(pure_fidelity(pr, PHI_PLUS) - 1.0) < 1e-15
    assert abs(pure_fidelity(pr, PSI_PLUS)) < 1e-15


def test_hermitian_and_unitary_predicates():
    assert is_hermitian(np.diag([1.0, -2.0]).astype(complex))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    assert is_unitary(ID2)
    assert not is_unitary(2.0 * ID2)


def test_check_density_matrix_accepts_and_rejects():
    check_density_matrix(projector(PHI_PLUS))
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(2.0 * projector(PHI_PLUS))
    with pytest.raises(ValueError, match="Hermitian"):
        rho = projector(PHI_PLUS).copy()
        rho[0, 3] += 0.1
        check_density_matrix(rho)
    with pytest.raises(ValueError, match="negative"):
        check_density_matrix(1.5 * projector(PHI_PLUS) - 0.5 * projector(PSI_PLUS))
    with pytest.raises(ValueError, match="4x4"):
        check_density_matrix(np.eye(2, dtype=complex) / 2.0)


def test_partial_trace_product_states():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ua, ub = haar_unitary(rng), haar_unitary(rng)
        rho_a = ua @ np.diag([0.7, 0.3]).astype(complex) @ dagger(ua)
        rho_b = ub @ np.diag([0.9, 0.1]).astype(complex) @ dagger(ub)
        rho = np.kron(rho_a, rho_b)
        assert np.max(np.abs(partial_trace(rho, 2, (2,)) - rho_a)) < 1e-12
        assert np.max(np.abs(partial_trace(rho, 2, (1,)) - rho_b)) < 1e-12
        assert abs(partial_trace(rho, 2, (1, 2)).item() - 1.0) < 1e-12


def test_partial_trace_maximally_entangled_marginals():
    rho = projector(PHI_PLUS)
    for pos in ((1,), (2,)):
        assert np.max(np.abs(partial_trace(rho, 2, pos) - ID2 / 2.0)) < 1e-15


def test_partial_trace_three_qubits():
    rng = np.random.default_rng(5)
    parts = []
    for w in ((0.6, 0.4), (0.8, 0.2), (0.55, 0.45)):
        u = haar_unitary(rng)
        parts.append(u @ np.diag(w).astype(complex) @ dagger(u))
    rho = np.kron(np.kron(parts[0], parts[1]), parts[2])
    assert np.max(np.abs(partial_trace(rho, 3, (1, 3)) - parts[1])) < 1e-12
    assert np.max(np.abs(partial_trace(rho, 3, (2, 3)) - parts[0])) < 1e-12


def test_partial_trace_validates_positions():
    rho = projector(PHI_PLUS)
    with pytest.raises(ValueError):
        partial_trace(rho, 2, (0,))
    with pytest.raises(ValueError):
        partial_trace(rho, 2, (3,))
    with pytest.raises(ValueError):
        partial_trace(rho, 3, (1,))


def test_svd_reconstructs_and_orders():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, s, v = svd(m)
        assert np.max(np.abs(m - u @ np.diag(s) @ dagger(v))) < 1e-12
        assert s[0] >= s[1] >= 0.0
        assert is_unitary(u) and is_unitary(v)
        for i in range(2):
            lead = u[int(np.argmax(np.abs(u[:, i]))), i]
            assert abs(lead.imag) < 1e-12 and lead.real > 0.0


def test_svd_is_deterministic_on_degenerate_input():
    for m in (np.eye(2, dtype=complex), np.diag([1.0, 1.0 + 5e-15]).astype(complex)):
        u1, s1, v1 = svd(m)
        u2, s2, v2 = svd(m)
        assert np.array_equal(u1, u2) and np.array_equal(s1, s2) and np.array_equal(v1, v2)
    # The identity keeps its natural basis order despite the tie.
    u, s, v = svd(np.eye(2, dtype=complex))
    assert np.allclose(u, ID2) and np.allclose(v, ID2)


def test_eig_hermitian_descending_and_reconstruction():
    rng = np.random.default_rng(13)
    for _ in range(30):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g + dagger(g)) / 2.0
        w, vecs = eig_hermitian(h)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.max(np.abs(vecs @ np.diag(w) @ dagger(vecs) - h)) < 1e-11
        assert is_unitary(vecs)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_schmidt_known_states():
    form = schmidt(PHI_PLUS)
    assert np.max(np.abs(form.coeffs - np.sqrt(0.5))) < 1e-12
    assert np.max(np.abs(schmidt_vector(form) - PHI_PLUS)) < 1e-12
    product = np.kron(np.array([1.0, 0.0]), np.array([0.0, 1.0])).astype(complex)
    form = schmidt(product)
    assert abs(form.coeffs[0] - 1.0) < 1e-12 and abs(form.coeffs[1]) < 1e-12


def test_schmidt_random_states_reconstruct():
    rng = np.random.default_rng(23)
    for _ in range(50):
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec = vec / np.linalg.norm(vec)
        form = schmidt(vec)
        assert form.coeffs[0] >= form.coeffs[1] >= 0.0
        # Schmidt form reproduces the state up to a global phase only when the
        # gauge absorbs it; the reconstruction must match exactly here because
        # the basis columns carry the phase.
        assert np.max(np.abs(schmidt_vector(form) - vec)) < 1e-12


def test_schmidt_validates_input():
    with pytest.raises(ValueError):
        schmidt(np.array([1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        schmidt(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))
