"""Dense complex linear algebra helpers for few-qubit density matrices.

Everything here is a pure function on small (2x2 .. 4x4) numpy arrays.
Decompositions wrap LAPACK and pin the phase gauge of each column, so that
repeated runs produce identical matrices.  Only `svd` also pins the order
inside tied values; `eig_hermitian` keeps LAPACK's descending order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance of the structural checks: hermiticity, unitarity, normalization.
ATOL = 1e-9

ID2 = np.eye(2, dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
# |Phi+> in the |ab> = 2a+b basis ordering.
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def projector(ket: np.ndarray) -> np.ndarray:
    """Rank-1 projector |ket><ket|."""
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    return np.outer(ket, ket.conj())


def pure_fidelity(rho: np.ndarray, ket: np.ndarray) -> float:
    """Overlap <ket|rho|ket> as a real number, or one per state of a stack.

    One (1, d) @ (d, 1) product per state: in a stack it rounds as it does alone."""
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    return np.real((ket.conj() @ rho)[..., None, :] @ ket[:, None])[..., 0, 0]


def is_hermitian(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m - dagger(m))) <= ATOL)


def is_unitary(m: np.ndarray) -> bool:
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(dagger(m) @ m - np.eye(m.shape[1]))) <= ATOL)


def check_density_matrix(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eig_hermitian(rho), once rho is checked to be a trace-1 PSD two-qubit matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > ATOL or abs(np.trace(rho).imag) > ATOL:
        raise ValueError("density matrix trace differs from 1")
    evals, evecs = eig_hermitian(rho)
    if evals[-1] < -ATOL:
        raise ValueError(f"density matrix has negative eigenvalue {evals[-1]:.3e}")
    return evals, evecs


def column_phases(m: np.ndarray) -> np.ndarray:
    """Unit phase of the largest-magnitude entry of each column of a unitary m.

    Dividing each column by its phase makes that entry real positive, the one
    phase gauge of this module's decompositions.
    """
    top = m[np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])]
    return top / np.hypot(top.real, top.imag)


def _lex_key(vec: np.ndarray):
    return tuple(np.round(vec.real, 10)) + tuple(np.round(vec.imag, 10))


def _order_degenerate(vals: np.ndarray, *mats: np.ndarray) -> None:
    """Reorder columns inside (numerically) tied value groups, in place.

    Ties are resolved by descending lexicographic order on the gauge-fixed
    leading column of mats[0], which keeps e.g. the identity decomposition
    in natural basis order.  Only `svd` applies it: the Schmidt basis of a
    near-maximally entangled state rests on it.  An eigenvalue tie is left in
    LAPACK's order, because a value 1e-13 smaller could otherwise come first.
    """
    scale = max(1.0, float(np.max(np.abs(vals)))) if vals.size else 1.0
    i = 0
    while i < vals.size:
        j = i + 1
        while j < vals.size and abs(vals[j] - vals[i]) <= 1e-13 * scale:
            j += 1
        if j - i > 1:
            cols = sorted(range(i, j), key=lambda c: _lex_key(mats[0][:, c]), reverse=True)
            vals[i:j] = vals[cols]
            for m in mats:
                m[:, i:j] = m[:, cols]
        i = j


def svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD m = U diag(s) V^dag of a square m, s descending, deterministic gauge."""
    m = np.asarray(m, dtype=complex)
    u, s, vh = np.linalg.svd(m)
    phases = column_phases(u)
    u = u / phases
    v = vh.conj().T / phases
    _order_degenerate(s, u, v)
    return u, s, v


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, vecs = np.linalg.eigh((h + dagger(h)) / 2.0)
    w = np.ascontiguousarray(w[::-1])
    vecs = vecs[:, ::-1]
    return w, vecs / column_phases(vecs)


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt decomposition of a two-qubit pure state.

    coeffs are real non-negative and descending; basis_a / basis_b hold the
    local Schmidt vectors as columns, so the state is
    sum_i coeffs[i] * basis_a[:, i] (x) basis_b[:, i].
    """

    coeffs: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray


def schmidt(state: np.ndarray) -> SchmidtForm:
    """Schmidt form of a normalized two-qubit pure state via 2x2 SVD."""
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape != (4,):
        raise ValueError("expected a 4-component state vector")
    if abs(np.linalg.norm(state) - 1.0) > ATOL:
        raise ValueError("state vector is not normalized within tolerance")
    u, s, v = svd(state.reshape(2, 2))
    return SchmidtForm(coeffs=s, basis_a=u, basis_b=v.conj())
