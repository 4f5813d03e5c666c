"""Two-Kraus-operator (TKO) qubit channels and their canonical form.

A TKO channel acts as rho -> C1 rho C1^dag + C2 rho C2^dag.  Any such pair
can be rewritten, without changing the map, as

    C1 = U diag(1, sqrt(1-p)) V^dag
    C2 = sqrt(p) U [[0, eta], [0, zeta]] V^dag,      |eta|^2 + zeta^2 = 1,

which isolates the noise severity p and the channel type |eta| (0 for
phase damping, 1 for amplitude damping).  `canonicalize` recovers these
parameters from an arbitrary valid pair; `choi` certifies that two pairs
implement the same map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EntanglementDestroyedError, SingleKrausChannelError
from .linalg import ATOL, ID2, PHI_PLUS, dagger, is_unitary, projector, svd

_RANK1_TOL = 1e-12
# A channel is unitary iff its Choi matrix has rank one.  For a genuine
# two-operator channel the second Choi eigenvalue is at least p/4, so this
# cutoff only reclassifies channels with p below ~4e-12 as unitary.
_UNITARY_TOL = 1e-12
_PHI_PLUS_STATE = projector(PHI_PLUS)
# Why a single channel with p >= 1 fails; a sweep folds it into the cell instead.
_DESTROYED = "p={} leaves no entanglement to distill"


def _as_kraus_matrix(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"{name} must be a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


@dataclass(frozen=True)
class KrausPair:
    """Two 2x2 Kraus operators; completeness is checked by validate()."""

    c1: np.ndarray
    c2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c1", _as_kraus_matrix(self.c1, "c1"))
        object.__setattr__(self, "c2", _as_kraus_matrix(self.c2, "c2"))


@dataclass(frozen=True)
class ChannelValidation:
    ok: bool
    deviation: float


@dataclass(frozen=True)
class CanonicalChannelParams:
    """Normal-form parameters (p, eta, zeta, u, v) of a TKO channel."""

    p: float
    eta: complex
    zeta: float
    u: np.ndarray = field(default_factory=lambda: ID2.copy())
    v: np.ndarray = field(default_factory=lambda: ID2.copy())

    def __post_init__(self):
        object.__setattr__(self, "eta", complex(self.eta))
        object.__setattr__(self, "zeta", float(self.zeta))
        object.__setattr__(self, "u", _as_kraus_matrix(self.u, "u"))
        object.__setattr__(self, "v", _as_kraus_matrix(self.v, "v"))
        p, abs_eta = _check_domain(self.p, abs(self.eta))
        object.__setattr__(self, "p", float(p))
        if abs_eta < abs(self.eta):
            object.__setattr__(self, "eta", self.eta / abs(self.eta))
        if not self.zeta >= -ATOL:  # NaN fails it too
            raise ValueError(f"zeta must be a non-negative number, got {self.zeta}")
        if abs(abs(self.eta) ** 2 + self.zeta**2 - 1.0) > ATOL:
            raise ValueError("|eta|^2 + zeta^2 must equal 1")
        if not is_unitary(self.u) or not is_unitary(self.v):
            raise ValueError("u and v must be unitary within tolerance")

    @property
    def abs_eta(self) -> float:
        return abs(self.eta)


def _check_domain(p, abs_eta, distillable: bool = False):
    """The one rule on (p, |eta|), elementwise; returns both clamped into [0, 1].

    A value within ATOL of [0, 1] is clamped into it, so values inside stay
    bit-identical; anything else, NaN included, is malformed (ValueError).
    With ``distillable``, p >= 1 after clamping raises
    EntanglementDestroyedError: the channel leaves no entanglement.
    """
    p, abs_eta = np.asarray(p, dtype=float), np.asarray(abs_eta, dtype=float)
    for x, text in (
        (p, "noise severity p={} outside [0, 1]"),
        (abs_eta, "|eta| must lie in [0, 1], got {}"),
    ):
        inside = (x >= -ATOL) & (x <= 1.0 + ATOL)
        if not inside.all():
            raise ValueError(text.format(float(x.flat[np.argmin(inside)])))
    p, abs_eta = np.clip(p, 0.0, 1.0), np.clip(abs_eta, 0.0, 1.0)
    if distillable and p.max() >= 1.0:
        raise EntanglementDestroyedError(_DESTROYED.format(float(p.max())))
    return p, abs_eta


def validate(kp: KrausPair) -> ChannelValidation:
    """Report whether c1^dag c1 + c2^dag c2 = I within tolerance."""
    dev = float(np.linalg.norm(dagger(kp.c1) @ kp.c1 + dagger(kp.c2) @ kp.c2 - ID2))
    return ChannelValidation(ok=dev <= ATOL, deviation=dev)


def require_valid(kp: KrausPair) -> None:
    report = validate(kp)
    if not report.ok:
        raise ValueError(
            f"Kraus pair is not trace preserving (completeness deviation {report.deviation:.3e})"
        )


def remix(kp: KrausPair, a: np.ndarray) -> KrausPair:
    """Mix the pair by a 2x2 unitary: [c1' c2'] = [c1 c2] (a (x) I).

    Remixing never changes the channel map, only its Kraus representation.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2) or not is_unitary(a):
        raise ValueError("remix matrix must be 2x2 unitary")
    return KrausPair(
        a[0, 0] * kp.c1 + a[1, 0] * kp.c2,
        a[0, 1] * kp.c1 + a[1, 1] * kp.c2,
    )


def kraus_from_params(cp: CanonicalChannelParams) -> KrausPair:
    """Exact Kraus matrices of the canonical form."""
    root = np.sqrt(max(1.0 - cp.p, 0.0))
    d1 = np.array([[1.0, 0.0], [0.0, root]], dtype=complex)
    d2 = np.sqrt(cp.p) * np.array([[0.0, cp.eta], [0.0, cp.zeta]], dtype=complex)
    return KrausPair(cp.u @ d1 @ dagger(cp.v), cp.u @ d2 @ dagger(cp.v))


def choi(kp: KrausPair) -> np.ndarray:
    """Choi state sum_k (I (x) C_k) |Phi+><Phi+| (I (x) C_k)^dag.

    Two Kraus pairs implement the same channel map iff their Choi matrices
    are equal, which makes this the remix-invariant equality certificate.
    It is also the state the agents share: |Phi+> with its second half sent
    through the channel.
    """
    out = np.zeros((4, 4), dtype=complex)
    for c in (kp.c1, kp.c2):
        op = np.kron(ID2, c)
        out += op @ _PHI_PLUS_STATE @ dagger(op)
    return out


def _fold_to_rank_one(kp: KrausPair) -> KrausPair:
    """Remix the pair so the second operator has rank one.

    If c2 already has rank one (or zero) the pair is returned unchanged.
    Otherwise the quadratic det(-c1 + x c2) = 0 is solved (its leading
    coefficient det(c2) is nonzero in this branch) and the root whose remix
    produces the smaller residual second singular value is kept.
    """
    c1, c2 = kp.c1, kp.c2
    s2 = np.linalg.svd(c2, compute_uv=False)
    if s2[1] <= _RANK1_TOL:
        return kp
    # det(-c1 + x c2) = det(c2) x^2 + (tr(c1 c2) - tr(c1) tr(c2)) x + det(c1)
    qa = np.linalg.det(c2)
    qb = np.trace(c1 @ c2) - np.trace(c1) * np.trace(c2)
    qc = np.linalg.det(c1)
    roots = np.roots([qa, qb, qc])
    best = None
    for x0 in roots:
        norm = np.sqrt(1.0 + abs(x0) ** 2)
        a = np.array([[np.conj(x0), -1.0], [1.0, x0]], dtype=complex) / norm
        candidate = remix(kp, a)
        resid = np.linalg.svd(candidate.c2, compute_uv=False)[1]
        if best is None or resid < best[0]:
            best = (resid, candidate)
    return best[1]


def canonicalize(kp: KrausPair) -> CanonicalChannelParams:
    """Recover the canonical parameters (p, eta, zeta, u, v) of a valid pair.

    Procedure: remix so the second operator is rank one; read sqrt(p) off its
    largest singular value; take u, v from the SVD of the first operator
    (completeness forces its singular values to (1, sqrt(1-p))); then express
    the second operator in the u/v bases, whose last column is
    sqrt(p) (eta, zeta)^T up to a free overall phase.  That phase is fixed so
    zeta is real non-negative (or eta real positive when zeta vanishes).

    Raises SingleKrausChannelError when the channel is unitary in disguise
    and ValueError for pairs that are not trace preserving.
    """
    require_valid(kp)
    if np.linalg.norm(kp.c2) < _RANK1_TOL:
        raise SingleKrausChannelError("second Kraus operator vanishes; channel is unitary")
    if np.linalg.eigvalsh(choi(kp))[-2] < _UNITARY_TOL:
        raise SingleKrausChannelError(
            "Kraus pair implements a unitary channel in disguise"
        )
    folded = _fold_to_rank_one(kp)
    c1, c2 = folded.c1, folded.c2
    s2 = np.linalg.svd(c2, compute_uv=False)
    if s2[0] < _RANK1_TOL:
        raise SingleKrausChannelError(
            "Kraus pair remixes to a single unitary operator; channel is unitary"
        )
    if s2[1] > 1e-7:
        raise ValueError("could not reduce the second Kraus operator to rank one")
    p = float(min(max(s2[0] ** 2, 0.0), 1.0))

    u, s1, v = svd(c1)
    expected = np.array([1.0, np.sqrt(max(1.0 - p, 0.0))])
    if np.max(np.abs(s1 - expected)) > 1e-7:
        raise ValueError("first Kraus operator is inconsistent with a TKO canonical form")

    m = dagger(u) @ c2 @ v
    if np.linalg.norm(m[:, 0]) > 1e-7:
        raise ValueError("second Kraus operator does not share the first operator's row space")
    eta_raw = m[0, 1] / np.sqrt(p)
    zeta_raw = m[1, 1] / np.sqrt(p)
    anchor = zeta_raw if abs(zeta_raw) > 1e-9 else eta_raw
    phase = anchor / abs(anchor)
    eta = eta_raw / phase
    zeta = abs(zeta_raw) if abs(zeta_raw) > 1e-9 else float(np.real(zeta_raw / phase))
    scale = np.sqrt(abs(eta) ** 2 + zeta**2)
    return CanonicalChannelParams(p=p, eta=eta / scale, zeta=max(zeta, 0.0) / scale, u=u, v=v)
