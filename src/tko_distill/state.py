"""Canonical decomposition of entangled states shared through a TKO channel.

Sending half of |Phi+> through a canonical-form channel (p, |eta|) yields a
rank-2 state that local unitaries u_a, u_b bring to the two-term mixture

    F |mu><mu| + (1-F) |nu><nu|,
    |mu> = alpha|00> + beta|11>,   |nu> = gamma|01> + delta e^{i theta}|10>,

with all coefficients real non-negative and ordered
gamma <= beta <= 1/sqrt2 <= alpha <= delta.  `canonical_decompose` recovers
(F, alpha, beta, gamma, delta, theta, u_a, u_b) from the density matrix: a
mixed state through one rotation built from its two eigenvectors, the pure
noiseless state through the Schmidt basis of its one eigenvector.
`params_analytic` evaluates the closed forms directly from (p, |eta|).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import KrausPair, _check_domain, choi
from .errors import NonDistillableError
from .linalg import (
    ATOL,
    HADAMARD,
    ID2,
    check_density_matrix,
    column_phases,
    dagger,
    is_unitary,
    projector,
    schmidt,
)

# Top eigenvalues within this of 1/2 count as 1/2.  It sits above eigenvalue
# rounding (F - 1/2 of a dressed 1/2 Phi+ + 1/2 nu state rounds to < 1e-15) and
# below F - 1/2 = (1 - p)/2 of amplitude damping at p = 1 - 1e-13, which the
# closed forms still distill.
_HALF_TOL = 1e-14


@dataclass(frozen=True)
class CanonicalStateParams:
    """Canonical two-term mixture parameters plus the local unitaries."""

    fidelity: float
    alpha: float
    beta: float
    gamma: float
    delta: float
    theta: float
    u_a: np.ndarray = field(default_factory=lambda: ID2.copy())
    u_b: np.ndarray = field(default_factory=lambda: ID2.copy())

    def __post_init__(self):
        for name in ("fidelity", "alpha", "beta", "gamma", "delta", "theta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "theta", float(self.theta % (2.0 * np.pi)))
        object.__setattr__(self, "u_a", np.asarray(self.u_a, dtype=complex))
        object.__setattr__(self, "u_b", np.asarray(self.u_b, dtype=complex))
        if not 0.5 < self.fidelity <= 1.0 + ATOL:
            raise ValueError(f"fidelity weight {self.fidelity} outside (1/2, 1]")
        if abs(self.alpha**2 + self.beta**2 - 1.0) > ATOL:
            raise ValueError("alpha^2 + beta^2 must equal 1")
        if abs(self.gamma**2 + self.delta**2 - 1.0) > ATOL:
            raise ValueError("gamma^2 + delta^2 must equal 1")
        half = np.sqrt(0.5)
        chain = (
            -ATOL <= self.gamma <= self.beta + ATOL <= half + 2 * ATOL
            and half - ATOL <= self.alpha <= self.delta + ATOL <= 1.0 + 2 * ATOL
        )
        if not chain:
            raise ValueError(
                "Schmidt weights must satisfy gamma <= beta <= 1/sqrt2 <= alpha <= delta"
            )
        if not is_unitary(self.u_a) or not is_unitary(self.u_b):
            raise ValueError("u_a and u_b must be unitary within tolerance")

    def mu(self) -> np.ndarray:
        return np.array([self.alpha, 0.0, 0.0, self.beta], dtype=complex)

    def nu(self) -> np.ndarray:
        return np.array(
            [0.0, self.gamma, self.delta * np.exp(1j * self.theta), 0.0], dtype=complex
        )

    def density(self) -> np.ndarray:
        """The canonical mixture F |mu><mu| + (1-F) |nu><nu|."""
        return self.fidelity * projector(self.mu()) + (1.0 - self.fidelity) * projector(self.nu())


def shared_state(kp: KrausPair) -> np.ndarray:
    """State shared by the agents: |Phi+> with its second half sent through kp."""
    return choi(kp)


def params_analytic(p: float, abs_eta: float) -> tuple[float, float, float, float, float]:
    """Closed-form (F, alpha, beta, gamma, delta) for a canonical channel.

    p = 0 returns the noiseless convention F = 1, all weights 1/sqrt2.
    Scalars pass the (p, |eta|) domain rule and give floats; arrays of
    (p, |eta|) already in [0, 1) x [0, 1] give arrays, elementwise.
    """
    if np.ndim(p) == 0:
        p, abs_eta = _check_domain(p, abs_eta, distillable=True)
        return tuple(float(x[0]) for x in params_analytic(p.reshape(1), abs_eta.reshape(1)))
    root = np.sqrt((1.0 - p) * (1.0 - abs_eta**2 * p))
    f = 0.5 + 0.5 * root
    noiseless = f >= 1.0 - 1e-15
    # 1 - f, beta^2 = 1/2 - |eta| p/(4f) and gamma^2 = 1/2 - |eta| p/(4(1-f)) (zero
    # at |eta| = 1) as quotients of sums, so nothing cancels.  With s = 1 - |eta| p
    # and c = p (1-|eta|)^2, root^2 = s^2 - c = 1 - p (1 + |eta|^2 (1-p)), so
    #     1 - f = p (1 + |eta|^2 (1-p)) / (2(1 + root)),  beta^2 = (s + root) / (4f),
    #     gamma^2 = c / ((s + root) 4(1-f)).
    c = p * (1.0 - abs_eta) ** 2
    s = 1.0 - abs_eta * p
    one_minus_f = p * (1.0 + abs_eta**2 * (1.0 - p)) / (2.0 * (1.0 + root))
    alpha = np.sqrt(0.5 + abs_eta * p / (4.0 * f))
    beta = np.sqrt((s + root) / (4.0 * f))
    gamma2 = np.clip(c / ((s + root) * 4.0 * np.where(noiseless, 1.0, one_minus_f)), 0.0, 0.5)
    weights = (alpha, beta, np.sqrt(gamma2), np.sqrt(1.0 - gamma2))
    return (np.where(noiseless, 1.0, f), *(np.where(noiseless, np.sqrt(0.5), w) for w in weights))


def _bloch_spinor(axis: np.ndarray) -> np.ndarray:
    """Unit spinor whose Bloch vector is the given real unit axis."""
    theta = np.arccos(np.clip(axis[2], -1.0, 1.0))
    az = np.arctan2(axis[1], axis[0])
    return np.array([np.cos(theta / 2.0), np.sin(theta / 2.0) * np.exp(1j * az)])


def _local_rotations(
    psi: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, beta) and the local rotations u_a, u_b, built from both eigenvectors.

    Writing W = sqrt2 * mat(psi), orthogonality of psi and phi makes
    G = sqrt2 * mat(phi) W^dag traceless.  With u_b the unitary polar factor
    of conj(u_a W), P = u_a W u_b^T is positive (diagonal for a TKO state once
    u_a is right, with sqrt2 (alpha, beta) as its singular values) and the
    rotated phi has matrix (u_a G u_a^dag) P^-1 / sqrt2, so phi lands in
    span{|01>, |10>} exactly when that conjugation zeroes G's diagonal.

    Writing G = g . sigma (complex Pauli vector g), the diagonal of the
    conjugated G is the projection of g onto the rotated z-axis, so u_a must
    map some real axis perpendicular to both Re g and Im g onto z.  When G is
    unitary (phi maximally entangled too, the eta = 0 family) that plane is a
    full great circle and the eigenbasis-onto-|+/-> choice is used instead,
    which reduces to the Hadamard pair on the plain phase-damping state.
    """
    w = np.sqrt(2.0) * psi.reshape(2, 2)
    g = np.sqrt(2.0) * phi.reshape(2, 2) @ dagger(w)

    if np.linalg.norm(dagger(g) @ g - ID2) < 1e-8:
        # Unitary G = lambda (n . sigma): rotate its eigenbasis onto |+>, |->.
        evals, evecs = np.linalg.eig(g)
        order = np.lexsort((-evals.imag, -evals.real))
        g_plus = evecs[:, order[0]] / np.linalg.norm(evecs[:, order[0]])
        g_minus = evecs[:, order[1]]
        g_minus = g_minus - (g_plus.conj() @ g_minus) * g_plus
        g_minus = g_minus / np.linalg.norm(g_minus)
        u_a = HADAMARD @ dagger(np.column_stack([g_plus, g_minus]))
    else:
        gvec = np.array(
            [(g[0, 1] + g[1, 0]) / 2.0, (g[1, 0] - g[0, 1]) / 2.0j, g[0, 0]]
        )
        re, im = gvec.real, gvec.imag
        axis = np.cross(re, im)
        norm = np.linalg.norm(axis)
        if norm > 1e-8 * max(np.linalg.norm(re) * np.linalg.norm(im), 1e-300):
            axis = axis / norm
        else:
            # Re g and Im g (numerically) share a line; any perpendicular works.
            n = re if np.linalg.norm(re) >= np.linalg.norm(im) else im
            n = n / np.linalg.norm(n)
            helper = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
            axis = np.cross(n, helper)
            axis = axis / np.linalg.norm(axis)
        v = _bloch_spinor(axis)
        u_a = np.array([[v[0].conj(), v[1].conj()], [-v[1], v[0]]])

    left, s, right = np.linalg.svd((u_a @ w).conj())
    u_b = left @ right
    # Orientation: keep the smaller nu component on |01> (gamma <= delta);
    # X (x) X swaps both while fixing |Phi+>.  A tie (gamma = delta, the
    # |eta| = 0 family) keeps the orientation built above, so rounding cannot
    # flip it.
    nu = np.kron(u_a, u_b) @ phi
    if abs(nu[1]) > abs(nu[2]) + 1e-12:
        u_a, u_b = u_a[::-1], u_b[::-1]
    # Row-phase gauge: largest entry of each u_a row real positive, with
    # compensating phases on u_b so mu keeps real non-negative coefficients.
    # Pins the Hadamard pair on the plain phase-damping state.
    phases = column_phases(u_a.T)[:, None]
    u_a = phases.conj() * u_a
    u_b = phases * u_b
    return s / np.sqrt(2.0), u_a, u_b


def canonical_decompose(rho: np.ndarray) -> CanonicalStateParams:
    """Recover the canonical mixture parameters of a TKO-channel state.

    The construction follows the rank-2 spectral decomposition.  A mixed
    state takes its local rotations from both eigenvectors (see
    _local_rotations): they carry the top eigenvector onto
    alpha|00> + beta|11> and the second into span{|01>, |10>}, where gamma,
    delta and theta are read off.  The pure noiseless state takes the Schmidt
    rotation of its one eigenvector and fixes nu by convention.

    Raises ValueError for states of rank > 2 or states that are not locally
    equivalent to the canonical form, and NonDistillableError when the top
    eigenvalue is at or below 1/2.
    """
    evals, evecs = check_density_matrix(rho)
    if evals[2] > ATOL:
        raise ValueError(
            f"state has rank > 2 (third eigenvalue {evals[2]:.3e}); not a TKO-channel state"
        )
    f = float(evals[0])
    if f <= 0.5 + _HALF_TOL:
        raise NonDistillableError(
            f"fidelity weight {f:.6f} is at or below 1/2; state cannot be distilled"
        )
    psi, phi = evecs[:, 0], evecs[:, 1]
    if f >= 1.0 - ATOL:
        # Maximally entangled pure state; nu carries no weight, fix it by convention.
        sch = schmidt(psi)
        # The svd tie-break may reorder coefficients equal up to rounding.
        alpha, beta = sorted(sch.coeffs, reverse=True)
        half = np.sqrt(0.5)
        params = CanonicalStateParams(
            1.0, alpha, beta, half, half, 0.0, dagger(sch.basis_a), dagger(sch.basis_b)
        )
    else:
        (alpha, beta), u_a, u_b = _local_rotations(psi, phi)
        nu_raw = np.kron(u_a, u_b) @ phi
        gamma_amp, delta_amp = nu_raw[1], nu_raw[2]
        scale = float(np.hypot(abs(gamma_amp), abs(delta_amp)))
        if scale < 1e-12:
            raise ValueError("second eigenvector vanishes on span{|01>,|10>}")
        gamma = abs(gamma_amp) / scale
        delta = abs(delta_amp) / scale
        if gamma > 1e-9:
            theta = float(np.angle(delta_amp / gamma_amp))
        else:
            gamma, delta, theta = 0.0, 1.0, 0.0
        params = CanonicalStateParams(f, alpha, beta, gamma, delta, theta, u_a, u_b)
    _require_reconstruction(params, rho)
    return params


def _require_reconstruction(params: CanonicalStateParams, rho: np.ndarray) -> None:
    # Over 10x headroom on the worst construction error seen on dressed edge channels.
    dev = verify_canonical(params, rho)
    if dev > 1e-7:
        raise ValueError(
            f"state is not locally equivalent to a canonical TKO form (deviation {dev:.3e})"
        )


def verify_canonical(params: CanonicalStateParams, rho: np.ndarray) -> float:
    """Frobenius distance between the rotated state and its reconstruction."""
    rot = np.kron(params.u_a, params.u_b)
    return float(np.linalg.norm(rot @ np.asarray(rho, dtype=complex) @ dagger(rot) - params.density()))
