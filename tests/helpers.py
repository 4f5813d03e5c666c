"""Shared helpers for the test suite: parameter grids, random channels, the
round-1 closed-form oracle and the 16x16 two-pair oracle for the exact round."""

from __future__ import annotations

from itertools import product

import numpy as np

from tko_distill import CanonicalChannelParams, KrausPair, Policy, kraus_from_params, remix

# (p, |eta|) grid: nine noise severities times five channel types running from
# phase damping (|eta| = 0) to amplitude damping (|eta| = 1).
P_VALUES = tuple(round(0.1 * k, 1) for k in range(1, 10))
ETA_FRACTIONS = (0.0, 0.125, 0.25, 0.375, 0.5)  # arcsin|eta| / pi
ABS_ETAS = tuple(float(np.sin(np.pi * x)) for x in ETA_FRACTIONS)
GRID = tuple((p, e) for p in P_VALUES for e in ABS_ETAS)

ID2 = np.eye(2, dtype=complex)


def haar_unitary(rng: np.random.Generator, n: int = 2) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def plain_params(p: float, abs_eta: float) -> CanonicalChannelParams:
    """Canonical channel with identity basis rotations and real eta."""
    return CanonicalChannelParams(
        p=float(p),
        eta=complex(abs_eta),
        zeta=float(np.sqrt(max(1.0 - abs_eta**2, 0.0))),
        u=ID2.copy(),
        v=ID2.copy(),
    )


def random_channel(
    rng: np.random.Generator,
    p: float | None = None,
    complex_eta: bool = True,
    dressed: bool = True,
    remixed: bool = True,
) -> tuple[KrausPair, float, float]:
    """Random two-Kraus channel; returns (kraus_pair, p, |eta|).

    `dressed` draws Haar-random basis rotations, `remixed` scrambles the two
    Kraus operators by a random unitary recombination (which leaves the
    channel map itself unchanged).
    """
    if p is None:
        p = float(rng.uniform(0.01, 0.99))
    angle = float(rng.uniform(0.0, np.pi / 2.0))
    abs_eta = float(np.sin(angle))
    zeta = float(np.cos(angle))
    phase = np.exp(2j * np.pi * rng.uniform()) if complex_eta else 1.0
    u = haar_unitary(rng) if dressed else ID2.copy()
    v = haar_unitary(rng) if dressed else ID2.copy()
    kp = kraus_from_params(
        CanonicalChannelParams(p=p, eta=abs_eta * phase, zeta=zeta, u=u, v=v)
    )
    if remixed:
        kp = remix(kp, haar_unitary(rng))
    return kp, p, abs_eta


def first_round_closed_form(
    f0: float, alpha: float, beta: float, gamma: float, delta: float, policy: Policy
) -> tuple[float, float]:
    """Direct closed forms (P1, F1) in the raw state parameters.

    P1 composes the filter keep probability with the round-1 branch.  The
    library reaches round 1 through rssp_analytic + first_round_rates; this
    algebraically identical route is the independent oracle that both that
    path and the exact engine are checked against.
    """
    odd = alpha**2 * gamma**2 + beta**2 * delta**2
    if policy is Policy.FP:
        p1 = (f0**2 * alpha**2 * beta**4 + (1.0 - f0) ** 2 * beta**2 * gamma**2 * delta**2) / (
            2.0 * f0 * alpha**2 * beta**2 + (1.0 - f0) * odd
        )
        f1 = f0**2 / (f0**2 + (1.0 - f0) ** 2 * (gamma * delta / (alpha * beta)) ** 2)
        return p1, f1
    if policy is Policy.PP:
        p1 = (4.0 * f0**2 * alpha**4 * beta**4 + (1.0 - f0) ** 2 * odd**2) / (
            4.0 * f0 * alpha**4 * beta**2 + 2.0 * (1.0 - f0) * alpha**2 * odd
        )
        f1 = f0**2 / (f0**2 + 0.25 * (1.0 - f0) ** 2 * (gamma**2 / beta**2 + delta**2 / alpha**2) ** 2)
        return p1, f1
    raise ValueError(f"no closed-form first round for policy {policy}")


# ---------------------------------------------------------------------------
# 16x16 two-pair oracle for one bilateral-CNOT round
#
# Written independently of the library's entrywise engine: two copies of the
# pair are stacked, reordered to (A1, A2, B1, B2), hit by CNOT (x) CNOT and
# projected onto each target outcome.

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
BILATERAL_CNOT = np.kron(CNOT, CNOT)


def _pair_interleave() -> np.ndarray:
    """Permutation taking |a1 b1 a2 b2> (two stacked pairs) to |a1 a2 b1 b2>."""
    perm = np.zeros((16, 16))
    for a1, b1, a2, b2 in product((0, 1), repeat=4):
        perm[8 * a1 + 4 * a2 + 2 * b1 + b2, 8 * a1 + 4 * b1 + 2 * a2 + b2] = 1.0
    return perm


PAIR_INTERLEAVE = _pair_interleave()

# Outcomes kept by the fully- and probability-prioritized rounds.
FP_KEEP = ((1, 1),)
PP_KEEP = ((0, 0), (1, 1))


def joint_state(pair_state: np.ndarray) -> np.ndarray:
    """Two copies of a pair state in (A1, A2, B1, B2) qubit order."""
    return PAIR_INTERLEAVE @ np.kron(pair_state, pair_state) @ PAIR_INTERLEAVE.T


def oracle_branch_blocks(pair_state: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Unnormalized kept-pair block of each target outcome (j, k)."""
    rho = BILATERAL_CNOT @ joint_state(np.asarray(pair_state, dtype=complex)) @ BILATERAL_CNOT.T
    blocks = {}
    for j, k in product((0, 1), repeat=2):
        proj = np.kron(np.kron(ID2, np.eye(1, 2, j)), np.kron(ID2, np.eye(1, 2, k)))
        blocks[(j, k)] = proj @ rho @ proj.T
    return blocks


def oracle_round(pair_state: np.ndarray, keep) -> tuple[float, np.ndarray]:
    """Keep probability per input pair and normalized state after keeping `keep`."""
    blocks = oracle_branch_blocks(pair_state)
    kept = sum(blocks[key] for key in keep)
    prob = float(np.trace(kept).real)
    return prob / 2.0, kept / prob
