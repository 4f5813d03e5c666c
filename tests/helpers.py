"""Shared helpers for the test suite: parameter grids, random channels, channel
spec files for the CLI, the round-1 closed-form and optimal-fidelity oracles,
the 60-digit oracles for the closed-form state parameters and for the plain
channel's local frame, the 16x16 two-pair oracle for the exact round, the
scalar one-cell oracle for the column round loop, the 60-digit oracle for
QPA's agreeing-branch map, the einsum oracle for the random LOCC search, and
small tools that only the tests use (partial trace, Schmidt reconstruction,
branch-by-branch rounds, steering operators, stacked canonical states)."""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

import mpmath
import numpy as np

from tko_distill import (
    CanonicalChannelParams,
    CanonicalStateParams,
    DistillationTrace,
    DomainError,
    EntanglementDestroyedError,
    KrausPair,
    NonDistillableError,
    Policy,
    RoundRecord,
    canonical_decompose,
    kraus_from_params,
    params_analytic,
    remix,
    rssp_apply,
    shared_state,
)
from tko_distill.distill import _FLIPS, _branch_block
from tko_distill.linalg import HADAMARD, PHI_PLUS, SchmidtForm, dagger, pure_fidelity

# (p, |eta|) grid: nine noise severities times five channel types running from
# phase damping (|eta| = 0) to amplitude damping (|eta| = 1).
P_VALUES = tuple(round(0.1 * k, 1) for k in range(1, 10))
ETA_FRACTIONS = (0.0, 0.125, 0.25, 0.375, 0.5)  # arcsin|eta| / pi
ABS_ETAS = tuple(float(np.sin(np.pi * x)) for x in ETA_FRACTIONS)
GRID = tuple((p, e) for p in P_VALUES for e in ABS_ETAS)

ID2 = np.eye(2, dtype=complex)
PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)


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


def matrix_json(m: np.ndarray) -> list:
    """A 2x2 matrix as a channel spec holds it: row-major [re, im] entries."""
    return [[float(x.real), float(x.imag)] for x in np.asarray(m, dtype=complex).reshape(-1)]


def write_spec(directory: Path, spec, name: str = "channel.json") -> str:
    """Write a channel spec for ``--in`` as ``directory/name`` and return its path.

    A KrausPair is written as ``{"kraus": ...}``, canonical parameters as
    ``{"canonical": {"p", "eta" as [re, im], "u", "v"}}``, and anything else
    (a dict, to test the format's own rules) as it is.
    """
    if isinstance(spec, KrausPair):
        spec = {"kraus": [matrix_json(spec.c1), matrix_json(spec.c2)]}
    elif isinstance(spec, CanonicalChannelParams):
        eta, u, v = [spec.eta.real, spec.eta.imag], matrix_json(spec.u), matrix_json(spec.v)
        spec = {"canonical": {"p": spec.p, "eta": eta, "u": u, "v": v}}
    path = directory / name
    path.write_text(json.dumps(spec))
    return str(path)


def optimal_fidelity_params(
    f: float, alpha: float, beta: float, gamma: float, delta: float
) -> float:
    """Largest single-pair fidelity reachable from two copies by local operations.

    For the canonical two-term mixture the optimum is

        F* = F^2 / (F^2 + (1 - F)^2 (gamma delta / (alpha beta))^2),

    and the postselecting protocol's first round attains it.  The oracle for
    ``optimal_fidelity_channel``, which states it in channel parameters.
    """
    if not 0.5 < f <= 1.0:
        raise ValueError("fidelity weight must lie in (1/2, 1]")
    if alpha * beta <= 0.0:
        raise ValueError("alpha and beta must both be positive")
    ratio = (gamma * delta) / (alpha * beta)
    bad = (1.0 - f) ** 2 * ratio**2
    return f**2 / (f**2 + bad)


def oracle_params_60(p: float, abs_eta: float) -> tuple[float, float, float, float, float]:
    """(F, alpha, beta, gamma, delta) of the canonical channel (p, |eta|) at 60 digits.

    Straight from the defining forms F = (1 + sqrt((1 - p)(1 - |eta|^2 p)))/2,
    alpha^2 = 1/2 + |eta| p/(4F) and gamma^2 = 1/2 - |eta| p/(4(1 - F)), with
    beta^2 and delta^2 their complements; each value is rounded to the nearest
    double at the end.
    """
    with mpmath.workdps(60):
        p, abs_eta = mpmath.mpf(p), mpmath.mpf(abs_eta)
        half = mpmath.mpf(1) / 2
        f = (1 + mpmath.sqrt((1 - p) * (1 - abs_eta**2 * p))) / 2
        alpha2 = half + abs_eta * p / (4 * f)
        gamma2 = half - abs_eta * p / (4 * (1 - f))
        weights = (alpha2, 1 - alpha2, gamma2, 1 - gamma2)
        return (float(f), *(float(mpmath.sqrt(w)) for w in weights))


def oracle_frame(p: float, abs_eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Local frame (u_a, u_b) of the plain canonical channel (p, |eta|) at 60 digits.

    With R(phi) = [[cos phi, sin phi], [-sin phi, cos phi]] and
    zeta = sqrt(1 - |eta|^2): u_a = R(phi_a), u_b = R(phi_b), where
    tan 2 phi_a = zeta / (|eta| sqrt(1 - p)) and tan 2 phi_b = zeta / |eta|;
    theta is 0.  Both angles lie in [0, pi/4), so the largest entry of each
    u_a row is already real positive (the library's gauge).  |eta| = 0 gives
    the Hadamard pair, the library's tie convention.  Each entry is rounded
    to the nearest double at the end.
    """
    if abs_eta == 0.0:
        return HADAMARD.copy(), HADAMARD.copy()
    with mpmath.workdps(60):
        p, abs_eta = mpmath.mpf(p), mpmath.mpf(abs_eta)
        zeta = mpmath.sqrt(1 - abs_eta**2)

        def rotation(tan_num, tan_den):
            phi = mpmath.atan2(tan_num, tan_den) / 2
            c, s = float(mpmath.cos(phi)), float(mpmath.sin(phi))
            return np.array([[c, s], [-s, c]], dtype=complex)

        return rotation(zeta, abs_eta * mpmath.sqrt(1 - p)), rotation(zeta, abs_eta)


def first_round_closed_form(
    f0: float, alpha: float, beta: float, gamma: float, delta: float, policy: Policy
) -> tuple[float, float]:
    """Direct closed forms (P1, F1) in the raw state parameters.

    P1 composes the filter keep probability with the round-1 branch.  The
    library reaches round 1 through rssp_analytic, then ``_fp_first_round``
    (FP) or ``recurrence_step`` (PP); this algebraically identical route is
    the independent oracle that both that path and the exact engine are
    checked against.
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


# ---------------------------------------------------------------------------
# Scalar oracle for the column round loop
#
# One cell at a time, as the library ran before its round loop worked on
# column stacks: the closed forms on Python floats, one Python loop over
# rounds, and for the exact engine the entrywise round on one 4x4 state
# (the 16x16 oracle above holds that round itself).  Analytic QPA iterates
# its agreeing-branch map at 60 digits instead: the 4x4 round drifts from it
# by 2.1e-6 over 44 rounds at p = 0.1, |eta| = 1e-5.  Error classes and texts
# are the library's.


def oracle_params(p: float, abs_eta: float) -> tuple[float, float, float, float, float]:
    """Closed-form (F, alpha, beta, gamma, delta); p = 0 gives F = 1, weights 1/sqrt2."""
    root = np.sqrt((1.0 - p) * (1.0 - abs_eta**2 * p))
    f = 0.5 + 0.5 * root
    half = np.sqrt(0.5)
    if f >= 1.0 - 1e-15:
        return 1.0, half, half, half, half
    alpha = np.sqrt(0.5 + abs_eta * p / (4.0 * f))
    beta = np.sqrt(max(0.5 - abs_eta * p / (4.0 * f), 0.0))
    c = p * (1.0 - abs_eta) ** 2
    s = 1.0 - abs_eta * p
    gamma2 = min(max(c / ((s + root) * 4.0 * (1.0 - f)), 0.0), 0.5)
    return float(f), float(alpha), float(beta), float(np.sqrt(gamma2)), float(np.sqrt(1.0 - gamma2))


def _oracle_analytic(policy: Policy, p: float, abs_eta: float):
    """Prepared fidelity, its keep probability and the round step of a closed-form run."""
    f0, alpha, beta, gamma, delta = oracle_params(p, abs_eta)
    if policy is Policy.BBPSSW:
        f_init = f0 * (alpha + beta) ** 2 / 2.0
        if f_init <= 0.5:
            raise NonDistillableError(
                f"Werner fidelity {f_init:.6f} at or below 1/2 cannot be distilled"
            )

        def werner(k, f):
            p_succ = f * f + (2.0 / 3.0) * f * (1.0 - f) + (5.0 / 9.0) * (1.0 - f) ** 2
            return (f * f + (1.0 - f) ** 2 / 9.0) / p_succ, p_succ / 2.0

        return f_init, 1.0, werner
    if f0 <= 0.5:
        raise NonDistillableError(f"fidelity weight {f0} at or below 1/2 cannot be distilled")
    p_s = 2.0 * f0 * beta**2 + (1.0 - f0) * (gamma**2 + (beta * delta / alpha) ** 2)
    odd = alpha**2 * gamma**2 + beta**2 * delta**2
    f_t = 2.0 * f0 * alpha**2 * beta**2 / (2.0 * f0 * alpha**2 * beta**2 + (1.0 - f0) * odd)
    g_t, d_t = alpha * gamma / np.sqrt(odd), beta * delta / np.sqrt(odd)

    def agreeing(k, f):
        if k > 1:
            denom = f * f + (1.0 - f) * (1.0 - f)
            return f * f / denom, denom / 2.0
        if policy is Policy.FP:
            p_branch = 0.5 * f_t**2 + 2.0 * (1.0 - f_t) ** 2 * (g_t * d_t) ** 2
            return 0.5 * f_t**2 / p_branch, p_branch / 2.0
        p_branch = f_t**2 + (1.0 - f_t) ** 2
        return f_t**2 / p_branch, p_branch / 2.0

    return f_t, p_s, agreeing


def oracle_qpa(p: float, abs_eta: float, rounds: int) -> list[tuple[float, float]]:
    """(F_k, keep_k) of QPA on the canonical channel (p, |eta|) for k = 0..rounds.

    Iterates the agreeing-branch map (a, b, c) -> (a^2, b^2, c^2)/(a^2 + b^2),
    keep probability (a^2 + b^2)/2 and F = (a + c)/2, at 60 digits from the
    prepared state's a0 = (1 + s)/2, b0 = (1 - s)/2, c0 = a0 - |eta|^2 p/2,
    s = sqrt(1 - p); each value is rounded to the nearest double at the end.
    """
    with mpmath.workdps(60):
        p, abs_eta = mpmath.mpf(p), mpmath.mpf(abs_eta)
        s = mpmath.sqrt(1 - p)
        a, b = (1 + s) / 2, (1 - s) / 2
        c = a - abs_eta**2 * p / 2
        out = [(float((a + c) / 2), 1.0)]
        for _ in range(rounds):
            norm = a * a + b * b
            a, b, c = a * a / norm, b * b / norm, c * c / norm
            out.append((float((a + c) / 2), float(norm / 2)))
    return out


def _oracle_qpa(p: float, abs_eta: float, max_rounds: int):
    """Prepared fidelity, its keep probability and the 60-digit round step of analytic QPA."""
    rows = oracle_qpa(p, abs_eta, max_rounds)
    return rows[0][0], 1.0, lambda k, f: rows[k]


def _oracle_exact(policy: Policy, channel: CanonicalChannelParams):
    """Prepared fidelity, its keep probability and the 4x4 round step of an exact run."""
    rho = shared_state(kraus_from_params(channel))
    if policy is Policy.QPA:
        prep = np.kron(HADAMARD, HADAMARD)
        keep0, state = 1.0, prep @ rho @ dagger(prep)
    else:
        params = canonical_decompose(rho)
        rot = np.kron(params.u_a, params.u_b)
        keep0, state = rssp_apply(rot @ rho @ dagger(rot), params)

    def branch_round(k, f):
        nonlocal state
        kept = sum(
            state * state[np.ix_(flip, flip)]
            for j, m in (FP_KEEP if k == 1 and policy is Policy.FP else PP_KEEP)
            for flip in [np.arange(4) ^ (2 * j + m)]
        )
        prob = float(np.real(np.trace(kept)))
        state = kept / prob
        return pure_fidelity(state, PHI_PLUS), prob / 2.0

    return pure_fidelity(state, PHI_PLUS), keep0, branch_round


def oracle_trace(
    channel: CanonicalChannelParams,
    policy: Policy | str,
    f_th: float = 0.99,
    max_rounds: int = 64,
    engine: str | None = None,
) -> DistillationTrace:
    """One cell of ``run``: rounds until the threshold, the budget or, for
    QPA, a plateau below the threshold."""
    policy = Policy(policy)
    if channel.p >= 1.0:
        raise EntanglementDestroyedError(f"p={channel.p} leaves no entanglement to distill")
    engine = engine or "analytic"
    if engine == "analytic" and policy is Policy.QPA:
        f, keep0, step = _oracle_qpa(channel.p, channel.abs_eta, max_rounds)
    elif engine == "analytic":
        f, keep0, step = _oracle_analytic(policy, channel.p, channel.abs_eta)
    else:
        f, keep0, step = _oracle_exact(policy, channel)
    records = [RoundRecord(0, f, keep0, keep0)]
    cumulative, k = keep0, 0
    while f < f_th and k < max_rounds:
        k += 1
        f_prev = f
        f, keep = step(k, f)
        cumulative *= keep
        records.append(RoundRecord(k, f, keep, cumulative))
        if policy is Policy.QPA and abs(f - f_prev) < 1e-12:
            break
    return DistillationTrace(policy, f_th, f >= f_th, tuple(records), engine)


def oracle_yield(trace: DistillationTrace) -> tuple[int, float, float, float]:
    """(K, yield at K, yield at K - 1, interpolated yield) of a trace that reached."""
    records = trace.records
    k = next(i for i, rec in enumerate(records) if rec.fidelity >= trace.threshold)
    hi, lo = records[k], records[max(k - 1, 0)]
    if hi.fidelity - lo.fidelity <= 0.0:
        return k, hi.cumulative_yield, lo.cumulative_yield, hi.cumulative_yield
    weight = (trace.threshold - lo.fidelity) / (hi.fidelity - lo.fidelity)
    avg = (1.0 - weight) * lo.cumulative_yield + weight * hi.cumulative_yield
    return k, hi.cumulative_yield, lo.cumulative_yield, avg


def oracle_point(p: float, abs_eta: float, policy: Policy, f_th: float, max_rounds: int) -> dict:
    """What one sweep cell reports: its error text, or rounds, reached, F and yields."""
    try:
        trace = oracle_trace(plain_params(p, abs_eta), policy, f_th, max_rounds)
    except DomainError as exc:
        return {"error": str(exc)}
    out = {"error": None, "rounds": trace.rounds, "reached": trace.reached}
    out["fidelity_final"] = trace.final_fidelity
    if trace.reached:
        out["yields"] = oracle_yield(trace)
    return out


# ---------------------------------------------------------------------------
# Einsum oracle for the random LOCC search
#
# Written independently of the library's batched kernel: the two-pair source
# comes from the interleave permutation, every contraction is a plain einsum
# against Phi+ as a 2x2 matrix, and each random operator is rescaled to unit
# spectral norm before use, as a measurement branch must be.

PHI_MATRIX = ID2 / np.sqrt(2.0)  # Phi+ indexed [a1, b1]
# Pairs drawn per batch; the draw order within the seeded stream depends on it.
LOCC_CHUNK = 20_000


def oracle_locc_template(params: CanonicalStateParams) -> np.ndarray:
    """The two-pair source as four weighted 4x4 components [alice, bob]."""
    mu, nu, f = params.mu(), params.nu(), params.fidelity
    components = (
        (f * f, mu, mu),
        (f * (1.0 - f), mu, nu),
        ((1.0 - f) * f, nu, mu),
        ((1.0 - f) ** 2, nu, nu),
    )
    return np.array(
        [np.sqrt(w) * (PAIR_INTERLEAVE @ np.kron(x, y)).reshape(4, 4) for w, x, y in components]
    )


def oracle_locc_num_den(
    weighted: np.ndarray, n_a: np.ndarray, n_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kept-pair fidelity numerator and norm for a (b, 4, 4) stack of rounds."""
    out = np.einsum("bij,cjk,blk->bcil", n_a, weighted, n_b)
    den = np.einsum("bcil,bcil->b", out, out.conj()).real
    kept = np.einsum("pr,bcpqrs->bcqs", PHI_MATRIX, out.reshape(len(out), 4, 2, 2, 2, 2))
    num = np.einsum("bcqs,bcqs->b", kept, kept.conj()).real
    return num, den


def oracle_random_locc_check(
    params: CanonicalStateParams, samples: int, seed: int
) -> float:
    """Best kept-pair fidelity over ``samples`` random unit-norm operator pairs."""
    rng = np.random.default_rng(seed)
    weighted = oracle_locc_template(params)
    best = 0.0
    for start in range(0, samples, LOCC_CHUNK):
        batch = min(LOCC_CHUNK, samples - start)
        draws = [rng.standard_normal((batch, 4, 4)) for _ in range(4)]
        n_a = draws[0] + 1j * draws[1]
        n_b = draws[2] + 1j * draws[3]
        n_a /= np.linalg.norm(n_a, ord=2, axis=(1, 2))[:, None, None]
        n_b /= np.linalg.norm(n_b, ord=2, axis=(1, 2))[:, None, None]
        num, den = oracle_locc_num_den(weighted, n_a, n_b)
        best = max(best, float(np.max(num / den)))
    return best


# ---------------------------------------------------------------------------
# Tools only the tests use


def partial_trace(rho: np.ndarray, n_qubits: int, traced) -> np.ndarray:
    """Trace out the given qubits of an n-qubit density matrix.

    Qubit positions in `traced` are 1-based (position 1 is the leftmost
    tensor factor), matching the usual tr_{2,4}-style subscripts.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = 2**n_qubits
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix for {n_qubits} qubits, got {rho.shape}")
    positions = sorted(set(int(q) for q in traced))
    if positions and (positions[0] < 1 or positions[-1] > n_qubits):
        raise ValueError(f"traced positions {positions} outside 1..{n_qubits}")
    t = rho.reshape((2,) * (2 * n_qubits))
    remaining = n_qubits
    for q in reversed(positions):
        t = np.trace(t, axis1=q - 1, axis2=q - 1 + remaining)
        remaining -= 1
    return t.reshape((2**remaining, 2**remaining))


def schmidt_vector(form: SchmidtForm) -> np.ndarray:
    """The two-qubit state sum_i coeffs[i] basis_a[:, i] (x) basis_b[:, i]."""
    out = np.zeros(4, dtype=complex)
    for i in range(form.coeffs.size):
        out += form.coeffs[i] * np.kron(form.basis_a[:, i], form.basis_b[:, i])
    return out


def analytic_state_params(p: float, abs_eta: float) -> CanonicalStateParams:
    """Canonical state parameters for the channel ``(p, |eta|)``, closed form."""
    return CanonicalStateParams(*params_analytic(p, abs_eta), theta=0.0)


def round_branches(pair_state: np.ndarray) -> dict[tuple[int, int], tuple[float, np.ndarray | None]]:
    """All four measurement branches of one bilateral-CNOT round.

    Returns {(j, k): (branch probability, normalized kept-pair state)} where
    j, k are the target-qubit outcomes on Alice's and Bob's side; the state
    is None for branches with vanishing probability.  Built on the library's
    own branch kernel, so the oracle tests exercise it branch by branch.
    """
    rho = np.asarray(pair_state, dtype=complex)
    out = {}
    for key, flip in _FLIPS.items():
        block = _branch_block(rho, flip)
        prob = float(np.real(np.trace(block)))
        out[key] = (prob, block / prob if prob > 1e-15 else None)
    return out


def steering_source_fidelity(target: CanonicalStateParams) -> float:
    """Fidelity weight of the symmetric source state used for steering."""
    f0 = target.fidelity
    ratio = target.gamma * target.delta / (target.alpha * target.beta)
    return f0 / (f0 + (1.0 - f0) * ratio)


def steering_operators(
    target: CanonicalStateParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Local measurement pairs steering a symmetric state to the target form.

    Returns (m_a, m_a_bar, m_b, m_b_bar).  Applied to the two-term mixture
    with equal Schmidt weights (the phase-damping form) at the fidelity given
    by steering_source_fidelity, the kept branch m_a (x) m_b reproduces the
    target-parameter state after normalization.  Each pair is a valid
    measurement: m^dag m + m_bar^dag m_bar = I.
    """
    a, b, g, d = target.alpha, target.beta, target.gamma, target.delta
    if g <= 1e-12:
        raise ValueError("steering requires gamma > 0")
    ra = a * g / (b * d)
    rb = b * g / (a * d)
    ph = np.exp(0.5j * target.theta)
    m_a = np.diag([np.sqrt(ra), ph]).astype(complex)
    m_a_bar = np.diag([np.sqrt(max(1.0 - ra, 0.0)), 0.0]).astype(complex)
    m_b = np.diag([ph, np.sqrt(rb)]).astype(complex)
    m_b_bar = np.diag([0.0, np.sqrt(max(1.0 - rb, 0.0))]).astype(complex)
    return m_a, m_a_bar, m_b, m_b_bar


def canonical_states(p: np.ndarray, abs_eta: np.ndarray) -> np.ndarray:
    """``choi`` of the canonical channels (p, |eta|), u = v = I, as an (n, 4, 4) stack.

    vecs[:, k, 2a + b] = C_k[b, a]; each entry is rounded as ``choi`` rounds it.
    """
    vecs = np.zeros((len(p), 2, 4))
    vecs[:, 0, 0] = 1.0
    vecs[:, 0, 3] = np.sqrt(1.0 - p)
    vecs[:, 1, 2:] = np.sqrt(p)[:, None] * np.stack([abs_eta, np.sqrt(1.0 - abs_eta**2)], 1)
    weighted = vecs * PHI_PLUS[0].real ** 2
    return (weighted[:, :, :, None] * vecs[:, :, None, :]).sum(axis=1).astype(complex)
