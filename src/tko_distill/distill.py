"""Recurrence distillation protocols: closed-form recurrences and an exact engine.

Two independent execution paths are provided on purpose.  The analytic path
iterates the closed-form fidelity/probability recurrences; the exact path
carries the pair's 4x4 density matrix through each bilateral-CNOT round and
post-selects on the target-pair outcomes.  Tests hold the two paths against
each other at every round.

Pair states are indexed |ab> = 2a+b, Alice's qubit first.  In a round the
first copy is the source (kept) pair and the second the target (measured)
pair; both CNOTs write a2 ^ a1 and b2 ^ b1 onto the target, so outcome (j, k)
pins the target index to the source index flipped by X^j (x) X^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product

import numpy as np

from .channel import CanonicalChannelParams, check_noise_severity, kraus_from_params
from .errors import DegenerateProtocolError, NonDistillableError
from .linalg import HADAMARD, ID2, PHI_PLUS, dagger, pure_fidelity
from .state import CanonicalStateParams, canonical_decompose, params_analytic, shared_state

# Target-pair index i ^ (2j + k) paired with source index i under outcome (j, k).
_FLIPS = {(j, k): np.arange(4) ^ (2 * j + k) for j, k in product((0, 1), repeat=2)}


class Policy(Enum):
    """Distillation policy selecting the first-round branch handling."""

    FP = "fp"
    PP = "pp"
    QPA = "qpa"
    BBPSSW = "bbpssw"


@dataclass(frozen=True)
class RoundRecord:
    """One row of a distillation trace.

    Index 0 is the preparation stage (filter measurement for FP/PP, plain
    prepared state for QPA/BBPSSW); indices >= 1 are two-pairs-in-one-out
    rounds whose keep_prob already includes the 1/2 pair-consumption factor.
    """

    round_index: int
    fidelity: float
    keep_prob: float
    cumulative_yield: float

    def __post_init__(self):
        object.__setattr__(self, "round_index", int(self.round_index))
        object.__setattr__(self, "fidelity", float(self.fidelity))
        object.__setattr__(self, "keep_prob", float(self.keep_prob))
        object.__setattr__(self, "cumulative_yield", float(self.cumulative_yield))


@dataclass(frozen=True)
class DistillationTrace:
    policy: Policy
    threshold: float
    reached: bool
    records: tuple[RoundRecord, ...]
    engine: str

    def __post_init__(self):
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "reached", bool(self.reached))

    @property
    def rounds(self) -> int:
        return self.records[-1].round_index

    @property
    def final_fidelity(self) -> float:
        return self.records[-1].fidelity

    def fidelities(self) -> list[float]:
        return [r.fidelity for r in self.records]


# ---------------------------------------------------------------------------
# Preparation stage


def rssp_ops(alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Bob's filter measurement equalizing the Schmidt weights of |mu>.

    Parameters
    ----------
    alpha, beta : float
        Schmidt weights of the dominant eigenvector, beta <= alpha.

    Returns
    -------
    (m_b, m_b_bar) : kept-branch and discard-branch operators, forming a
        complete measurement m_b^dag m_b + m_b_bar^dag m_b_bar = I.
    """
    if not 0.0 < beta <= alpha + 1e-12:
        raise ValueError("rssp requires 0 < beta <= alpha")
    kappa = min(beta / alpha, 1.0)
    m_b = np.diag([kappa, 1.0]).astype(complex)
    m_b_bar = np.diag([np.sqrt(max(1.0 - kappa**2, 0.0)), 0.0]).astype(complex)
    return m_b, m_b_bar


def rssp_apply(rho_canonical: np.ndarray, params: CanonicalStateParams) -> tuple[float, np.ndarray]:
    """Apply Bob's filter to a canonical-form state by literal operator action.

    Returns the keep probability and the normalized post-measurement state,
    whose dominant component is exactly |Phi+>.
    """
    m_b, _ = rssp_ops(params.alpha, params.beta)
    op = np.kron(ID2, m_b)
    kept = op @ np.asarray(rho_canonical, dtype=complex) @ dagger(op)
    p_s = float(np.real(np.trace(kept)))
    if p_s <= 1e-15:
        raise DegenerateProtocolError("filter keep probability vanished")
    return p_s, kept / p_s


def rssp_analytic(
    f0: float, alpha: float, beta: float, gamma: float, delta: float
) -> tuple[float, float, float, float]:
    """Closed forms for the filter stage: (P_s, F~, gamma~, delta~)."""
    p_s = 2.0 * f0 * beta**2 + (1.0 - f0) * (gamma**2 + (beta * delta / alpha) ** 2)
    odd = alpha**2 * gamma**2 + beta**2 * delta**2
    denom = 2.0 * f0 * alpha**2 * beta**2 + (1.0 - f0) * odd
    f_t = 2.0 * f0 * alpha**2 * beta**2 / denom
    root = np.sqrt(odd)
    return p_s, f_t, alpha * gamma / root, beta * delta / root


# ---------------------------------------------------------------------------
# Exact two-pair round


def _branch_block(rho: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """Unnormalized kept-pair block of one outcome: rho[i, i'] rho[i ^ m, i' ^ m]."""
    return rho * rho[np.ix_(flip, flip)]


def round_exact(pair_state: np.ndarray, policy: Policy) -> tuple[float, np.ndarray]:
    """One exact distillation round consuming two copies of pair_state.

    FP keeps only the (1,1) branch; PP and QPA keep the two agreeing
    branches, mixed by their probabilities.  Returns the keep probability
    per input pair (branch probability / 2) and the normalized post state.
    """
    if policy not in (Policy.FP, Policy.PP, Policy.QPA):
        raise ValueError(f"no operator-level round for policy {policy}")
    rho = np.asarray(pair_state, dtype=complex)
    keys = [(1, 1)] if policy is Policy.FP else [(0, 0), (1, 1)]
    kept = sum(_branch_block(rho, _FLIPS[k]) for k in keys)
    prob = float(np.real(np.trace(kept)))
    if prob <= 1e-15:
        raise DegenerateProtocolError("kept measurement branches have no population")
    return prob / 2.0, kept / prob


# ---------------------------------------------------------------------------
# Closed-form recurrences


def recurrence_step(f: float) -> tuple[float, float]:
    """Agreeing-branch recursion for rounds >= 2: (next fidelity, keep prob)."""
    denom = f * f + (1.0 - f) * (1.0 - f)
    return f * f / denom, denom / 2.0


def first_round_rates(
    f_t: float, gamma_t: float, delta_t: float, policy: Policy
) -> tuple[float, float]:
    """Branch probability and fidelity of round 1 after the filter stage.

    The returned probability is the branch probability (no 1/2 factor);
    divide by two for the per-input-pair keep probability.
    """
    if policy is Policy.FP:
        p_branch = 0.5 * f_t**2 + 2.0 * (1.0 - f_t) ** 2 * (gamma_t * delta_t) ** 2
        return p_branch, 0.5 * f_t**2 / p_branch
    if policy is Policy.PP:
        p_branch = f_t**2 + (1.0 - f_t) ** 2
        return p_branch, f_t**2 / p_branch
    raise ValueError(f"no closed-form first round for policy {policy}")


def bbpssw_step(f: float) -> tuple[float, float]:
    """Werner-state recursion: next fidelity and two-pair success probability."""
    if f <= 0.5:
        raise NonDistillableError(f"Werner fidelity {f} at or below 1/2 cannot be distilled")
    p_succ = f * f + (2.0 / 3.0) * f * (1.0 - f) + (5.0 / 9.0) * (1.0 - f) ** 2
    f_next = (f * f + (1.0 - f) ** 2 / 9.0) / p_succ
    return f_next, p_succ


def bbpssw_initial_fidelity(f: float, alpha: float, beta: float) -> float:
    """Overlap of the canonical mixture with |Phi+> (the Werner fidelity used)."""
    return f * (alpha + beta) ** 2 / 2.0


# ---------------------------------------------------------------------------
# The round loop


def _iterate(
    policy: Policy, engine: str, f0: float, keep0: float, step, f_th: float, max_rounds: int
) -> DistillationTrace:
    """Run rounds from the prepared state until a stop rule fires.

    ``step(k, f)`` performs round k on a pair of fidelity f and returns
    (next fidelity, keep probability per input pair).  The loop stops at the
    threshold, at the round budget, or, for QPA, at a fixed point below the
    threshold, where further rounds cannot change anything.
    """
    records = [RoundRecord(0, f0, keep0, keep0)]
    f, cumulative, k = f0, keep0, 0
    while f < f_th and k < max_rounds:
        k += 1
        f_prev = f
        f, keep = step(k, f)
        cumulative *= keep
        records.append(RoundRecord(k, f, keep, cumulative))
        if policy is Policy.QPA and abs(f - f_prev) < 1e-12:
            break
    return DistillationTrace(policy, f_th, f >= f_th, tuple(records), engine)


def recurrence_analytic(
    f0: float,
    alpha: float,
    beta: float,
    gamma: float,
    delta: float,
    policy: Policy,
    f_th: float = 0.99,
    max_rounds: int = 64,
) -> DistillationTrace:
    """Analytic FP/PP trace: filter stage, closed-form round 1, then recursion."""
    policy = Policy(policy)
    if policy not in (Policy.FP, Policy.PP):
        raise ValueError("analytic recurrences exist only for FP and PP")
    if f0 <= 0.5:
        raise NonDistillableError(f"fidelity weight {f0} at or below 1/2 cannot be distilled")
    p_s, f_t, g_t, d_t = rssp_analytic(f0, alpha, beta, gamma, delta)

    def step(k: int, f: float) -> tuple[float, float]:
        if k > 1:
            return recurrence_step(f)
        p_branch, f1 = first_round_rates(f_t, g_t, d_t, policy)
        return f1, p_branch / 2.0

    return _iterate(policy, "analytic", f_t, p_s, step, f_th, max_rounds)


def bbpssw_trace(f_init: float, f_th: float = 0.99, max_rounds: int = 64) -> DistillationTrace:
    """BBPSSW trace from an initial Werner fidelity."""
    if f_init <= 0.5:
        raise NonDistillableError(
            f"Werner fidelity {f_init:.6f} at or below 1/2 cannot be distilled"
        )

    def step(k: int, f: float) -> tuple[float, float]:
        f_next, p_succ = bbpssw_step(f)
        return f_next, p_succ / 2.0

    return _iterate(Policy.BBPSSW, "analytic", f_init, 1.0, step, f_th, max_rounds)


def _exact_step(state: np.ndarray, policy: Policy):
    """Round step on the 4x4 state: the policy's own rule in round 1, PP's after."""

    def step(k: int, f: float) -> tuple[float, float]:
        nonlocal state
        keep, state = round_exact(state, policy if k == 1 else Policy.PP)
        return pure_fidelity(state, PHI_PLUS), keep

    return step


# ---------------------------------------------------------------------------
# Full pipeline

# Engines each policy runs on, its default first.  QPA has no closed-form
# recurrence that preserves its state structure, and BBPSSW's Werner twirl
# has no operator-level round.
_ENGINES = {
    Policy.FP: ("analytic", "exact"),
    Policy.PP: ("analytic", "exact"),
    Policy.QPA: ("exact",),
    Policy.BBPSSW: ("analytic",),
}
_ENGINE_NOUN = {"analytic": "analytic recurrence", "exact": "exact round"}


def run(
    channel: CanonicalChannelParams,
    policy: Policy | str,
    f_th: float = 0.99,
    max_rounds: int = 64,
    engine: str | None = None,
) -> DistillationTrace:
    """Run a full distillation pipeline for a canonical channel.

    Parameters
    ----------
    channel : CanonicalChannelParams
        Channel whose shared state is to be distilled; requires p < 1.
    policy : Policy or str
        One of fp, pp, qpa, bbpssw.
    f_th : float
        Target fidelity threshold in (1/2, 1].  BBPSSW never reaches
        ``f_th = 1``: its Werner recurrence shrinks ``1 - F`` only by about
        2/3 per round, so F stays below 1 and the run spends its whole round
        budget with ``reached`` False.
    max_rounds : int
        Round budget; hitting it marks the trace as not reached.
    engine : {"analytic", "exact", None}
        FP/PP run on either engine (None picks analytic).  QPA runs only on
        the exact engine and BBPSSW only on its analytic recursion; asking
        for the other engine raises ValueError.
    """
    policy = Policy(policy)
    if not 0.5 < f_th <= 1.0:
        raise ValueError("threshold fidelity must lie in (1/2, 1]")
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    check_noise_severity(channel.p)
    if engine not in (None, "analytic", "exact"):
        raise ValueError(f"unknown engine {engine!r}")
    allowed = _ENGINES[policy]
    if engine is None:
        engine = allowed[0]
    elif engine not in allowed:
        raise ValueError(
            f"{policy.name} has no {_ENGINE_NOUN[engine]}; use the {allowed[0]} engine"
        )

    if engine == "analytic":
        # u, v and the phase of eta act locally, so the closed forms in
        # (p, |eta|) carry everything the analytic recurrences need.
        f0, alpha, beta, gamma, delta = params_analytic(channel.p, channel.abs_eta)
        if policy is Policy.BBPSSW:
            return bbpssw_trace(bbpssw_initial_fidelity(f0, alpha, beta), f_th, max_rounds)
        return recurrence_analytic(f0, alpha, beta, gamma, delta, policy, f_th, max_rounds)

    rho = shared_state(kraus_from_params(channel))
    if policy is Policy.QPA:
        prep = np.kron(HADAMARD, HADAMARD)
        keep0, state = 1.0, prep @ rho @ dagger(prep)
    else:
        params = canonical_decompose(rho)
        rot = np.kron(params.u_a, params.u_b)
        keep0, state = rssp_apply(rot @ rho @ dagger(rot), params)
    f0 = pure_fidelity(state, PHI_PLUS)
    return _iterate(policy, "exact", f0, keep0, _exact_step(state, policy), f_th, max_rounds)
