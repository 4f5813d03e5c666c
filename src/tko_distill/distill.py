"""Recurrence distillation protocols: closed-form recurrences and an exact engine.

Two independent execution paths are provided on purpose.  The analytic path
iterates the closed-form fidelity/probability recurrences (for QPA, a power
law in the round index); the exact path carries the pair's 4x4 density
matrix through each bilateral-CNOT round and post-selects on the target-pair
outcomes.  Tests hold the two paths against each other at every round.  Both
advance a column of cells at once: one masked round loop serves a whole
sweep, and ``run`` is its one-cell case.

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

from .channel import _DESTROYED, CanonicalChannelParams, _check_domain, kraus_from_params
from .errors import DegenerateProtocolError, EntanglementDestroyedError, NonDistillableError
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


def _filter_op(alpha: float, beta: float) -> np.ndarray:
    """Kept branch ``m_b = diag(beta/alpha, 1)`` of Bob's filter, which equalizes the
    Schmidt weights alpha >= beta of |mu>; ``I - m_b^dag m_b`` is the discarded share."""
    if not 0.0 < beta <= alpha + 1e-12:
        raise ValueError("rssp requires 0 < beta <= alpha")
    return np.diag([min(beta / alpha, 1.0), 1.0]).astype(complex)


def rssp_apply(rho_canonical: np.ndarray, params: CanonicalStateParams) -> tuple[float, np.ndarray]:
    """Apply Bob's filter to a canonical-form state by literal operator action.

    Returns the keep probability and the normalized post-measurement state,
    whose dominant component is exactly |Phi+>.
    """
    op = np.kron(ID2, _filter_op(params.alpha, params.beta))
    kept = op @ np.asarray(rho_canonical, dtype=complex) @ dagger(op)
    p_s = float(np.real(np.trace(kept)))
    if p_s <= 1e-15:
        raise DegenerateProtocolError("filter keep probability vanished")
    return p_s, kept / p_s


def rssp_analytic(
    f0: float, alpha: float, beta: float, gamma: float, delta: float
) -> tuple[float, float, float, float]:
    """Closed forms for the filter stage: (P_s, F~, gamma~, delta~).

    P_s is capped at 1: where alpha = beta it is 1, and 2 beta^2 with
    beta = sqrt(1/2) rounds to just above it.
    """
    p_s = 2.0 * f0 * beta**2 + (1.0 - f0) * (gamma**2 + (beta * delta / alpha) ** 2)
    odd = alpha**2 * gamma**2 + beta**2 * delta**2
    denom = 2.0 * f0 * alpha**2 * beta**2 + (1.0 - f0) * odd
    f_t = 2.0 * f0 * alpha**2 * beta**2 / denom
    root = np.sqrt(odd)
    return np.minimum(p_s, 1.0), f_t, alpha * gamma / root, beta * delta / root


# ---------------------------------------------------------------------------
# Exact two-pair round, on one 4x4 state or an (n, 4, 4) stack

_NO_POPULATION = "kept measurement branches have no population"


def _branch_block(rho: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """Unnormalized kept-pair block of one outcome: rho[i, i'] rho[i ^ m, i' ^ m]."""
    return rho * rho[..., flip, :][..., flip]


def _round_stack(rho: np.ndarray, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Branch probability and normalized kept pair of each state of an (n, 4, 4) stack.

    FP keeps only the (1,1) branch; PP and QPA keep the two agreeing branches.
    """
    keys = [(1, 1)] if policy is Policy.FP else [(0, 0), (1, 1)]
    kept = sum(_branch_block(rho, _FLIPS[k]) for k in keys)
    prob = np.trace(kept, axis1=1, axis2=2).real
    return prob, kept / np.maximum(prob, 1e-15)[:, None, None]


def round_exact(pair_state: np.ndarray, policy: Policy) -> tuple[float, np.ndarray]:
    """One exact distillation round consuming two copies of pair_state.

    Returns the keep probability per input pair (branch probability / 2)
    and the normalized post state.
    """
    if policy not in (Policy.FP, Policy.PP, Policy.QPA):
        raise ValueError(f"no operator-level round for policy {policy}")
    prob, kept = _round_stack(np.asarray(pair_state, dtype=complex)[None], policy)
    if prob[0] <= 1e-15:
        raise DegenerateProtocolError(_NO_POPULATION)
    return float(prob[0]) / 2.0, kept[0]


# ---------------------------------------------------------------------------
# Closed-form recurrences; each works on floats and, elementwise, on arrays


def _qpa_canonical(p, abs_eta):
    """QPA's prepared F and ``_qpa_round`` logs on canonical channels: a0 = (1 + s)/2 >= b0,
    t = b0/a0 = p/(1 + s)^2, r = c0/a0 = 1 - |eta|^2 p/(1 + s), s = sqrt(1 - p); nothing cancels."""
    s, x = np.sqrt(1.0 - p), abs_eta**2 * p
    with np.errstate(divide="ignore"):  # p = 0: t = 0
        logs = np.array([np.zeros_like(p), np.log(p) - 2.0 * np.log1p(s), np.log1p(-x / (1.0 + s))])
    return (1.0 + s) / 2.0 - x / 4.0, logs


def _qpa_round(logs, k: int):
    """F and keep probability of QPA round k >= 1.  Keeping the agreeing branches
    maps a = rho00 + rho33, b = rho11 + rho22, c = 2 Re rho03 to (a^2, b^2, c^2)/(a^2 + b^2),
    keeps (a^2 + b^2)/2 and has F = (a + c)/2: F_k = (a0^n + |c0|^n)/(2(a0^n + b0^n)), n = 2^k.
    ``logs`` holds log(a0/m), log(b0/m), log|c0/m|, m = max(a0, b0), so no power overflows."""
    a, b, c = np.exp(2.0 ** (k - 1) * logs)
    a2, b2 = a * a, b * b
    return (a2 + c * c) / (2.0 * (a2 + b2)), (a2 + b2) / (2.0 * (a + b) ** 2)


def recurrence_step(f: float) -> tuple[float, float]:
    """Agreeing-branch round (every PP round, FP's from round 2): (next fidelity, keep prob)."""
    denom = f * f + (1.0 - f) * (1.0 - f)
    return f * f / denom, denom / 2.0


def _fp_first_round(f_t, gamma_t, delta_t):
    """FP's round 1 after the filter stage, keeping only the (1, 1) branch:
    (fidelity, keep probability per input pair).  PP's round 1 is ``recurrence_step``."""
    p_branch = 0.5 * f_t**2 + 2.0 * (1.0 - f_t) ** 2 * (gamma_t * delta_t) ** 2
    return 0.5 * f_t**2 / p_branch, p_branch / 2.0


def bbpssw_step(f: float) -> tuple[float, float]:
    """Werner-state recursion: next fidelity and two-pair success probability."""
    if (np.asarray(f) <= 0.5).any():
        raise NonDistillableError(f"Werner fidelity {f} at or below 1/2 cannot be distilled")
    p_succ = f * f + (2.0 / 3.0) * f * (1.0 - f) + (5.0 / 9.0) * (1.0 - f) ** 2
    f_next = (f * f + (1.0 - f) ** 2 / 9.0) / p_succ
    return f_next, p_succ


def bbpssw_initial_fidelity(f: float, alpha: float, beta: float) -> float:
    """Overlap of the canonical mixture with |Phi+> (the Werner fidelity used).

    Capped at 1: at p = 0, (alpha + beta)^2 / 2 rounds to just above 1.
    """
    return np.minimum(f * (alpha + beta) ** 2 / 2.0, 1.0)


# ---------------------------------------------------------------------------
# The round loop, on a column of cells


def _iterate(f0, keep0, step, f_th: float, max_rounds: int, plateau: bool = False):
    """Run rounds on a column of n cells until each cell's stop rule fires.

    ``step(k, f)`` returns every cell's next fidelity and keep probability
    per input pair in round k; only running cells keep them.  A cell stops at
    the threshold, at the round budget, at a NaN fidelity (refused, or its
    kept branches vanished) or, with ``plateau`` (QPA), at a fixed point.
    Returns the (3, rounds + 1, n) history of fidelity, keep probability and
    cumulative yield, a stopped cell repeating its last row, and the rounds.
    """
    rows = [np.array([f0, keep0, keep0])]
    rounds = np.zeros(len(f0), dtype=int)
    active = f0 < f_th
    while len(rows) <= max_rounds and active.any():
        prev = rows[-1]
        f, keep = step(len(rows), prev[0])
        rows.append(np.where(active, (f, keep, prev[2] * keep), prev))
        rounds += active
        stop = ~(f < f_th)
        if plateau:
            stop |= np.abs(f - prev[0]) < 1e-12
        active &= ~stop
    return np.swapaxes(np.array(rows), 0, 1), rounds


def _refuse(bad, error: type, text: str, values) -> dict:
    """``error(text.format(values[i]))`` for each cell i where ``bad`` holds."""
    return {i: error(text.format(values[i])) for i in np.flatnonzero(bad).tolist()}


def _recurrence_column(policy, f0, alpha, beta, gamma, delta, f_th, max_rounds):
    """FP/PP on a column: filter stage, FP's closed-form round 1, then the recursion."""
    text = "fidelity weight {} at or below 1/2 cannot be distilled"
    errors = _refuse(f0 <= 0.5, NonDistillableError, text, f0)
    p_s, f_t, g_t, d_t = rssp_analytic(np.where(f0 <= 0.5, np.nan, f0), alpha, beta, gamma, delta)

    def step(k, f):
        if k == 1 and policy is Policy.FP:
            return _fp_first_round(f, g_t, d_t)
        return recurrence_step(f)

    return (*_iterate(f_t, p_s, step, f_th, max_rounds), errors)


def _bbpssw_column(f_init, f_th, max_rounds):
    """The Werner recursion on a column of initial fidelities."""
    text = "Werner fidelity {:.6f} at or below 1/2 cannot be distilled"
    errors = _refuse(f_init <= 0.5, NonDistillableError, text, f_init)

    def step(k, f):
        f_next, p_succ = bbpssw_step(f)
        return f_next, p_succ / 2.0

    f = np.where(f_init <= 0.5, np.nan, f_init)
    return (*_iterate(f, np.ones(len(f)), step, f_th, max_rounds), errors)


def _exact_column(policy, state, keep0, f_th, max_rounds):
    """Exact rounds on a stack of prepared states: the policy's rule first, PP's after."""

    def step(k, f):
        prob, state[:] = _round_stack(state, policy if k == 1 else Policy.PP)
        return np.where(prob > 1e-15, pure_fidelity(state, PHI_PLUS), np.nan), prob / 2.0

    f0 = pure_fidelity(state, PHI_PLUS)
    hist, rounds = _iterate(f0, keep0, step, f_th, max_rounds, plateau=policy is Policy.QPA)
    f_end = hist[0, -1]
    return hist, rounds, _refuse(np.isnan(f_end), DegenerateProtocolError, _NO_POPULATION, f_end)


def _qpa_column(f0, logs, f_th, max_rounds):
    """QPA in power form on a column of prepared fidelities and ``_qpa_round`` logs."""
    step = lambda k, f: _qpa_round(logs, k)  # noqa: E731
    return (*_iterate(f0, np.ones(len(f0)), step, f_th, max_rounds, plateau=True), {})


def _columns(policy: Policy, p, abs_eta, f_th: float, max_rounds: int):
    """``policy`` on its default engine for the canonical channels (p, |eta|) in [0, 1]."""
    dead = p >= 1.0
    q = np.where(dead, 0.0, p)  # a placeholder for the cells refused below
    if policy is Policy.QPA:
        cells = _qpa_column(*_qpa_canonical(q, abs_eta), f_th, max_rounds)
    else:
        # u, v and the phase of eta act locally, so the closed forms in
        # (p, |eta|) carry everything the analytic recurrences need.
        f0, alpha, beta, gamma, delta = params_analytic(q, abs_eta)
        if policy is Policy.BBPSSW:
            cells = _bbpssw_column(bbpssw_initial_fidelity(f0, alpha, beta), f_th, max_rounds)
        else:
            cells = _recurrence_column(policy, f0, alpha, beta, gamma, delta, f_th, max_rounds)
    cells[2].update(_refuse(dead, EntanglementDestroyedError, _DESTROYED, p))
    return cells


def _one_cell(policy: Policy, engine: str, f_th: float, hist, rounds, errors) -> DistillationTrace:
    """The trace of a one-cell column, or its domain error raised."""
    if errors:
        raise errors[0]
    records = tuple(RoundRecord(k, *hist[:, k, 0]) for k in range(rounds[0] + 1))
    return DistillationTrace(policy, f_th, hist[0, -1, 0] >= f_th, records, engine)


def recurrence_analytic(
    f0: float, alpha: float, beta: float, gamma: float, delta: float,
    policy: Policy, f_th: float = 0.99, max_rounds: int = 64,
) -> DistillationTrace:
    """Analytic FP/PP trace: filter stage, closed-form round 1, then recursion."""
    policy = Policy(policy)
    if policy not in (Policy.FP, Policy.PP):
        raise ValueError("analytic recurrences exist only for FP and PP")
    cell = np.array([[f0], [alpha], [beta], [gamma], [delta]], dtype=float)
    return _one_cell(policy, "analytic", f_th, *_recurrence_column(policy, *cell, f_th, max_rounds))


def bbpssw_trace(f_init: float, f_th: float = 0.99, max_rounds: int = 64) -> DistillationTrace:
    """BBPSSW trace from an initial Werner fidelity."""
    cell = _bbpssw_column(np.array([f_init], dtype=float), f_th, max_rounds)
    return _one_cell(Policy.BBPSSW, "analytic", f_th, *cell)


# ---------------------------------------------------------------------------
# Full pipeline

# Engines each policy runs on, its default first.  QPA's closed form is the
# power law of ``_qpa_round``; BBPSSW's Werner twirl has no operator-level
# round.  Sweeps run every policy on its default.
_ENGINES = {
    Policy.FP: ("analytic", "exact"),
    Policy.PP: ("analytic", "exact"),
    Policy.QPA: ("analytic", "exact"),
    Policy.BBPSSW: ("analytic",),
}


def _check_budget(f_th: float, max_rounds: int) -> None:
    if not 0.5 < f_th <= 1.0:
        raise ValueError("threshold fidelity must lie in (1/2, 1]")
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")


def run(
    channel: CanonicalChannelParams,
    policy: Policy | str,
    f_th: float = 0.99,
    max_rounds: int = 64,
    engine: str | None = None,
) -> DistillationTrace:
    """Run a full distillation pipeline for a canonical channel: a one-cell column.

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
        None picks analytic; BBPSSW has no exact engine (ValueError).  QPA's
        analytic F_k is a power law: for p > 0 and |eta| > 0 it tends to 1/2,
        so only phase damping (|eta| = 0) converges; the rest stop at a plateau.
    """
    policy = Policy(policy)
    _check_budget(f_th, max_rounds)
    _check_domain(channel.p, channel.abs_eta, distillable=True)
    engine = "analytic" if engine is None else engine
    if engine not in _ENGINES[policy]:
        raise ValueError(f"{policy.name} has no {engine!r} engine; use {_ENGINES[policy][0]!r}")

    plain = policy is not Policy.QPA or (channel.u == ID2).all() and (channel.v == ID2).all()
    if engine == "analytic" and plain:
        cell = _columns(policy, *np.array([[channel.p], [channel.abs_eta]]), f_th, max_rounds)
    elif policy is Policy.QPA:
        prep = np.kron(HADAMARD, HADAMARD)
        state = prep @ shared_state(kraus_from_params(channel)) @ dagger(prep)
        if engine == "exact":
            cell = _exact_column(policy, state[None], np.ones(1), f_th, max_rounds)
        else:  # u and v do not act locally on QPA: read a0, b0 and c0 off its state
            d, c = state.diagonal().real, 2.0 * state[0, 3].real
            abc = np.array([[d[0] + d[3]], [d[1] + d[2]], [c]])
            with np.errstate(divide="ignore"):
                logs = np.log(np.abs(abc) / abc[:2].max())
            cell = _qpa_column((abc[0] + abc[2]) / 2.0, logs, f_th, max_rounds)
    else:
        rho = shared_state(kraus_from_params(channel))
        params = canonical_decompose(rho)
        rot = np.kron(params.u_a, params.u_b)
        keep0, state = rssp_apply(rot @ rho @ dagger(rot), params)
        cell = _exact_column(policy, state[None], np.array([keep0]), f_th, max_rounds)
    return _one_cell(policy, engine, f_th, *cell)
