"""Reference values the benchmark checks the program against.

Everything here is computed from (p, |eta|) alone, with no call into
``tko_distill``:

* the canonical state parameters and the filter stage in closed form,
* the fp/pp first round (fp's equals the optimum F* of the paper) and the
  recurrence F' = F^2 / (F^2 + (1 - F)^2) for later rounds,
* the Werner recurrence of Bennett et al. 1996 (PRL 76, 722) for bbpssw,
* a two-copy density-matrix simulation for qpa, written as einsums over
  (2, 2, 2, 2) tensors rather than 16x16 matrices,
* the interpolated average yield at the threshold.

A threshold or plateau comparison whose operands sit within rounding of the
cut-off is ambiguous: the reference then accepts either outcome.  This is
the only tolerance besides the 1e-9 on every number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-9
# Width within which a threshold comparison may go either way by rounding.
_EDGE = 1e-12
# Plateau rule of the exact engine: stop when a round moves F by less than this.
_PLATEAU = 1e-12
_PLATEAU_EDGE = 1e-14

OK, FAILED, WRONG = "ok", "failed", "wrong"


# ---------------------------------------------------------------------------
# Closed forms in (p, |eta|)


def optimum(p: float, a: float) -> float:
    """F* = 1/2 + sqrt((1-p)(1-|eta|^2 p)) / ((1-p) + (1-|eta|^2 p))."""
    x, y = 1.0 - p, 1.0 - a * a * p
    return 0.5 + math.sqrt(x * y) / (x + y)


@dataclass(frozen=True)
class StateParams:
    """F and the squared Schmidt weights alpha^2, beta^2, gamma^2, delta^2."""

    f: float
    a2: float
    b2: float
    g2: float
    d2: float


def state_params(p: float, a: float) -> StateParams:
    """Eigen-decomposition of the shared state, in closed form.

    The two eigenvalues are 1/2 +- root/2 with root^2 = (1-p)(1-|eta|^2 p);
    the top eigenvector has alpha^2 - beta^2 = |eta| p / (2F) and the second
    delta^2 - gamma^2 = |eta| p / (2(1-F)).  gamma^2 is written without the
    cancellation of that difference: 1 - |eta| p - root = c / (s + root).
    """
    root = math.sqrt((1.0 - p) * (1.0 - a * a * p))
    f = 0.5 + 0.5 * root
    a2 = 0.5 + a * p / (4.0 * f)
    if p == 0.0:
        return StateParams(1.0, 0.5, 0.5, 0.5, 0.5)
    s = 1.0 - a * p
    c = p * (1.0 - a) ** 2
    g2 = c / ((s + root) * 4.0 * (1.0 - f))
    return StateParams(f, a2, 1.0 - a2, g2, 1.0 - g2)


def werner_fidelity(p: float, a: float) -> float:
    """Overlap of the canonical mixture with |Phi+>: F (alpha + beta)^2 / 2."""
    sp = state_params(p, a)
    return sp.f * (1.0 + 2.0 * math.sqrt(sp.a2 * sp.b2)) / 2.0


# ---------------------------------------------------------------------------
# Expected trajectories


@dataclass
class Expected:
    """Reference trajectory of one (policy, p, |eta|) cell.

    ``records[k]`` is (fidelity, keep probability, cumulative yield) after
    round k; ``stops`` holds every final round index the stop rule can give
    under rounding.  ``error`` is "required", "allowed" or "forbidden" for a
    non-distillable report.
    """

    records: list[tuple[float, float, float]] = field(default_factory=list)
    stops: set[int] = field(default_factory=set)
    error: str = "forbidden"
    f_th: float = 0.99


def _walk(f0, keep0, step, f_th, max_rounds, plateau=False) -> Expected:
    """Iterate ``step`` from the prepared state, recording acceptable stops."""
    exp = Expected(records=[(f0, keep0, keep0)], f_th=f_th)
    f, cum, k = f0, keep0, 0
    while True:
        # Should the loop stop before round k + 1?  Clear "no" continues,
        # clear "yes" ends the walk, an ambiguous answer records k and goes on.
        at_th = abs(f - f_th) <= _EDGE
        stop_th = f >= f_th and not at_th
        stop_budget = k >= max_rounds
        stalled = False
        if plateau and k >= 1 and f < f_th:
            moved = abs(f - exp.records[k - 1][0])
            stalled = moved < _PLATEAU - _PLATEAU_EDGE
            if abs(moved - _PLATEAU) <= _PLATEAU_EDGE:
                exp.stops.add(k)
        if stop_th or stop_budget or stalled:
            exp.stops.add(k)
            return exp
        if at_th:
            exp.stops.add(k)
        k += 1
        f, keep = step(k, f)
        cum *= keep
        exp.records.append((f, keep, cum))


def _recurrence(f: float) -> tuple[float, float]:
    q = f * f + (1.0 - f) ** 2
    return f * f / q, q / 2.0


def expected_fp_pp(policy: str, p: float, a: float, f_th=0.99, max_rounds=64) -> Expected:
    """Filter stage, closed-form first round, then the symmetric recurrence."""
    sp = state_params(p, a)
    if sp.f <= 0.5:
        return Expected(error="required", f_th=f_th)
    # Bob's filter diag(beta/alpha, 1) maps mu onto beta sqrt2 |Phi+>.
    nu_kept = sp.g2 + sp.d2 * sp.b2 / sp.a2
    p_s = 2.0 * sp.f * sp.b2 + (1.0 - sp.f) * nu_kept
    f_t = 2.0 * sp.f * sp.b2 / p_s
    # gamma~^2 delta~^2 of the filtered nu.
    gd2 = sp.g2 * (sp.d2 * sp.b2 / sp.a2) / nu_kept**2

    def step(k, f):
        if k > 1:
            return _recurrence(f)
        if policy == "fp":
            # Keep only the (1, 1) branch: Phi+ x Phi+ lands there with
            # weight 1/2, nu x nu with 2 gamma~^2 delta~^2.
            branch = 0.5 * f_t**2 + 2.0 * (1.0 - f_t) ** 2 * gd2
            return optimum(p, a), branch / 2.0
        branch = f_t**2 + (1.0 - f_t) ** 2
        return f_t**2 / branch, branch / 2.0

    return _walk(f_t, p_s, step, f_th, max_rounds)


def expected_bbpssw(p: float, a: float, f_th=0.99, max_rounds=64) -> Expected:
    """Werner recurrence from the |Phi+> overlap of the shared state."""
    fw = werner_fidelity(p, a)
    if fw <= 0.5 - _EDGE:
        return Expected(error="required", f_th=f_th)

    def step(k, f):
        q = f * f + (2.0 / 3.0) * f * (1.0 - f) + (5.0 / 9.0) * (1.0 - f) ** 2
        return (f * f + (1.0 - f) ** 2 / 9.0) / q, q / 2.0

    exp = _walk(fw, 1.0, step, f_th, max_rounds)
    if fw <= 0.5 + _EDGE:
        exp.error = "allowed"
    return exp


# Two-copy simulation for qpa ------------------------------------------------

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
# CN[out_source, out_target, in_source, in_target]: target <- target xor source.
_CN = np.zeros((2, 2, 2, 2))
for _s in (0, 1):
    for _t in (0, 1):
        _CN[_s, _t ^ _s, _s, _t] = 1.0
_BRANCH = "Pae,Qbf,abcd,efgh,Rcg,Sdh->PQRS"
_BRANCH_PATH = np.einsum_path(
    _BRANCH, *(np.zeros(s) for s in ((2, 2, 2), (2, 2, 2), (2,) * 4, (2,) * 4, (2, 2, 2), (2, 2, 2))), optimize="optimal"
)[0]


def shared_tensor(p: float, a: float) -> np.ndarray:
    """|Phi+> with its second half sent through the canonical channel.

    Returned as r[alice, bob, alice', bob'].
    """
    c1 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=complex)
    c2 = math.sqrt(p) * np.array([[0.0, a], [0.0, math.sqrt(max(1.0 - a * a, 0.0))]], dtype=complex)
    phi = np.eye(2, dtype=complex) / math.sqrt(2.0)  # phi[alice, bob]
    r = np.zeros((2, 2, 2, 2), dtype=complex)
    for c in (c1, c2):
        ket = np.einsum("yb,ab->ay", c, phi)
        r += np.einsum("ab,cd->abcd", ket, ket.conj())
    return r


def kept_branch(r: np.ndarray, j: int, k: int) -> np.ndarray:
    """Unnormalized source pair when the targets read (j, k).

    sigma[A, B, A', B'] = sum CN_A CN_B (r (x) r) CN_A^dag CN_B^dag projected
    on target outcomes j (Alice) and k (Bob).
    """
    ca = _CN[:, j]
    cb = _CN[:, k]
    return np.einsum(_BRANCH, ca, cb, r, r, ca, cb, optimize=_BRANCH_PATH)


def pair_trace(r: np.ndarray) -> float:
    return float(np.einsum("abab->", r).real)


def phi_fidelity(r: np.ndarray) -> float:
    """<Phi+| r |Phi+> = 1/2 sum_{x,y} r[x, x, y, y]."""
    return float(0.5 * np.einsum("xxyy->", r).real)


def expected_qpa(p: float, a: float, f_th=0.99, max_rounds=64) -> Expected:
    """H (x) H preparation, then keep the agreeing branches every round."""
    r = shared_tensor(p, a)
    r = np.einsum("Aa,Bb,abcd,Cc,Dd->ABCD", _H, _H, r, _H, _H)
    state = [r]

    def step(k, f):
        kept = kept_branch(state[0], 0, 0) + kept_branch(state[0], 1, 1)
        prob = pair_trace(kept)
        state[0] = kept / prob
        return phi_fidelity(state[0]), prob / 2.0

    return _walk(phi_fidelity(r), 1.0, step, f_th, max_rounds, plateau=True)


def expected(policy: str, p: float, a: float, f_th=0.99, max_rounds=64) -> Expected:
    if policy in ("fp", "pp"):
        return expected_fp_pp(policy, p, a, f_th, max_rounds)
    if policy == "bbpssw":
        return expected_bbpssw(p, a, f_th, max_rounds)
    if policy == "qpa":
        return expected_qpa(p, a, f_th, max_rounds)
    raise ValueError(f"unknown policy {policy}")


# ---------------------------------------------------------------------------
# Checks


def average_yield(records, f_th):
    """Yield interpolated between rounds K-1 and K, K the first at F_th."""
    k = next(i for i, rec in enumerate(records) if rec[0] >= f_th)
    if k == 0:
        return records[0][2]
    (f_lo, _, y_lo), (f_hi, _, y_hi) = records[k - 1], records[k]
    if f_hi - f_lo <= 0.0:
        return y_hi
    w = (f_th - f_lo) / (f_hi - f_lo)
    return (1.0 - w) * y_lo + w * y_hi


def _close(x, y) -> bool:
    return x is not None and abs(x - y) <= TOL


def check_summary(exp: Expected, error: bool, rounds, reached, fidelity, yield_avg) -> tuple[str, str]:
    """Check one sweep cell (rounds, reached, final F, average yield).

    Returns (verdict, reason).  A non-distillable report where the reference
    distills is FAILED (the program refused the input); any wrong number is
    WRONG.
    """
    if error:
        if exp.error == "forbidden":
            return FAILED, "reported non-distillable on a distillable input"
        return OK, ""
    if exp.error == "required":
        return WRONG, "distilled an input the reference finds non-distillable"
    if rounds not in exp.stops:
        return WRONG, f"rounds {rounds}, expected one of {sorted(exp.stops)}"
    f_ref = exp.records[rounds][0]
    if not _close(fidelity, f_ref):
        return WRONG, f"final fidelity {fidelity!r}, expected {f_ref!r}"
    reach_ref = f_ref >= exp.f_th
    if bool(reached) != reach_ref and abs(f_ref - exp.f_th) > _EDGE:
        return WRONG, f"reached {reached}, expected {reach_ref}"
    if reached:
        y_ref = average_yield(exp.records[: rounds + 1], exp.f_th)
        if not _close(yield_avg, y_ref):
            return WRONG, f"average yield {yield_avg!r}, expected {y_ref!r}"
    elif yield_avg is not None:
        return WRONG, "average yield reported for a run below threshold"
    return OK, ""


def check_records(exp: Expected, records) -> tuple[str, str]:
    """Check a full per-round trace [(fidelity, keep, cumulative), ...]."""
    if exp.error == "required":
        return WRONG, "distilled an input the reference finds non-distillable"
    rounds = len(records) - 1
    if rounds not in exp.stops:
        return WRONG, f"rounds {rounds}, expected one of {sorted(exp.stops)}"
    for k, (got, ref) in enumerate(zip(records, exp.records)):
        for name, x, y in zip(("fidelity", "keep", "cumulative yield"), got, ref):
            if not _close(x, y):
                return WRONG, f"round {k} {name} {x!r}, expected {y!r}"
    return OK, ""


def worst(verdicts) -> tuple[str, str]:
    """Fold cell verdicts into one: WRONG beats FAILED beats OK."""
    out = (OK, "")
    for v in verdicts:
        if v[0] == WRONG:
            return v
        if v[0] == FAILED:
            out = v
    return out
