"""Analysis utilities: yield accounting, convergence diagnostics, optimality
checks, and parameter sweeps over families of two-Kraus channels.

The functions here consume the traces produced by :mod:`tko_distill.distill`
and the canonical parameters from :mod:`tko_distill.state` / ``channel``.
A sweep checks its grid once, runs each policy's cells as one column stack
through the round loop of :mod:`tko_distill.distill`, and returns its points
in grid order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .channel import _check_domain
from .distill import DistillationTrace, Policy, _check_budget, _columns, _filter_op
from .linalg import ID2
from .state import CanonicalStateParams

# CNOT on two qubits, control first: the permutation |ab> -> |a, a xor b>.
CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


# ---------------------------------------------------------------------------
# Optimal attainable fidelity
# ---------------------------------------------------------------------------


def optimal_fidelity_channel(p: float, abs_eta: float) -> float:
    """Largest one-pair fidelity local operations reach from two copies of the shared state:

        F* = 1/2 + sqrt((1 - p)(1 - |eta|^2 p)) / ((1 - p) + (1 - |eta|^2 p)).

    The fully postselecting protocol's first round attains it.

    For ``|eta| = 1`` this is exactly 1 whenever ``p < 1``: one round of
    postselection fully repairs any amplitude-damping channel.
    """
    p, abs_eta = map(float, _check_domain(p, abs_eta, distillable=True))
    a = 1.0 - p
    b = 1.0 - abs_eta**2 * p
    return 0.5 + math.sqrt(a * b) / (a + b)


# ---------------------------------------------------------------------------
# Randomized check that no sampled LOCC round beats the bound
# ---------------------------------------------------------------------------


def _locc_template(params: CanonicalStateParams) -> np.ndarray:
    """The two-pair source mixture as four weighted 4x4 components.

    The joint state of two shared pairs is a rank-four mixture of products of
    the eigenstates ``mu`` and ``nu``.  Each component is returned scaled by
    the square root of its weight and reshaped as a matrix indexed
    ``[alice (a1 a2), bob (b1 b2)]``, so a product operator ``N_A (x) N_B``
    acts as ``N_A @ omega @ N_B.T``.
    """
    mu = params.mu().reshape(2, 2)
    nu = params.nu().reshape(2, 2)
    f = params.fidelity
    weights = np.array([f * f, f * (1.0 - f), (1.0 - f) * f, (1.0 - f) ** 2])
    pairs = ((mu, mu), (mu, nu), (nu, mu), (nu, nu))
    mats = np.array([np.einsum("ab,cd->acbd", x, y).reshape(4, 4) for x, y in pairs])
    return np.sqrt(weights)[:, None, None] * mats


def _locc_num_den(
    weighted: np.ndarray, n_a: np.ndarray, n_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized fidelity and norm of the kept pair for a (b, 4, 4) stack of rounds.

    The fidelity of round ``b`` is ``num[b] / den[b]``.
    """
    batch = len(n_a)
    # N_A[b] @ omega[c] for every b and c as one (4b, 4) x (4, 16) product,
    # then each row block times N_B[b].T: out[b, a1, a2, c, b1, b2].
    left = n_a.reshape(4 * batch, 4) @ weighted.transpose(1, 0, 2).reshape(4, 16)
    out = left.reshape(batch, 16, 4) @ np.swapaxes(n_b, 1, 2)
    flat = out.reshape(batch, -1).view(np.float64)
    den = np.einsum("bi,bi->b", flat, flat)
    # <Phi+| on (a1, b1) is a sum of two slices; its 1/sqrt(2) squares to 1/2.
    out = out.reshape(batch, 2, 2, 4, 2, 2)
    kept = out[:, 0, :, :, 0, :] + out[:, 1, :, :, 1, :]
    flat = kept.reshape(batch, -1).view(np.float64)
    num = 0.5 * np.einsum("bi,bi->b", flat, flat)
    return num, den


def locc_fidelity(
    params: CanonicalStateParams, n_a: np.ndarray, n_b: np.ndarray
) -> float:
    """Kept-pair fidelity after one filtering round ``N_A (x) N_B``.

    Both operators act on one party's two qubits (ordered source, target).
    The second qubit of each party is measured out; all four outcomes keep
    the pair, so this covers any single-instrument round.  The result is the
    fidelity of the surviving pair with the maximally entangled target.
    """
    n_a = np.asarray(n_a, dtype=complex)
    n_b = np.asarray(n_b, dtype=complex)
    if n_a.shape != (4, 4) or n_b.shape != (4, 4):
        raise ValueError("local operators must be 4x4 (two qubits per party)")
    num, den = _locc_num_den(_locc_template(params), n_a[None], n_b[None])
    if den[0] <= 0.0:
        raise ValueError("filtering round annihilates the source mixture")
    return float(num[0] / den[0])


def fp_branch_operators(
    params: CanonicalStateParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Local operators realizing the first fully-postselected round.

    Alice applies a CNOT and keeps only outcome 1 on the target; Bob first
    applies the local filter on both of his qubits, then does the same.
    Feeding these to :func:`locc_fidelity` reproduces the optimal fidelity.
    """
    keep_one = np.kron(ID2, np.diag([0.0, 1.0]))
    m_b = _filter_op(params.alpha, params.beta)
    n_a = keep_one @ CNOT
    n_b = keep_one @ CNOT @ np.kron(m_b, m_b)
    return n_a, n_b


# Operator pairs drawn per batch; the batch arrays set the search's peak memory.
_LOCC_CHUNK = 20_000


def random_locc_check(
    params: CanonicalStateParams, samples: int = 100_000, seed: int = 0
) -> float:
    """Best kept-pair fidelity over random single-round filtering operations.

    Draws ``samples`` pairs of complex-Gaussian 4x4 operators and returns
    the maximum fidelity any of them achieves on two copies of the state.
    The fidelity is unchanged when either operator is multiplied by a
    nonzero scalar, so the draws are not rescaled: up to that scale, each is
    a valid measurement branch.  The maximum should never exceed
    ``optimal_fidelity_channel`` beyond numerical noise.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    weighted = _locc_template(params)
    best = 0.0
    for start in range(0, samples, _LOCC_CHUNK):
        shape = (min(_LOCC_CHUNK, samples - start), 4, 4)
        n_a, n_b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "ab")
        num, den = _locc_num_den(weighted, n_a, n_b)
        best = max(best, float(np.max(num / den)))
    return best


# ---------------------------------------------------------------------------
# Yield accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class YieldReport:
    """Yield of a protocol run, interpolated at its fidelity threshold.

    ``rounds_used`` is the first round index K whose fidelity reaches the
    threshold; ``average_yield`` splits the ensemble between rounds K-1 and K
    in proportion to how far each fidelity sits from the threshold, so it
    always lies between ``yield_at_k_minus_1`` and ``yield_at_k``.
    """

    policy: Policy
    f_th: float
    rounds_used: int
    yield_at_k: float
    yield_at_k_minus_1: float
    average_yield: float


def _interpolate(f_th, f_lo, f_hi, y_lo, y_hi):
    """Yield at the threshold, linear in fidelity between rounds K-1 and K, elementwise;
    the yield at K where the fidelity does not rise between them (K = 0 among those)."""
    gap = f_hi - f_lo
    weight = (f_th - f_lo) / np.where(gap > 0.0, gap, 1.0)
    return np.where(gap > 0.0, (1.0 - weight) * y_lo + weight * y_hi, y_hi)


def average_yield(trace: DistillationTrace) -> YieldReport:
    """Interpolated yield of a successful trace at its threshold.

    Raises ``ValueError`` if the trace never reached the threshold.  If the
    prepared state already clears it (K = 0), all three yields coincide with
    the preparation yield.
    """
    if not trace.reached:
        raise ValueError("trace did not reach its fidelity threshold")
    records = trace.records
    k = next(i for i, rec in enumerate(records) if rec.fidelity >= trace.threshold)
    lo, hi = records[max(k - 1, 0)], records[k]
    y_lo, y_hi = lo.cumulative_yield, hi.cumulative_yield
    avg = float(_interpolate(trace.threshold, lo.fidelity, hi.fidelity, y_lo, y_hi))
    return YieldReport(trace.policy, trace.threshold, k, y_hi, y_lo, avg)


def convergence_ratios(trace: DistillationTrace) -> list[tuple[float, float]]:
    """Per-round error ratios ``(1-F_k)/(1-F_{k-1})`` and ``.../(1-F_{k-1})^2``.

    The first tuple compares round 1 against the prepared state.  Quadratic
    convergence shows up as the second component approaching a constant while
    the first goes to zero; linear convergence keeps the first component at a
    fixed ratio.  Rounds where the previous fidelity is already exactly 1
    report ``(0.0, 0.0)``.
    """
    records = trace.records
    if len(records) < 2:
        raise ValueError("trace needs at least one round beyond preparation")
    ratios = []
    for prev, cur in zip(records, records[1:]):
        e_prev = 1.0 - prev.fidelity
        e_cur = 1.0 - cur.fidelity
        if e_prev <= 0.0 or e_cur <= 0.0:
            ratios.append((0.0, 0.0))
        else:
            ratios.append((e_cur / e_prev, e_cur / e_prev**2))
    return ratios


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """Outcome of one (channel, policy) cell of a sweep.

    ``error`` carries the message of a domain failure (for example a
    non-distillable start) instead of raising; ``report`` is present only
    when the run reached the threshold.
    """

    p: float
    abs_eta: float
    policy: Policy
    reached: bool
    rounds: int | None
    fidelity_final: float | None
    report: YieldReport | None
    error: str | None


SWEEP_COLUMNS = ("p", "abs_eta", "policy", "rounds", "reached", "fidelity_final", "yield_avg")


def _policy_points(policy, p_values, eta_values, p, abs_eta, f_th, max_rounds) -> list[SweepPoint]:
    """One policy's cells as one column stack, returned as sweep points of Python scalars."""
    hist, rounds, errors = _columns(policy, p, abs_eta, f_th, max_rounds)
    lo, hi = hist[:, np.maximum(rounds - 1, 0), np.arange(len(rounds))], hist[:, -1]
    avg = _interpolate(f_th, lo[0], hi[0], lo[2], hi[2])
    f_th, points = float(f_th), []
    cells = zip(rounds.tolist(), hi[0].tolist(), lo[2].tolist(), hi[2].tolist(), avg.tolist())
    for i, (p, abs_eta, (k, f, y_lo, y_hi, y)) in enumerate(zip(p_values, eta_values, cells)):
        if i in errors:
            points.append(SweepPoint(p, abs_eta, policy, False, None, None, None, str(errors[i])))
        else:
            report = YieldReport(policy, f_th, k, y_hi, y_lo, y) if f >= f_th else None
            points.append(SweepPoint(p, abs_eta, policy, f >= f_th, k, f, report, None))
    return points


def _sweep(p_values: list, eta_values: list, policies, f_th, max_rounds) -> list[SweepPoint]:
    """Cells (p, |eta|) x policies in grid order; a domain failure folds into its cell.

    The whole grid passes the (p, |eta|) domain rule at once; then each policy
    runs all its cells as one column stack.
    """
    policies = list(policies)
    if not p_values or not policies:
        return []
    p, abs_eta = _check_domain(p_values, eta_values)
    policies = [Policy(pol) for pol in policies]
    _check_budget(f_th, max_rounds)
    cells = (p_values, eta_values, p, abs_eta, f_th, max_rounds)
    columns = [_policy_points(pol, *cells) for pol in policies]
    return [pt for cell in zip(*columns) for pt in cell]


def run_point(
    p: float, abs_eta: float, policy: Policy, f_th: float = 0.99, max_rounds: int = 64
) -> SweepPoint:
    """Run one policy on one channel, folding failures into the result: a one-cell sweep."""
    return _sweep([p], [abs_eta], [policy], f_th, max_rounds)[0]


_ALL_POLICIES = (Policy.FP, Policy.PP, Policy.QPA, Policy.BBPSSW)


def sweep_p(
    abs_eta: float, p_values: Iterable[float], f_th: float = 0.99,
    policies: Sequence[Policy] = _ALL_POLICIES, max_rounds: int = 64,
) -> list[SweepPoint]:
    """Sweep the noise severity at fixed channel type ``|eta|``."""
    p_values = list(p_values)
    return _sweep(p_values, [abs_eta] * len(p_values), policies, f_th, max_rounds)


def sweep_eta(
    p: float, eta_values: Iterable[float], f_th: float = 0.99,
    policies: Sequence[Policy] = _ALL_POLICIES, max_rounds: int = 64,
) -> list[SweepPoint]:
    """Sweep the channel type ``|eta|`` at fixed noise severity ``p``."""
    eta_values = list(eta_values)
    return _sweep([p] * len(eta_values), eta_values, policies, f_th, max_rounds)


def _cell(value) -> str:
    """Full-precision, locale-independent cell rendering for CSV output."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write_table(
    stream: TextIO, fmt: str, header: Sequence[str], rows: Iterable[Sequence], obj=None
) -> None:
    """Render a header and rows as CSV, or write ``obj`` as JSON.

    The JSON value defaults to the rows as objects keyed by the header.
    """
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
        return
    if obj is None:
        obj = [dict(zip(header, row)) for row in rows]
    json.dump(obj, stream, indent=2)
    stream.write("\n")


def _sweep_rows(points: Sequence[SweepPoint]) -> list[list]:
    """Each point flattened into the normative columns, SWEEP_COLUMNS."""
    return [
        [pt.p, pt.abs_eta, pt.policy.value, pt.rounds, pt.reached, pt.fidelity_final,
         None if pt.report is None else pt.report.average_yield]
        for pt in points
    ]


def sweep_to_csv(points: Sequence[SweepPoint], stream: TextIO) -> None:
    """Write sweep results as CSV with the normative column order."""
    _write_table(stream, "csv", SWEEP_COLUMNS, _sweep_rows(points))


def sweep_to_json(points: Sequence[SweepPoint], stream: TextIO) -> None:
    """Write sweep results as a JSON array of row objects."""
    _write_table(stream, "json", SWEEP_COLUMNS, _sweep_rows(points))
