"""Canonicalization and entanglement distillation for two-Kraus-operator
qubit channels.

The package canonicalizes any qubit channel with two Kraus operators to the
parameter triple (p, eta, zeta) plus local unitaries, derives the canonical
two-term mixture of the entangled state it shares, and runs recurrence
distillation protocols over it — with closed-form recurrences cross-checked
against an exact two-pair density-matrix engine.
"""

from .analysis import (
    SweepPoint, YieldReport, average_yield, convergence_ratios, fp_branch_operators,
    locc_fidelity, optimal_fidelity_channel, random_locc_check, run_point, sweep_eta,
    sweep_p, sweep_to_csv, sweep_to_json,
)
from .channel import (
    CanonicalChannelParams, ChannelValidation, KrausPair, canonicalize, choi,
    kraus_from_params, remix, validate,
)
from .distill import (
    DistillationTrace, Policy, RoundRecord, bbpssw_initial_fidelity, bbpssw_step,
    bbpssw_trace, recurrence_analytic, recurrence_step, round_exact, rssp_analytic,
    rssp_apply, run,
)
from .errors import (
    DegenerateProtocolError, DomainError, EntanglementDestroyedError,
    NonDistillableError, SingleKrausChannelError,
)
from .state import (
    CanonicalStateParams, canonical_decompose, params_analytic, shared_state,
    verify_canonical,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalChannelParams",
    "CanonicalStateParams",
    "ChannelValidation",
    "DegenerateProtocolError",
    "DistillationTrace",
    "DomainError",
    "EntanglementDestroyedError",
    "KrausPair",
    "NonDistillableError",
    "Policy",
    "RoundRecord",
    "SingleKrausChannelError",
    "SweepPoint",
    "YieldReport",
    "average_yield",
    "bbpssw_initial_fidelity",
    "bbpssw_step",
    "bbpssw_trace",
    "canonical_decompose",
    "canonicalize",
    "choi",
    "convergence_ratios",
    "fp_branch_operators",
    "kraus_from_params",
    "locc_fidelity",
    "optimal_fidelity_channel",
    "params_analytic",
    "random_locc_check",
    "recurrence_analytic",
    "recurrence_step",
    "remix",
    "round_exact",
    "rssp_analytic",
    "rssp_apply",
    "run",
    "run_point",
    "shared_state",
    "sweep_eta",
    "sweep_p",
    "sweep_to_csv",
    "sweep_to_json",
    "validate",
    "verify_canonical",
]
