"""Command-line front end.

Subcommands
-----------
validate      check a Kraus pair for completeness
canonicalize  recover canonical parameters (p, eta, zeta, U, V)
state         canonical decomposition of the shared entangled state
distill       run one distillation policy and print its round trace
sweep-p       sweep noise severity p at fixed channel type |eta|
sweep-eta     sweep channel type |eta| at fixed noise severity p
figure        presets reproducing the reference data sets (ids 2, 3, 4)

Channels are given either inline (``--p``/``--eta``, with |eta| real) or as a
JSON file (``--in``) holding ``{"kraus": [...]}`` or ``{"canonical": {...}}``.
Exit codes: 0 success, 1 input error, 2 domain error (for example p >= 1 or a
non-distillable state), 3 engine cross-check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Sequence, TextIO

import numpy as np

from .analysis import (
    SweepPoint,
    _cell,
    _channel_for,
    sweep_eta,
    sweep_p,
    sweep_to_csv,
    sweep_to_json,
)
from .channel import (
    CanonicalChannelParams,
    KrausPair,
    canonical_params_from_json,
    canonicalize,
    channel_from_json,
    kraus_from_params,
    matrix_to_json,
    params_to_json,
    validate,
)
from .distill import DistillationTrace, Policy, run
from .errors import (
    DegenerateProtocolError,
    DomainError,
    EntanglementDestroyedError,
    NonDistillableError,
    SingleKrausChannelError,
)
from .state import canonical_decompose, shared_state

_DOMAIN_CODES = {
    SingleKrausChannelError: "single-kraus-channel",
    EntanglementDestroyedError: "entanglement-destroyed",
    NonDistillableError: "non-distillable",
    DegenerateProtocolError: "degenerate-protocol",
}

_CHECK_TOL = 1e-9


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as input errors (exit 1)."""

    def error(self, message):
        raise ValueError(message)


def _print_json(obj, stream: TextIO) -> None:
    json.dump(obj, stream, indent=2)
    stream.write("\n")


def _emit_error(code: str, detail: str, fmt: str) -> None:
    if fmt == "json":
        json.dump({"error": code, "detail": detail}, sys.stderr)
        sys.stderr.write("\n")
    else:
        print(f"error: {detail}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Channel input
# ---------------------------------------------------------------------------


def _add_channel_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--in", dest="in_path", metavar="FILE", help="channel spec JSON file")
    sub.add_argument("--p", type=float, help="noise severity p in [0, 1]")
    sub.add_argument("--eta", type=float, help="channel type |eta| in [0, 1]")


def _add_format_arg(sub: argparse.ArgumentParser, default: str) -> None:
    sub.add_argument(
        "--format", choices=("csv", "json"), default=default, help=f"output format (default {default})"
    )


def _load_spec(args) -> tuple[KrausPair, CanonicalChannelParams | None]:
    """Resolve the channel inputs to a Kraus pair (plus params when given)."""
    inline = args.p is not None or args.eta is not None
    if args.in_path and inline:
        raise ValueError("give either --in or --p/--eta, not both")
    if args.in_path:
        with open(args.in_path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError("channel spec must be a JSON object")
        if "canonical" in obj:
            cp = canonical_params_from_json(obj["canonical"])
            return kraus_from_params(cp), cp
        return channel_from_json(obj), None
    if args.p is None or args.eta is None:
        raise ValueError("channel input required: --in FILE or both --p and --eta")
    if not 0.0 <= args.eta <= 1.0:
        raise ValueError("--eta takes |eta| in [0, 1]")
    cp = _channel_for(args.p, args.eta)
    return kraus_from_params(cp), cp


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    kp, _ = _load_spec(args)
    result = validate(kp)
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["ok", "deviation"])
        writer.writerow([_cell(result.ok), _cell(result.deviation)])
    else:
        _print_json({"ok": result.ok, "deviation": result.deviation}, sys.stdout)
    return 0


def _cmd_canonicalize(args) -> int:
    kp, cp_in = _load_spec(args)
    cp = cp_in if cp_in is not None else canonicalize(kp)
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["p", "abs_eta", "zeta"])
        writer.writerow([_cell(cp.p), _cell(cp.abs_eta), _cell(cp.zeta)])
    else:
        _print_json(params_to_json(cp), sys.stdout)
    return 0


def _cmd_state(args) -> int:
    kp, _ = _load_spec(args)
    params = canonical_decompose(shared_state(kp))
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        cols = ["fidelity", "alpha", "beta", "gamma", "delta", "theta"]
        writer.writerow(cols)
        writer.writerow([_cell(float(getattr(params, c))) for c in cols])
    else:
        _print_json(
            {
                "fidelity": params.fidelity,
                "alpha": params.alpha,
                "beta": params.beta,
                "gamma": params.gamma,
                "delta": params.delta,
                "theta": params.theta,
                "u_a": matrix_to_json(params.u_a),
                "u_b": matrix_to_json(params.u_b),
            },
            sys.stdout,
        )
    return 0


def _trace_rows(trace: DistillationTrace) -> list[dict]:
    return [
        {
            "round": rec.round_index,
            "fidelity": rec.fidelity,
            "keep_prob": rec.keep_prob,
            "cumulative_yield": rec.cumulative_yield,
        }
        for rec in trace.records
    ]


def _write_trace(trace: DistillationTrace, fmt: str, stream: TextIO) -> None:
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["round", "fidelity", "keep_prob", "cumulative_yield"])
        for rec in trace.records:
            writer.writerow(
                [rec.round_index, _cell(rec.fidelity), _cell(rec.keep_prob), _cell(rec.cumulative_yield)]
            )
    else:
        _print_json(
            {
                "policy": trace.policy.value,
                "engine": trace.engine,
                "threshold": trace.threshold,
                "reached": trace.reached,
                "rounds": trace.rounds,
                "final_fidelity": trace.final_fidelity,
                "records": _trace_rows(trace),
            },
            stream,
        )


def _traces_disagree(a: DistillationTrace, b: DistillationTrace) -> str | None:
    if len(a.records) != len(b.records):
        return f"round counts differ: {len(a.records) - 1} vs {len(b.records) - 1}"
    for ra, rb in zip(a.records, b.records):
        if abs(ra.fidelity - rb.fidelity) > _CHECK_TOL:
            return (
                f"round {ra.round_index} fidelity differs by "
                f"{abs(ra.fidelity - rb.fidelity):.3e}"
            )
        if abs(ra.keep_prob - rb.keep_prob) > _CHECK_TOL:
            return (
                f"round {ra.round_index} keep probability differs by "
                f"{abs(ra.keep_prob - rb.keep_prob):.3e}"
            )
    return None


def _cmd_distill(args) -> int:
    kp, cp_in = _load_spec(args)
    cp = cp_in if cp_in is not None else canonicalize(kp)
    policy = Policy(args.policy)
    if args.check_analytic:
        if args.engine != "exact":
            raise ValueError("--check-analytic requires --engine exact")
        if policy not in (Policy.FP, Policy.PP):
            raise ValueError("--check-analytic applies to the fp and pp policies only")
    trace = run(cp, policy, f_th=args.f_th, max_rounds=args.max_rounds, engine=args.engine)
    if args.check_analytic:
        reference = run(cp, policy, f_th=args.f_th, max_rounds=args.max_rounds, engine="analytic")
        verdict = _traces_disagree(trace, reference)
        if verdict is not None:
            _emit_error("engine-mismatch", verdict, args.format)
            return 3
    _write_trace(trace, args.format, sys.stdout)
    return 0


def _parse_policies(raw: str) -> tuple[Policy, ...]:
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if not names:
        raise ValueError("no policies given")
    return tuple(Policy(name) for name in names)


def _parse_grid(raw: str | None, lo: float, hi: float, steps: int, name: str) -> list[float]:
    if raw is not None:
        try:
            values = [float(part) for part in raw.split(",") if part.strip()]
        except ValueError as exc:
            raise ValueError(f"bad {name} list: {exc}") from None
        if not values:
            raise ValueError(f"no {name} values given")
        return values
    if steps < 2:
        raise ValueError("--steps must be at least 2")
    return [float(v) for v in np.linspace(lo, hi, steps)]


def _write_sweep(points: Sequence[SweepPoint], fmt: str) -> None:
    if fmt == "csv":
        sweep_to_csv(points, sys.stdout)
    else:
        sweep_to_json(points, sys.stdout)


def _cmd_sweep_p(args) -> int:
    if not 0.0 <= args.eta <= 1.0:
        raise ValueError("--eta takes |eta| in [0, 1]")
    p_values = _parse_grid(args.p_values, args.p_min, args.p_max, args.steps, "p")
    points = sweep_p(
        args.eta,
        p_values,
        f_th=args.f_th,
        policies=_parse_policies(args.policies),
        max_rounds=args.max_rounds,
    )
    _write_sweep(points, args.format)
    return 0


def _cmd_sweep_eta(args) -> int:
    if args.eta_values is not None:
        eta_values = _parse_grid(args.eta_values, 0.0, 1.0, args.steps, "eta")
        if any(not 0.0 <= v <= 1.0 for v in eta_values):
            raise ValueError("--eta-values entries must lie in [0, 1]")
    else:
        # Uniform grid in arcsin|eta| over [0, pi/2], matching how channel
        # families are usually displayed.
        angles = np.linspace(0.0, math.pi / 2.0, args.steps)
        eta_values = [float(v) for v in np.sin(angles)]
    points = sweep_eta(
        args.p,
        eta_values,
        f_th=args.f_th,
        policies=_parse_policies(args.policies),
        max_rounds=args.max_rounds,
    )
    _write_sweep(points, args.format)
    return 0


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------


def _figure_two_rows() -> tuple[list[str], list[list]]:
    """Per-round fidelities of all four policies for three p = 0.8 channels."""
    p = 0.8
    policies = (Policy.FP, Policy.PP, Policy.QPA, Policy.BBPSSW)
    header = ["asin_eta_over_pi", "round"] + [pol.value for pol in policies]
    rows: list[list] = []
    for x in (0.0, 0.25, 0.5):
        abs_eta = math.sin(x * math.pi)
        traces: dict[Policy, DistillationTrace | None] = {}
        for pol in policies:
            try:
                traces[pol] = run(_channel_for(p, abs_eta), pol)
            except DomainError:
                traces[pol] = None
        depth = max(len(t.records) for t in traces.values() if t is not None)
        for r in range(depth):
            row: list = [x, r]
            for pol in policies:
                t = traces[pol]
                row.append(t.records[r].fidelity if t is not None and r < len(t.records) else None)
            rows.append(row)
    return header, rows


# Figures 3 and 4 are sweeps with fixed arguments.
_FIGURE_SWEEPS = {
    3: ["sweep-p", "--eta", "1.0", "--policies", "fp,pp,bbpssw"],
    4: ["sweep-eta", "--p", "0.7"],
}


def _cmd_figure(args) -> int:
    if args.id in _FIGURE_SWEEPS:
        sweep = _build_parser().parse_args([*_FIGURE_SWEEPS[args.id], "--format", args.format])
        return sweep.func(sweep)
    header, rows = _figure_two_rows()
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    else:
        _print_json([dict(zip(header, row)) for row in rows], sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and entry point
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="tko-distill", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("validate", help="check a Kraus pair for completeness")
    _add_channel_args(sp)
    _add_format_arg(sp, "json")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("canonicalize", help="canonical channel parameters")
    _add_channel_args(sp)
    _add_format_arg(sp, "json")
    sp.set_defaults(func=_cmd_canonicalize)

    sp = sub.add_parser("state", help="canonical shared-state decomposition")
    _add_channel_args(sp)
    _add_format_arg(sp, "json")
    sp.set_defaults(func=_cmd_state)

    sp = sub.add_parser("distill", help="run one distillation policy")
    _add_channel_args(sp)
    sp.add_argument("--policy", required=True, choices=[p.value for p in Policy])
    sp.add_argument("--f-th", type=float, default=0.99, help="fidelity threshold (default 0.99)")
    sp.add_argument("--max-rounds", type=int, default=64, help="round budget (default 64)")
    sp.add_argument(
        "--engine",
        choices=("analytic", "exact"),
        default=None,
        help="override the engine (default: exact for qpa, analytic otherwise)",
    )
    sp.add_argument(
        "--check-analytic",
        action="store_true",
        help="with --engine exact (fp/pp): cross-check against the closed forms, exit 3 on mismatch",
    )
    _add_format_arg(sp, "csv")
    sp.set_defaults(func=_cmd_distill)

    sp = sub.add_parser("sweep-p", help="sweep noise severity at fixed |eta|")
    sp.add_argument("--eta", type=float, required=True, help="channel type |eta| in [0, 1]")
    sp.add_argument("--p-min", type=float, default=0.0)
    sp.add_argument("--p-max", type=float, default=0.99)
    sp.add_argument("--steps", type=int, default=100, help="grid size (default 100)")
    sp.add_argument("--p-values", help="explicit comma-separated p list (overrides the grid)")
    _add_sweep_common(sp)
    sp.set_defaults(func=_cmd_sweep_p)

    sp = sub.add_parser("sweep-eta", help="sweep channel type at fixed p")
    sp.add_argument("--p", type=float, required=True, help="noise severity p")
    sp.add_argument(
        "--steps", type=int, default=100, help="arcsin|eta| grid size over [0, pi/2] (default 100)"
    )
    sp.add_argument("--eta-values", help="explicit comma-separated |eta| list (overrides the grid)")
    _add_sweep_common(sp)
    sp.set_defaults(func=_cmd_sweep_eta)

    sp = sub.add_parser("figure", help="reference data presets")
    sp.add_argument("--id", type=int, required=True, choices=(2, 3, 4))
    _add_format_arg(sp, "csv")
    sp.set_defaults(func=_cmd_figure)

    return parser


def _add_sweep_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--policies",
        default="fp,pp,qpa,bbpssw",
        help="comma-separated policy list (default all four)",
    )
    sp.add_argument("--f-th", type=float, default=0.99)
    sp.add_argument("--max-rounds", type=int, default=64)
    _add_format_arg(sp, "csv")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    fmt = getattr(args, "format", "json")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        _emit_error("input-error", str(exc), fmt)
        return 1
    except DomainError as exc:
        _emit_error(_DOMAIN_CODES.get(type(exc), "domain-error"), str(exc), fmt)
        return 2


if __name__ == "__main__":
    sys.exit(main())
