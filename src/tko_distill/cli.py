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

validate, canonicalize, state and distill take a channel either inline
(``--p``/``--eta``, with |eta| real in [0, 1]) or as a JSON file (``--in``)
holding ``{"kraus": [...]}`` or ``{"canonical": {...}}``.  Sweeps need at
least two grid steps.
Exit codes: 0 success, 1 input error, 2 domain error (for example p >= 1 or a
non-distillable state), 3 engine cross-check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from .analysis import (
    _write_table,
    sweep_eta,
    sweep_p,
    sweep_to_csv,
    sweep_to_json,
)
from .channel import (
    CanonicalChannelParams,
    KrausPair,
    _check_domain,
    canonicalize,
    kraus_from_params,
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


def _matrix_to_json(m: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in np.asarray(m, dtype=complex).reshape(-1)]


def _matrix_from_json(entries, name: str) -> np.ndarray:
    try:
        flat = [complex(float(re), float(im)) for re, im in entries]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a list of four [re, im] pairs") from exc
    if len(flat) != 4:
        raise ValueError(f"{name} must have exactly four entries, got {len(flat)}")
    return np.array(flat, dtype=complex).reshape(2, 2)


def _params_to_json(cp: CanonicalChannelParams) -> dict:
    return {
        "p": cp.p,
        "eta": [cp.eta.real, cp.eta.imag],
        "zeta": cp.zeta,
        "u": _matrix_to_json(cp.u),
        "v": _matrix_to_json(cp.v),
    }


def _channel(p: float, eta: complex, **rotations) -> CanonicalChannelParams:
    """The canonical channel (p, eta), u and v default to the identity; zeta = sqrt(1 - |eta|^2)."""
    zeta = math.sqrt(max(1.0 - abs(eta) ** 2, 0.0))
    return CanonicalChannelParams(p=p, eta=eta, zeta=zeta, **rotations)


def _canonical_params_from_json(spec: dict) -> CanonicalChannelParams:
    if not isinstance(spec, dict) or "p" not in spec:
        raise ValueError("'canonical' spec must be an object with at least a 'p' entry")
    p = float(spec["p"])
    eta_spec = spec.get("eta", 0.0)
    if isinstance(eta_spec, (list, tuple)):
        if len(eta_spec) != 2:
            raise ValueError("'eta' as a list must be [re, im]")
        eta = complex(float(eta_spec[0]), float(eta_spec[1]))
    else:
        eta = complex(float(eta_spec), 0.0)
    rotations = {key: _matrix_from_json(spec[key], key) for key in ("u", "v") if key in spec}
    return _channel(p, eta, **rotations)


def _spec_from_json(obj) -> KrausPair | CanonicalChannelParams:
    """The object a channel spec names: a Kraus pair or canonical parameters.

    Accepted forms (``"canonical"`` wins when both keys are present):
        {"kraus": [[[re,im], ...4 entries], [[re,im], ...4 entries]]}
        {"canonical": {"p": <real>, "eta": <real> | [re, im],
                       "u": <matrix, optional>, "v": <matrix, optional>}}
    """
    if not isinstance(obj, dict):
        raise ValueError("channel spec must be a JSON object")
    if "canonical" in obj:
        return _canonical_params_from_json(obj["canonical"])
    if "kraus" in obj:
        mats = obj["kraus"]
        if not isinstance(mats, (list, tuple)) or len(mats) != 2:
            raise ValueError("'kraus' must hold exactly two matrices")
        return KrausPair(
            _matrix_from_json(mats[0], "kraus[0]"), _matrix_from_json(mats[1], "kraus[1]")
        )
    raise ValueError("channel spec needs a 'kraus' or 'canonical' key")


def _as_kraus(spec: KrausPair | CanonicalChannelParams) -> KrausPair:
    return spec if isinstance(spec, KrausPair) else kraus_from_params(spec)


def _load_spec(args) -> KrausPair | CanonicalChannelParams:
    """Resolve the channel inputs to the Kraus pair or parameters they name."""
    inline = args.p is not None or args.eta is not None
    if args.in_path and inline:
        raise ValueError("give either --in or --p/--eta, not both")
    if args.in_path:
        with open(args.in_path, "r", encoding="utf-8") as fh:
            return _spec_from_json(json.load(fh))
    if args.p is None or args.eta is None:
        raise ValueError("channel input required: --in FILE or both --p and --eta")
    # --eta is |eta| itself, so a negative value is out of its domain, not a phase.
    return _channel(args.p, float(_check_domain(args.p, args.eta)[1]))


def _params_of(spec: KrausPair | CanonicalChannelParams) -> CanonicalChannelParams:
    """Canonical parameters of a spec; canonicalize validates a Kraus pair."""
    return canonicalize(spec) if isinstance(spec, KrausPair) else spec


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    result = validate(_as_kraus(_load_spec(args)))
    header, row = ["ok", "deviation"], [result.ok, result.deviation]
    _write_table(sys.stdout, args.format, header, [row], dict(zip(header, row)))
    return 0


def _cmd_canonicalize(args) -> int:
    cp = _params_of(_load_spec(args))
    header, row = ["p", "abs_eta", "zeta"], [cp.p, cp.abs_eta, cp.zeta]
    _write_table(sys.stdout, args.format, header, [row], _params_to_json(cp))
    return 0


def _cmd_state(args) -> int:
    spec = _load_spec(args)
    cp = _params_of(spec)
    _check_domain(cp.p, cp.abs_eta, distillable=True)
    params = canonical_decompose(shared_state(_as_kraus(spec)))
    header = ["fidelity", "alpha", "beta", "gamma", "delta", "theta"]
    row = [getattr(params, c) for c in header]
    obj = dict(zip(header, row))
    obj.update(u_a=_matrix_to_json(params.u_a), u_b=_matrix_to_json(params.u_b))
    _write_table(sys.stdout, args.format, header, [row], obj)
    return 0


def _traces_disagree(a: DistillationTrace, b: DistillationTrace) -> str | None:
    if len(a.records) != len(b.records):
        return f"round counts differ: {a.rounds} vs {b.rounds}"
    for ra, rb in zip(a.records, b.records):
        for field, noun in (("fidelity", "fidelity"), ("keep_prob", "keep probability")):
            gap = abs(getattr(ra, field) - getattr(rb, field))
            if gap > _CHECK_TOL:
                return f"round {ra.round_index} {noun} differs by {gap:.3e}"
    return None


def _cmd_distill(args) -> int:
    cp = _params_of(_load_spec(args))
    if args.check_analytic and args.engine != "exact":
        raise ValueError("--check-analytic requires --engine exact")
    budget = {"f_th": args.f_th, "max_rounds": args.max_rounds}
    trace = run(cp, args.policy, engine=args.engine, **budget)
    if args.check_analytic:
        # run's engine table rejects the policies that lack either engine; the
        # exact run goes first, so bbpssw's misuse is not masked by its domain errors.
        verdict = _traces_disagree(trace, run(cp, args.policy, engine="analytic", **budget))
        if verdict is not None:
            _emit_error("engine-mismatch", verdict, args.format)
            return 3
    header = ["round", "fidelity", "keep_prob", "cumulative_yield"]
    rows = [[r.round_index, r.fidelity, r.keep_prob, r.cumulative_yield] for r in trace.records]
    obj = {
        "policy": trace.policy.value,
        "engine": trace.engine,
        "threshold": trace.threshold,
        "reached": trace.reached,
        "rounds": trace.rounds,
        "final_fidelity": trace.final_fidelity,
        "records": [dict(zip(header, row)) for row in rows],
    }
    _write_table(sys.stdout, args.format, header, rows, obj)
    return 0


def _parse_policies(raw: str) -> tuple[Policy, ...]:
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if not names:
        raise ValueError("no policies given")
    return tuple(Policy(name) for name in names)


def _sweep_grid(args) -> list[float]:
    """The swept values: the explicit list, else ``--steps`` warped grid points."""
    if args.values is not None:
        try:
            values = [float(part) for part in args.values.split(",") if part.strip()]
        except ValueError as exc:
            raise ValueError(f"bad {args.axis} list: {exc}") from None
        if not values:
            raise ValueError(f"no {args.axis} values given")
        return values
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    return [float(v) for v in args.warp(np.linspace(args.lo, args.hi, args.steps))]


def _cmd_sweep(args) -> int:
    points = args.sweep(
        args.fixed,
        _sweep_grid(args),
        f_th=args.f_th,
        policies=_parse_policies(args.policies),
        max_rounds=args.max_rounds,
    )
    (sweep_to_csv if args.format == "csv" else sweep_to_json)(points, sys.stdout)
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
                traces[pol] = run(_channel(p, abs_eta), pol)
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
    _write_table(sys.stdout, args.format, *_figure_two_rows())
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and entry point
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="tko-distill", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    for name, text, func in (
        ("validate", "check a Kraus pair for completeness", _cmd_validate),
        ("canonicalize", "canonical channel parameters", _cmd_canonicalize),
        ("state", "canonical shared-state decomposition", _cmd_state),
    ):
        sp = sub.add_parser(name, help=text)
        _add_channel_args(sp)
        _add_format_arg(sp, "json")
        sp.set_defaults(func=func)

    sp = sub.add_parser("distill", help="run one distillation policy")
    _add_channel_args(sp)
    sp.add_argument("--policy", required=True, choices=[p.value for p in Policy])
    sp.add_argument("--f-th", type=float, default=0.99, help="fidelity threshold (default 0.99)")
    sp.add_argument("--max-rounds", type=int, default=64, help="round budget (default 64)")
    sp.add_argument(
        "--engine", choices=("analytic", "exact"), help="override the engine (default analytic)"
    )
    sp.add_argument(
        "--check-analytic", action="store_true",
        help="with --engine exact (fp/pp/qpa): check against the analytic engine, exit 3 on mismatch",
    )
    _add_format_arg(sp, "csv")
    sp.set_defaults(func=_cmd_distill)

    sp = sub.add_parser("sweep-p", help="sweep noise severity at fixed |eta|")
    sp.add_argument(
        "--eta", dest="fixed", metavar="ETA", type=float, required=True,
        help="channel type |eta| in [0, 1]",
    )
    sp.add_argument("--p-min", dest="lo", metavar="P_MIN", type=float, default=0.0)
    sp.add_argument("--p-max", dest="hi", metavar="P_MAX", type=float, default=0.99)
    sp.add_argument("--steps", type=int, default=100, help="grid size (default 100)")
    sp.add_argument(
        "--p-values", dest="values", metavar="P_VALUES",
        help="explicit comma-separated p list (overrides the grid)",
    )
    _add_sweep_common(sp)
    sp.set_defaults(sweep=sweep_p, axis="p", warp=np.asarray)

    sp = sub.add_parser("sweep-eta", help="sweep channel type at fixed p")
    sp.add_argument(
        "--p", dest="fixed", metavar="P", type=float, required=True, help="noise severity p"
    )
    sp.add_argument(
        "--steps", type=int, default=100, help="arcsin|eta| grid size over [0, pi/2] (default 100)"
    )
    sp.add_argument(
        "--eta-values", dest="values", metavar="ETA_VALUES",
        help="explicit comma-separated |eta| list (overrides the grid)",
    )
    _add_sweep_common(sp)
    # Uniform grid in arcsin|eta| over [0, pi/2], matching how channel
    # families are usually displayed.
    sp.set_defaults(sweep=sweep_eta, axis="eta", lo=0.0, hi=math.pi / 2.0, warp=np.sin)

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
    sp.set_defaults(func=_cmd_sweep)


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
