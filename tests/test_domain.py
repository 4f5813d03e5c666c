"""One (p, |eta|) domain rule behind every library and CLI entry.

A value within 1e-9 of [0, 1] is clamped into it; anything else, NaN
included, is a ValueError (CLI exit 1, ``input-error``).  A single channel
with p >= 1 after clamping raises EntanglementDestroyedError (CLI exit 2,
``entanglement-destroyed``); a sweep reports it in its cell's ``error``
text instead.  Every entry must give, for each input below, what it gives
at the clamped input, or the listed error class and message.
"""

import json
import math
from dataclasses import replace

import pytest

from tko_distill import (
    CanonicalChannelParams,
    DomainError,
    EntanglementDestroyedError,
    Policy,
    optimal_fidelity_channel,
    params_analytic,
    run,
    run_point,
    sweep_eta,
    sweep_p,
)
from tko_distill.cli import main

NAN = float("nan")
DESTROYED = (EntanglementDestroyedError, "p=1.0 leaves no entanglement to distill")

# (p, |eta|, the clamped (p, |eta|) the input runs as, or the error it must raise)
INPUTS = [
    (1.0, 0.5, DESTROYED),
    (1 + 5e-10, 0.5, DESTROYED),
    (-5e-10, 0.5, (0.0, 0.5)),
    (-0.1, 0.5, (ValueError, "noise severity p=-0.1 outside [0, 1]")),
    (1.5, 0.5, (ValueError, "noise severity p=1.5 outside [0, 1]")),
    (NAN, 0.5, (ValueError, "noise severity p=nan outside [0, 1]")),
    (0.5, 1 + 5e-10, (0.5, 1.0)),
    (0.5, -5e-10, (0.5, 0.0)),
    (0.5, -0.1, (ValueError, "|eta| must lie in [0, 1], got -0.1")),
    (0.5, 1.5, (ValueError, "|eta| must lie in [0, 1], got 1.5")),
    (0.5, NAN, (ValueError, "|eta| must lie in [0, 1], got nan")),
]

# zeta, given to CanonicalChannelParams at |eta| = 0.5, and the error it must raise.
# The CLI computes zeta from eta, so only the library takes it.
ZETA_INPUTS = [
    (NAN, "zeta must be a non-negative number, got nan"),
    (math.inf, "|eta|^2 + zeta^2 must equal 1"),
]

CLI_ERRORS = {ValueError: (1, "input-error"), EntanglementDestroyedError: (2, "entanglement-destroyed")}


def _channel(p, eta):
    return CanonicalChannelParams(p, eta=eta, zeta=math.sqrt(max(1.0 - eta * eta, 0.0)))


def _cell(point):
    """A sweep point without the input it echoes; p >= 1 comes back as its error text."""
    if point.error is not None:
        return EntanglementDestroyedError, point.error
    return replace(point, p=None, abs_eta=None)


LIBRARY = {
    "params_analytic": params_analytic,
    "optimal_fidelity_channel": optimal_fidelity_channel,
    "run-fp-analytic": lambda p, e: run(_channel(p, e), Policy.FP),
    "run-fp-exact": lambda p, e: run(_channel(p, e), Policy.FP, engine="exact"),
    "run-qpa-exact": lambda p, e: run(_channel(p, e), Policy.QPA, engine="exact"),
    "run_point": lambda p, e: _cell(run_point(p, e, Policy.FP)),
    "sweep_p": lambda p, e: _cell(*sweep_p(e, [p], policies=[Policy.FP])),
    "sweep_eta": lambda p, e: _cell(*sweep_eta(p, [e], policies=[Policy.FP])),
}
CLI = ("distill-inline", "distill-file", "state-inline", "state-file")
# These entries take eta itself, whose modulus is never negative: a negative
# real eta is a phase, so the negative |eta| inputs apply to the others only.
TAKES_ETA = ("run-fp-analytic", "run-fp-exact", "run-qpa-exact", "distill-file", "state-file")


def _cases(entries):
    return [
        pytest.param(entry, p, e, want, id=f"{entry}-p={p!r}-eta={e!r}")
        for entry in entries
        for p, e, want in INPUTS
        if not (entry in TAKES_ETA and e < 0.0)
    ]


def _is_error(want) -> bool:
    return isinstance(want[0], type)


def _library(entry, p, e):
    try:
        return LIBRARY[entry](p, e)
    except (ValueError, DomainError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("entry, p, abs_eta, want", _cases(LIBRARY))
def test_library_entry_follows_the_domain_rule(entry, p, abs_eta, want):
    got = _library(entry, p, abs_eta)
    if _is_error(want):
        assert got == want
    else:
        clamped = _library(entry, *want)
        assert not (isinstance(clamped, tuple) and _is_error(clamped)), clamped
        assert got == clamped


def _cli(entry, p, e, capsys, tmp_path):
    """Exit 0 gives stdout; any other exit gives (code, error key, detail)."""
    command, form = entry.split("-")
    if form == "inline":
        argv = [command, f"--p={p!r}", f"--eta={e!r}"]
    else:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"canonical": {"p": p, "eta": e}}), encoding="utf-8")
        argv = [command, "--in", str(spec)]
    if command == "distill":
        argv += ["--policy", "fp"]
    code = main([*argv, "--format", "json"])
    out, err = capsys.readouterr()
    if code == 0:
        return out
    report = json.loads(err)
    return code, report["error"], report["detail"]


@pytest.mark.parametrize("entry, p, abs_eta, want", _cases(CLI))
def test_cli_entry_follows_the_domain_rule(entry, p, abs_eta, want, capsys, tmp_path):
    got = _cli(entry, p, abs_eta, capsys, tmp_path)
    if _is_error(want):
        assert got == (*CLI_ERRORS[want[0]], want[1])
    else:
        clamped = _cli(entry, *want, capsys, tmp_path)
        assert isinstance(clamped, str), clamped
        assert got == clamped


@pytest.mark.parametrize("zeta, message", ZETA_INPUTS)
def test_canonical_params_reject_bad_zeta(zeta, message):
    with pytest.raises(ValueError) as err:
        CanonicalChannelParams(0.5, eta=0.5, zeta=zeta)
    assert str(err.value) == message
