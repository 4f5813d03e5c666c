"""Self-test of the benchmark's output checks.

Usage (from the repository root):  python3 perfbench/selftest.py

Each check first accepts a real output of the program, then must reject the
same output perturbed: a fidelity off by 1e-6, a wrong round count, a LOCC
value above F*, a changed repeat, a nonzero CLI exit.  The bbpssw domain
errors the Werner map requires must be accepted.  Exits 1 if any case fails.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tko_distill as td  # noqa: E402
import tko_distill.cli  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wls  # noqa: E402
from reference import FAILED, OK, WRONG  # noqa: E402

CASES = []


def case(name, got, want):
    ok = got[0] in want
    CASES.append(ok)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {got[0]} {got[1]}".rstrip())


def cli_text(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tko_distill.cli.main(argv)
    assert code == 0, argv
    return buf.getvalue()


def sweeps():
    memo = wls.Memo()
    pols = (td.Policy.FP, td.Policy.PP, td.Policy.BBPSSW, td.Policy.QPA)
    points = td.sweep_p(0.6, [0.0, 0.3, 0.7, 0.95], policies=pols)
    case("sweep cells as computed", wls.check_points(points, memo), (OK,))
    for i, pt in enumerate(points):
        if pt.error is not None or pt.rounds < 1:
            continue
        tag = f"{pt.policy.value} p={pt.p}"
        bad = dataclasses.replace(pt, fidelity_final=pt.fidelity_final + 1e-6)
        case(f"{tag}: final fidelity + 1e-6", wls.check_points([bad], memo), (WRONG,))
        bad = dataclasses.replace(pt, rounds=pt.rounds + 1)
        case(f"{tag}: one round too many", wls.check_points([bad], memo), (WRONG,))
        bad = dataclasses.replace(pt, rounds=pt.rounds - 1)
        case(f"{tag}: one round too few", wls.check_points([bad], memo), (WRONG,))
        if pt.report is not None:
            rep = dataclasses.replace(pt.report, average_yield=pt.report.average_yield + 1e-6)
            case(f"{tag}: average yield + 1e-6", wls.check_points([dataclasses.replace(pt, report=rep)], memo), (WRONG,))
        refused = dataclasses.replace(pt, error="non-distillable", rounds=None, reached=False, fidelity_final=None, report=None)
        case(f"{tag}: refusal of a distillable input", wls.check_points([refused], memo), (FAILED,))

    # p = 0.9 on amplitude damping: Werner fidelity below 1/2, bbpssw must refuse.
    (pt,) = td.sweep_p(1.0, [0.9], policies=(td.Policy.BBPSSW,))
    assert ref.werner_fidelity(0.9, 1.0) < 0.5 and pt.error is not None
    case("bbpssw refusal where F_Werner <= 1/2", wls.check_points([pt], memo), (OK,))
    claimed = dataclasses.replace(pt, error=None, rounds=3, reached=True, fidelity_final=0.995, report=None)
    case("bbpssw result where F_Werner <= 1/2", wls.check_points([claimed], memo), (WRONG,))


def cli():
    work = ROOT / "perfbench" / "out" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    wl = wls.Cli(np.random.default_rng(7), ROOT, work, {}, False)
    wl.prepare()
    for call in wl.calls[: wl.rotation]:
        text = cli_text(call.argv)
        label = " ".join(a for a in call.argv if a[:1].isalpha() or a in ("--engine", "--id"))
        case(f"cli {label}: as computed", wl.check(0, (call, 0, text)), (OK,))
        case(f"cli {label}: exit 2", wl.check(0, (call, 2, text)), (FAILED,))
        case(f"cli {label}: one number + 1e-6", wl.check(0, (call, 0, _bump(call.argv, text))), (WRONG,))
        if call.argv[0] == "distill":
            lines = text.splitlines(keepends=True)
            if call.argv[-1] != "json" and len(lines) > 2:
                case(f"cli {label}: last round dropped", wl.check(0, (call, 0, "".join(lines[:-1]))), (WRONG,))
        if call.argv[0] == "sweep-p":
            lines = text.splitlines(keepends=True)
            case(f"cli {label}: row missing", wl.check(0, (call, 0, "".join(lines[:-1]))), (WRONG,))


def _bump(argv, text: str) -> str:
    """The output with one checked number moved by 1e-6."""
    if argv[0] in ("canonicalize", "state") or argv[-1] == "json":
        obj = json.loads(text)
        if argv[0] == "distill":
            obj["records"][1]["fidelity"] += 1e-6
        else:
            obj["p" if argv[0] == "canonicalize" else "fidelity"] += 1e-6
        return json.dumps(obj)
    rows = list(csv.reader(io.StringIO(text)))
    col = {"distill": "fidelity", "sweep-p": "fidelity_final", "figure": "fp"}[argv[0]]
    j = rows[0].index(col)
    row = next(r for r in rows[2:] if r[j])
    row[j] = repr(float(row[j]) + 1e-6)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def locc():
    wl = wls.LoccSearch(td, np.random.default_rng(3))
    wl._queue = wl._queue[:2]
    wl.prepare()
    out = wl.execute(0)
    case("locc value as computed", wl.check(0, out), (OK,))
    p, a, seed, _ = out
    bound = ref.optimum(p, a)
    case("locc value = F* + 1e-6", wl.check(1, (p, a, seed, bound + 1e-6)), (WRONG,))
    case("locc repeat that differs", wl.check(0, (p, a, seed, out[3] - 1e-6)), (WRONG,))


def main() -> int:
    sweeps()
    cli()
    locc()
    failed = CASES.count(False)
    print(f"{len(CASES) - failed}/{len(CASES)} self-test cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
