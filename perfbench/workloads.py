"""The four workloads: inputs from a seed, one timed call per operation, checks.

Each workload builds a fixed rotation of operations from the seed.  The
harness runs whole rotations, so every run attempts the same mix and the
share of failed operations is the same in every run.  ``execute`` is the
only timed part; ``check`` compares its output with ``reference``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import reference as ref
from reference import FAILED, OK, WRONG

F_TH = 0.99
def _linspace(lo, hi, n):
    return [float(v) for v in np.linspace(lo, hi, n)]


def _arcsine_grid(n):
    """|eta| = sin(x) for x uniform on [0, pi/2], as ``figure --id 4`` uses."""
    return [float(v) for v in np.sin(np.linspace(0.0, math.pi / 2.0, n))]


class Memo:
    """Reference trajectories, computed once per (policy, p, |eta|)."""

    def __init__(self):
        self._cache = {}

    def __call__(self, policy, p, a):
        key = (policy, p, a)
        if key not in self._cache:
            self._cache[key] = ref.expected(policy, p, a, F_TH, 64)
        return self._cache[key]


def check_points(points, memo) -> tuple[str, str]:
    """Check every cell of a sweep result against the reference."""
    verdicts = []
    for pt in points:
        exp = memo(pt.policy.value, pt.p, pt.abs_eta)
        y = pt.report.average_yield if pt.report is not None else None
        v = ref.check_summary(exp, pt.error is not None, pt.rounds, pt.reached, pt.fidelity_final, y)
        if v[0] != OK:
            v = (v[0], f"{pt.policy.value} p={pt.p!r} |eta|={pt.abs_eta!r}: {v[1]}")
        verdicts.append(v)
    return ref.worst(verdicts)


# ---------------------------------------------------------------------------
# Library sweeps


class _Sweeps:
    """Sweep operations: ("p", |eta|, p grid) or ("eta", p, |eta| grid)."""

    policies: tuple[str, ...] = ()

    def __init__(self, td):
        self.td = td
        self.memo = Memo()
        self._pols = tuple(td.Policy(p) for p in self.policies)

    def prepare(self):
        """Fill the reference cache so the timed loop only looks values up."""
        for kind, fixed, grid in self.ops:
            for x in grid:
                p, a = (x, fixed) if kind == "p" else (fixed, x)
                for pol in self.policies:
                    self.memo(pol, p, a)

    @property
    def rotation(self):
        return len(self.ops)

    def execute(self, i):
        kind, fixed, grid = self.ops[i]
        analysis = self.td.analysis
        if kind == "p":
            return analysis.sweep_p(fixed, grid, f_th=F_TH, policies=self._pols)
        return analysis.sweep_eta(fixed, grid, f_th=F_TH, policies=self._pols)

    def check(self, i, points):
        if len(points) != self.units(i):
            return WRONG, f"sweep returned {len(points)} cells"
        return check_points(points, self.memo)

    def units(self, i):
        return len(self.ops[i][2]) * len(self.policies)


class SweepAnalytic(_Sweeps):
    """100-point sweeps with fp, pp and bbpssw, the size of ``figure --id 3``.

    One operation in eight is the |eta| = 1 sweep whose p grid ends at
    1 - 1e-9, where fp and pp refuse a state the closed form distills.
    """

    policies = ("fp", "pp", "bbpssw")

    def __init__(self, td, rng):
        super().__init__(td)
        j = lambda c, w=0.005: float(c + rng.uniform(-w, w))  # noqa: E731
        p_grid = lambda: _linspace(j(0.01), j(0.97), 100)  # noqa: E731
        self.ops = [
            ("p", 0.0, _linspace(0.0, j(0.97), 100)),
            ("p", 1.0, p_grid()),
            ("p", j(0.5), p_grid()),
            ("eta", j(0.3), _arcsine_grid(100)),
            ("p", j(0.8), p_grid()),
            ("eta", j(0.6), _linspace(0.0, 1.0, 100)),
            ("p", 1.0, _linspace(j(0.025), 1.0 - 1e-9, 100)),
            ("eta", j(0.85), _arcsine_grid(100)),
        ]


class ExactEngine(_Sweeps):
    """50-point qpa sweeps; every cell runs the 16x16 exact engine."""

    policies = ("qpa",)

    def __init__(self, td, rng):
        super().__init__(td)
        j = lambda c, w=0.005: float(c + rng.uniform(-w, w))  # noqa: E731
        p_grid = lambda: _linspace(j(0.03), j(0.96), 50)  # noqa: E731
        self.ops = [
            ("p", 0.0, p_grid()),
            ("p", 1.0, p_grid()),
            ("p", j(0.5), p_grid()),
            ("eta", j(0.5), _arcsine_grid(50)),
            ("p", j(0.3), p_grid()),
            ("eta", j(0.8), _arcsine_grid(50)),
        ]


# ---------------------------------------------------------------------------
# Random LOCC search

LOCC_SAMPLES = 20_000
LOCC_PS = tuple(round(0.1 * k, 1) for k in range(1, 10))
LOCC_ETAS = tuple(math.sin(math.pi * x) for x in (0.0, 0.125, 0.25, 0.375, 0.5))


class LoccSearch:
    """``random_locc_check`` at a fixed sample count on the 9 x 5 grid.

    Points are visited in a seed-permuted order, each with its own seed.  The
    first operation of every rotation of five is repeated, untimed, and must
    return the same value.
    """

    def __init__(self, td, rng):
        self.td = td
        order = rng.permutation(len(LOCC_PS) * len(LOCC_ETAS))
        seeds = rng.integers(0, 2**31, size=order.size)
        pts = [(LOCC_PS[i // len(LOCC_ETAS)], LOCC_ETAS[i % len(LOCC_ETAS)]) for i in order]
        self._queue = [(p, a, int(s)) for (p, a), s in zip(pts, seeds)]
        self._params = {}
        self._next = 0
        self.rotation = 5
        self.problems = []

    def prepare(self):
        td = self.td
        for p, a, _ in self._queue:
            cp = td.CanonicalChannelParams(p=p, eta=complex(a), zeta=math.sqrt(max(1.0 - a * a, 0.0)))
            prm = td.canonical_decompose(td.shared_state(td.kraus_from_params(cp)))
            bound = ref.optimum(p, a)
            got = td.locc_fidelity(prm, *td.fp_branch_operators(prm))
            if abs(got - bound) > ref.TOL:
                self.problems.append(f"fp operators at p={p} |eta|={a}: {got!r} vs F* {bound!r}")
            self._params[(p, a)] = (prm, bound)

    def execute(self, i):
        p, a, seed = self._queue[self._next % len(self._queue)]
        self._next += 1
        prm, _ = self._params[(p, a)]
        value = self.td.analysis.random_locc_check(prm, samples=LOCC_SAMPLES, seed=seed)
        return p, a, seed, value

    def check(self, i, out):
        p, a, seed, value = out
        _, bound = self._params[(p, a)]
        if self.problems:
            return WRONG, self.problems[0]
        if not value <= bound + ref.TOL:
            return WRONG, f"LOCC value {value!r} above F* {bound!r} at p={p} |eta|={a}"
        if i == 0:
            again = self.td.analysis.random_locc_check(self._params[(p, a)][0], samples=LOCC_SAMPLES, seed=seed)
            if again != value:
                return WRONG, f"seed {seed} gave {value!r} then {again!r}"
        return OK, ""

    def units(self, i):
        return LOCC_SAMPLES


# ---------------------------------------------------------------------------
# CLI processes


def haar(rng, n=2):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def dressed_spec(rng, p, a) -> dict:
    """Kraus spec of (p, |eta|) with complex eta, Haar U, V and a Haar remix."""
    eta = a * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    zeta = math.sqrt(max(1.0 - a * a, 0.0))
    u, v, mix = haar(rng), haar(rng), haar(rng)
    c1 = u @ np.diag([1.0, math.sqrt(1.0 - p)]) @ v.conj().T
    c2 = math.sqrt(p) * u @ np.array([[0.0, eta], [0.0, zeta]]) @ v.conj().T
    k1 = mix[0, 0] * c1 + mix[1, 0] * c2
    k2 = mix[0, 1] * c1 + mix[1, 1] * c2
    flat = lambda m: [[float(x.real), float(x.imag)] for x in m.reshape(-1)]  # noqa: E731
    return {"kraus": [flat(k1), flat(k2)]}


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _num(cell):
    return None if cell in ("", None) else float(cell)


class _Call:
    """One CLI invocation and what its output must satisfy."""

    def __init__(self, argv, checker, *data):
        self.argv = argv
        self.checker = checker
        self.data = data


class Cli:
    """One ``python -m tko_distill.cli`` process per operation, in a fixed rotation.

    Each rotation draws fresh inputs: two Haar-dressed, remixed Kraus spec
    files, an inline channel for ``distill`` on all four policies (fp and pp
    also on the exact engine with --check-analytic), a ``sweep-p`` over 20
    points, and ``figure --id 2``.
    """

    ROTATIONS = 16

    def __init__(self, rng, root: Path, work: Path, env: dict, trace: bool):
        self.root, self.work, self.env, self.trace = root, work, env, trace
        self.memo = Memo()
        self.calls = []
        self.max_rss_kb = 0
        self.child_traces = []
        for r in range(self.ROTATIONS):
            self.calls.extend(self._rotation(rng, r))
        self._next = 0
        self.rotation = len(self.calls) // self.ROTATIONS

    def _rotation(self, rng, r):
        calls = []
        for name, cmd in (("canon", "canonicalize"), ("state", "state")):
            p = float(rng.uniform(0.05, 0.95))
            a = (0.0, 1.0, float(rng.uniform(0.0, 1.0)))[r % 3]
            path = self.work / f"{name}-{r}.json"
            path.write_text(json.dumps(dressed_spec(rng, p, a)))
            calls.append(_Call([cmd, "--in", str(path)], self._check_canonical if cmd == "canonicalize" else self._check_state, p, a))
        while True:  # bbpssw must distill too, so every call exits 0
            p, a = float(rng.uniform(0.05, 0.7)), float(rng.uniform(0.0, 1.0))
            if ref.werner_fidelity(p, a) > 0.55:
                break
        inline = ["--p", repr(p), "--eta", repr(a)]
        for pol in ("fp", "pp", "bbpssw"):
            calls.append(_Call(["distill", *inline, "--policy", pol], self._check_distill_csv, pol, p, a))
        calls.append(_Call(["distill", *inline, "--policy", "qpa", "--format", "json"], self._check_distill_json, "qpa", p, a))
        for pol in ("fp", "pp"):
            calls.append(
                _Call(["distill", *inline, "--policy", pol, "--engine", "exact", "--check-analytic"], self._check_distill_csv, pol, p, a)
            )
        lo, hi, eta = float(rng.uniform(0.0, 0.1)), float(rng.uniform(0.9, 0.99)), float(rng.uniform(0.0, 1.0))
        calls.append(
            _Call(["sweep-p", "--eta", repr(eta), "--steps", "20", "--p-min", repr(lo), "--p-max", repr(hi)], self._check_sweep, lo, hi, eta)
        )
        calls.append(_Call(["figure", "--id", "2"], self._check_figure))
        return calls

    def prepare(self):
        """Nothing to do: the reference values are computed when first checked."""

    def execute(self, i):
        call = self.calls[self._next % len(self.calls)]
        self._next += 1
        out_path = self.work / "stdout.txt"
        trace_path = self.work / "child-trace.json"
        if self.trace:
            cmd = [sys.executable, str(self.root / "perfbench" / "cli_child.py"), str(trace_path), *call.argv]
        else:
            cmd = [sys.executable, "-m", "tko_distill.cli", *call.argv]
        with open(out_path, "wb") as out, open(self.work / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            watchdog = threading.Timer(120.0, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return call, proc.returncode, out_path.read_text()

    def collect_trace(self, wall_s, out):
        """Keep the traced child's own figures (traced runs only)."""
        data = json.loads((self.work / "child-trace.json").read_text())
        data["process_ms"] = wall_s * 1e3
        data["stdout_bytes"] = len(out[2].encode())
        self.child_traces.append(data)

    def check(self, i, out):
        call, code, text = out
        if code != 0:
            return FAILED, f"{' '.join(call.argv)} exited {code}"
        try:
            v = call.checker(text, *call.data)
        except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
            v = (WRONG, f"unparseable output: {exc!r}")
        if v[0] != OK:
            return v[0], f"{' '.join(call.argv)}: {v[1]}"
        return v

    def units(self, i):
        return 1

    # -- output checks -----------------------------------------------------

    @staticmethod
    def _check_canonical(text, p, a):
        obj = json.loads(text)
        got_a = abs(complex(*obj["eta"]))
        # zeta = sqrt(1 - |eta|^2) is checked squared: the root amplifies
        # rounding to ~1e-8 at |eta| = 1.
        if abs(obj["p"] - p) > ref.TOL or abs(got_a - a) > ref.TOL or abs(obj["zeta"] ** 2 - (1.0 - a * a)) > ref.TOL:
            return WRONG, f"(p, |eta|, zeta) = ({obj['p']!r}, {got_a!r}, {obj['zeta']!r}), built from ({p!r}, {a!r})"
        return OK, ""

    @staticmethod
    def _check_state(text, p, a):
        obj = json.loads(text)
        sp = ref.state_params(p, a)
        want = {"fidelity": sp.f, "alpha": math.sqrt(sp.a2), "beta": math.sqrt(sp.b2)}
        got = {k: obj[k] for k in want}
        got.update(gamma2=obj["gamma"] ** 2, delta2=obj["delta"] ** 2)
        want.update(gamma2=sp.g2, delta2=sp.d2)
        for key, val in want.items():
            if abs(got[key] - val) > ref.TOL:
                return WRONG, f"{key} {got[key]!r}, expected {val!r}"
        return OK, ""

    def _check_distill_csv(self, text, pol, p, a):
        rows = _rows(text)
        if [int(r["round"]) for r in rows] != list(range(len(rows))):
            return WRONG, "round column is not 0, 1, 2, ..."
        records = [(float(r["fidelity"]), float(r["keep_prob"]), float(r["cumulative_yield"])) for r in rows]
        if pol == "fp" and len(records) > 1 and abs(records[1][0] - ref.optimum(p, a)) > ref.TOL:
            return WRONG, f"first round {records[1][0]!r}, expected F* {ref.optimum(p, a)!r}"
        return ref.check_records(self.memo(pol, p, a), records)

    def _check_distill_json(self, text, pol, p, a):
        obj = json.loads(text)
        records = [(r["fidelity"], r["keep_prob"], r["cumulative_yield"]) for r in obj["records"]]
        exp = self.memo(pol, p, a)
        if obj["rounds"] != len(records) - 1 or obj["final_fidelity"] != records[-1][0]:
            return WRONG, "summary fields disagree with the records"
        if obj["reached"] != (records[-1][0] >= F_TH):
            return WRONG, f"reached {obj['reached']} at fidelity {records[-1][0]!r}"
        return ref.check_records(exp, records)

    def _check_sweep(self, text, lo, hi, eta):
        rows = _rows(text)
        grid = _linspace(lo, hi, 20)
        pols = ("fp", "pp", "qpa", "bbpssw")
        if len(rows) != len(grid) * len(pols):
            return WRONG, f"{len(rows)} rows"
        verdicts = []
        for i, row in enumerate(rows):
            p, pol = float(row["p"]), row["policy"]
            if abs(p - grid[i // 4]) > 1e-12 or pol != pols[i % 4] or abs(float(row["abs_eta"]) - eta) > 1e-12:
                return WRONG, f"row {i} is ({row['p']}, {row['abs_eta']}, {pol})"
            rounds = None if row["rounds"] == "" else int(row["rounds"])
            v = ref.check_summary(
                self.memo(pol, p, eta),
                rounds is None,
                rounds,
                row["reached"] == "true",
                _num(row["fidelity_final"]),
                _num(row["yield_avg"]),
            )
            verdicts.append(v if v[0] == OK else (v[0], f"row {i}: {v[1]}"))
        return ref.worst(verdicts)

    def _check_figure(self, text):
        rows = _rows(text)
        verdicts = []
        for x in (0.0, 0.25, 0.5):
            mine = [r for r in rows if float(r["asin_eta_over_pi"]) == x]
            for pol in ("fp", "pp", "qpa", "bbpssw"):
                exp = self.memo(pol, 0.8, math.sin(x * math.pi))
                cells = [_num(r[pol]) for r in mine]
                if exp.error == "required":
                    ok = all(c is None for c in cells)
                    verdicts.append((OK, "") if ok else (WRONG, f"{pol} x={x}: values for a non-distillable state"))
                    continue
                n = len([c for c in cells if c is not None])
                records = list(exp.records[:n])
                v = (OK, "")
                if n - 1 not in exp.stops or any(c is not None for c in cells[n:]):
                    v = (WRONG, f"{pol} x={x}: {n - 1} rounds, expected one of {sorted(exp.stops)}")
                for k, (c, rec) in enumerate(zip(cells, records)):
                    if abs(c - rec[0]) > ref.TOL:
                        v = (WRONG, f"{pol} x={x} round {k}: {c!r}, expected {rec[0]!r}")
                verdicts.append(v)
        return ref.worst(verdicts)


def build(name, td, rng, root, work, env, trace):
    if name == "sweep-analytic":
        return SweepAnalytic(td, rng)
    if name == "exact-engine":
        return ExactEngine(td, rng)
    if name == "locc-search":
        return LoccSearch(td, rng)
    return Cli(rng, root, work, env, trace)
