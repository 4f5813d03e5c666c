"""Spans around the package's public functions, recorded from outside it.

Each traced function is replaced in every ``tko_distill`` module namespace
that holds it, so a call goes through the wrapper at the name its caller
looks it up by (``run`` calls ``tko_distill.distill.canonical_decompose``,
``run_point`` calls ``tko_distill.analysis.run``, and so on).  Spans live in
memory; ``take`` folds those of one operation into per-layer totals.

A span's parent is the innermost open span of its own thread.  A span that
opens on an otherwise empty worker thread (a sweep cell on the pool) takes
the innermost open span of the main thread, so a sweep's self time is its
wall time minus the union of its cells' intervals: the time the pool spends
on anything but cells.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

# layer name -> (module where the function is defined, attribute name)
LAYERS = {
    "channel.kraus_from_params": ("tko_distill.channel", "kraus_from_params"),
    "channel.canonicalize": ("tko_distill.channel", "canonicalize"),
    "state.shared_state": ("tko_distill.state", "shared_state"),
    "state.canonical_decompose": ("tko_distill.state", "canonical_decompose"),
    "linalg.eig_hermitian": ("tko_distill.linalg", "eig_hermitian"),
    "linalg.schmidt": ("tko_distill.linalg", "schmidt"),
    "distill.run": ("tko_distill.distill", "run"),
    "distill.recurrence_analytic": ("tko_distill.distill", "recurrence_analytic"),
    "distill.bbpssw_trace": ("tko_distill.distill", "bbpssw_trace"),
    "distill.round_exact": ("tko_distill.distill", "round_exact"),
    "distill.rssp_apply": ("tko_distill.distill", "rssp_apply"),
    "analysis.run_point": ("tko_distill.analysis", "run_point"),
    "analysis.average_yield": ("tko_distill.analysis", "average_yield"),
    "analysis.sweep": ("tko_distill.analysis", "sweep_p"),
    "analysis.sweep_eta": ("tko_distill.analysis", "sweep_eta"),
    "analysis.random_locc_check": ("tko_distill.analysis", "random_locc_check"),
    "analysis.sweep_to_csv": ("tko_distill.analysis", "sweep_to_csv"),
}
# Both sweep entry points report as one layer.
_ALIAS = {"analysis.sweep_eta": "analysis.sweep"}


def _value_of(name, args, kwargs, result):
    """Count carried by a span: rounds of a run, samples of a LOCC search."""
    if name == "distill.run":
        return result.rounds
    if name == "analysis.random_locc_check":
        return kwargs.get("samples", args[1] if len(args) > 1 else 100_000)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            value = 0
            try:
                result = fn(*args, **kwargs)
                value = _value_of(name, args, kwargs, result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, value))

        return traced

    def install(self) -> None:
        """Wrap every layer at each module-level name that refers to it."""
        modules = [m for n, m in sys.modules.items() if n == "tko_distill" or n.startswith("tko_distill.")]
        for layer, (mod_name, attr) in LAYERS.items():
            fn = getattr(sys.modules[mod_name], attr)
            traced = self.wrap(_ALIAS.get(layer, layer), fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, traced)

    def take(self) -> dict[str, dict[str, float]]:
        """Fold and clear the recorded spans: calls, self/total ms, values."""
        spans, self.spans = self.spans, []
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, t0, t1, _ in spans:
            children.setdefault(parent, []).append((t0, t1))
        out: dict[str, dict[str, float]] = {}
        for sid, _, name, t0, t1, value in spans:
            covered = _union(children.get(sid, ()), t0, t1)
            agg = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "value": 0})
            agg["calls"] += 1
            agg["self_ms"] += (t1 - t0 - covered) * 1e3
            agg["total_ms"] += (t1 - t0) * 1e3
            agg["value"] += value
        return out


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def merge(into: dict, part: dict) -> None:
    """Add one fold of ``take`` into a running total."""
    for name, agg in part.items():
        tot = into.setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "value": 0})
        for key, val in agg.items():
            tot[key] += val
