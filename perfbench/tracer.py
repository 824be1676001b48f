"""Outside-in layer tracer for one traced repetition.

It wraps the public functions of each ``nrlab`` layer module (the callables
in its ``__all__``, classes excluded) in spans, counts ``numpy.fft`` calls
and the ``solve_ivp`` results seen at the flow -> scipy boundary, and puts
every original object back when the traced run ends.  The library itself is
not changed.

Self time of a layer is the time during which the innermost open span
belongs to it: a span's time minus the time covered by child spans of other
layers, with nested spans of one layer counted once.  numpy and scipy time
is billed to the layer that called it.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np
import numpy.fft

LAYERS = ("cli", "flow", "symbols", "geometry", "norms", "pde", "quantize")
FFT_NAMES = ("fft", "ifft", "fftn", "ifftn")
IO_SPANS = (("cli", "Reporter.write_csv"), ("cli", "Reporter.finish"))
# spans whose per-call durations feed a percentile metric
TIMED_SPANS = {("flow", "integrate_flow"), ("flow", "qdf_probe"),
               ("norms", "calctwo_norm"), *IO_SPANS}
NO_LAYER = "-"


def public_callables(module) -> list[str]:
    """Names of the functions a layer module exports.

    The names come from ``__all__``, or, for a module without one, its
    public module-level functions.  Classes and re-exported objects are left
    out, so each function is wrapped once, in the layer that defines it.
    """
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        n for n in names
        if callable(obj := getattr(module, n))
        and not inspect.isclass(obj)
        and getattr(obj, "__module__", None) == module.__name__
    ]


def _percentile_ms(values, q: float) -> float:
    """Nearest-rank percentile of durations in seconds, in milliseconds."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return 1000.0 * ordered[rank - 1]


class Tracer:
    """Span and counter store for one traced run; ``installed()`` arms it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[str] = []
        self.last = 0.0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: defaultdict[tuple, list] = defaultdict(list)
        self.fft_calls: Counter = Counter()
        self.fft_bytes: Counter = Counter()
        self.solver: Counter = Counter()
        self.spans = 0

    def _advance(self, now: float) -> None:
        if self.stack:
            self.self_s[self.stack[-1]] += now - self.last
        self.last = now

    def span(self, layer: str, name: str, fn):
        """Wrap ``fn`` so each call records a span of ``layer``."""
        key = (layer, name)
        keep = key in TIMED_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self.clock()
            self._advance(start)
            self.stack.append(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._advance(end)
                self.stack.pop()
                self.calls[key] += 1
                self.spans += 1
                if keep:
                    self.durations[key].append(end - start)

        return wrapper

    def fft_counter(self, fn):
        """Wrap a numpy.fft function; bill the call to the innermost layer."""

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            layer = self.stack[-1] if self.stack else NO_LAYER
            self.fft_calls[layer] += 1
            self.fft_bytes[layer] += np.asarray(a).nbytes + out.nbytes
            return out

        return wrapper

    def solver_counter(self, fn):
        """Wrap solve_ivp; read the work from the result it returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self.solver["solves"] += 1
            self.solver["steps"] += len(sol.t) - 1
            self.solver["rhs_evals"] += sol.nfev
            return sol

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer function and rebind each ``nrlab`` attribute that
        holds one, so by-name imports (``flow`` holds
        ``natural_symbol_value``) are billed to the defining layer; restore
        all originals on exit."""
        import nrlab.cli  # noqa: F401  (loads every layer module)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"nrlab.{layer}"]
            for name in public_callables(module):
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self.span(layer, name, fn))
        for name in FFT_NAMES:
            fn = getattr(numpy.fft, name)
            wrappers[id(fn)] = (fn, self.fft_counter(fn))
        solve_ivp = sys.modules["nrlab.flow"].solve_ivp
        wrappers[id(solve_ivp)] = (solve_ivp, self.solver_counter(solve_ivp))

        targets = [m for n, m in list(sys.modules.items())
                   if n == "nrlab" or n.startswith("nrlab.")] + [numpy.fft]
        restore = []
        try:
            for module in targets:
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        restore.append((module, attr, value))
                        setattr(module, attr, hit[1])
            reporter = sys.modules["nrlab.cli"].Reporter
            for layer, qualname in IO_SPANS:
                attr = qualname.split(".")[1]
                fn = vars(reporter)[attr]
                restore.append((reporter, attr, fn))
                setattr(reporter, attr, self.span(layer, qualname, fn))
            self.last = self.clock()
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    def layer_calls(self, layer: str) -> int:
        return sum(n for (lay, _), n in self.calls.items() if lay == layer)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of the traced run, by benchmark name."""
        m = {"cli.io_s": sum(sum(self.durations[k]) for k in IO_SPANS)}
        for layer in LAYERS[1:]:
            m[f"{layer}.calls"] = self.layer_calls(layer)
            m[f"{layer}.self_s"] = self.self_s[layer]
        for layer in ("norms", "pde", "quantize"):
            m[f"{layer}.fft.calls"] = self.fft_calls[layer]
            m[f"{layer}.fft.bytes"] = self.fft_bytes[layer]
        integrate = self.durations["flow", "integrate_flow"]
        steps = self.solver["steps"]
        m.update({
            "flow.integrate_flow.p50_ms": _percentile_ms(integrate, 50),
            "flow.integrate_flow.p95_ms": _percentile_ms(integrate, 95),
            "flow.qdf_probe.p50_ms": _percentile_ms(
                self.durations["flow", "qdf_probe"], 50),
            "flow.solver.solves": self.solver["solves"],
            "flow.solver.steps": steps,
            "flow.solver.rhs_evals": self.solver["rhs_evals"],
            "flow.solver.rhs_per_step":
                self.solver["rhs_evals"] / steps if steps else 0.0,
            "symbols.metric_matrix.calls": self.calls["symbols", "metric_matrix"],
            "symbols.natural_symbol_value.calls":
                self.calls["symbols", "natural_symbol_value"],
            "norms.calctwo_norm.p50_ms": _percentile_ms(
                self.durations["norms", "calctwo_norm"], 50),
            "quantize.op_apply.calls": self.calls["quantize", "op_apply"],
            "trace.spans": self.spans,
        })
        return m
