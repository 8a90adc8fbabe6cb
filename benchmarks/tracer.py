"""Span tracer that wraps multiqf's public functions from outside the package.

Every public function of the seven layer modules is wrapped and assigned to
one span name (``SPANS``; unlisted functions fall back to ``<layer>.other``,
or ``cli.command`` for the CLI).  A call opens a span unless the innermost
open span already has the same name; such a nested call belongs to the
enclosing span and only moves its per-function call counter.  So
``noise.realize`` covers ``realize_batch`` together with the
``realize_circuit`` calls it makes, and ``<span>.calls`` counts entries into
a span from outside it.

Installing patches every module global of the ``multiqf`` package that
refers to a wrapped function, which covers ``from .x import y`` aliases and
functions a module looks up as its own globals.  Spans stay in memory and
are aggregated by ``summary``; a span's self time is its duration minus the
time its child spans cover.

Span names are meant to be reused by the program's own stage timings:
``circuits.decompose``, ``noise.realize``, ``gains.batch``,
``bounds.two_user``, ``bounds.strategy``, ``bounds.qubit_cost``,
``mcsim.simulate`` and ``cli.write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("circuits", "noise", "gains", "bounds", "classical", "mcsim", "cli")

#: Span name -> functions of the span's layer module.
SPANS = {
    "circuits.decompose": ("reck_decompose", "clements_decompose"),
    "circuits.json": ("layout_to_json", "layout_from_json", "matrix_to_json", "matrix_from_json"),
    "circuits.compose": ("compose_layout",),
    "noise.realize": ("realize_batch", "realize_circuit", "noisy_block"),
    "gains.batch": ("batch_gain_set", "gain_set"),
    "bounds.two_user": ("algorithm_two_user",),
    "bounds.inv_cdf": ("binomial_inv_cdf",),
    "bounds.strategy": ("bound_first_detectors", "bound_last_detector", "ideal_bound"),
    "bounds.qubit_cost": ("qubit_cost",),
    "mcsim.simulate": ("simulate", "wilson_upper"),
    "cli.write": ("write_csv", "write_dat"),
}

_DEFAULT_SPAN = {"cli": "cli.command"}


def _json_bytes(a, r) -> dict:
    return {"bytes": len(r)}


def _parsed_bytes(a, r) -> dict:
    return {"bytes": len(a["text"])}


def _elements(a, r) -> dict:
    return {"elements": len(r.elements)}


#: Work counters taken from a call that opened a span, keyed by
#: ``layer.function``; each gets the bound arguments and the result.
METERS = {
    "circuits.reck_decompose": _elements,
    "circuits.clements_decompose": _elements,
    "circuits.layout_to_json": _json_bytes,
    "circuits.matrix_to_json": _json_bytes,
    "circuits.layout_from_json": _parsed_bytes,
    "circuits.matrix_from_json": _parsed_bytes,
    "noise.realize_batch": lambda a, r: {
        "realizations": a["n"], "blocks": a["n"] * a["layout"].bs_count
    },
    "noise.realize_circuit": lambda a, r: {"realizations": 1, "blocks": a["layout"].bs_count},
    "gains.batch_gain_set": lambda a, r: {
        "patterns": len(a["matrices"]) * (len(a["matrices"][0]) + 1)
    },
    "gains.gain_set": lambda a, r: {"patterns": len(a["transfer"]) + 1},
    "mcsim.simulate": lambda a, r: {"trials": a["config"].trials},
}


def public_functions(module) -> dict:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def span_of(layer: str, name: str) -> str:
    for span, names in SPANS.items():
        if span.split(".")[0] == layer and name in names:
            return span
    return _DEFAULT_SPAN.get(layer, f"{layer}.other")


def _percentile(values: list, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tracer:
    """Records spans for the wrapped functions between ``install`` and ``uninstall``."""

    def __init__(self):
        self.request = 0
        self.spans: list[tuple] = []  # (id, parent id, request, name, start, end, self, error)
        self.calls: Counter = Counter()
        self.counters: dict = defaultdict(Counter)
        self._stack: list[list] = []  # [id, name, child time]
        self._patched: list[tuple] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        import multiqf.cli  # noqa: F401  (loads every layer module)

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"multiqf.{layer}")
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(fn, span_of(layer, name), f"{layer}.{name}"))
        package = [m for n, m in list(sys.modules.items()) if n == "multiqf" or n.startswith("multiqf.")]
        for module in package:
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])
                    self._patched.append((module, name, value))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, fn, span: str, qualname: str):
        meter = METERS.get(qualname)
        signature = inspect.signature(fn) if meter else None
        stack = self._stack
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            if stack and stack[-1][1] == span:
                return fn(*args, **kwargs)
            frame = [len(self.spans) + len(stack), span, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                self.spans.append(
                    (frame[0], parent, self.request, span, start, end, duration - frame[2], error)
                )
            if meter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counters[span].update(meter(bound.arguments, result))
            return result

        return wrapper

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Per-span and per-layer aggregates of the recorded spans."""
        spans: dict = {}
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        durations = defaultdict(list)
        for _sid, _parent, _req, name, start, end, self_s, error in self.spans:
            entry = spans.setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": Counter()}
            )
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["total_s"] += end - start
            if error:
                entry["errors"][error] += 1
            else:
                durations[name].append((end - start) * 1e3)
            layer = layers[name.split(".")[0]]
            layer["calls"] += 1
            layer["self_s"] += self_s
        for name, entry in spans.items():
            ok = durations[name]
            entry["errors"] = dict(entry["errors"])
            entry["ms_p50"] = statistics.median(ok) if ok else 0.0
            entry["ms_p97"] = _percentile(ok, 97)
            entry["counters"] = dict(self.counters.get(name, {}))
        return {"spans": spans, "layers": layers, "functions": dict(self.calls)}
