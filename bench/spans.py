"""Spans and counters recorded around calls into gameprice's modules.

The wrappers live here, outside the package: install() swaps each target
function for a timing wrapper in every gameprice module that holds it (so a
name imported with ``from .pricer import _price_numeric`` is wrapped in lsq
too), and restore() puts the originals back. A target that no longer exists
is reported as absent instead of failing the run.

Spans are kept in memory as flat arrays (name, parent, start, end); self time
is a span's duration minus the time its direct children cover. The scalar
kernels _elg and _dgrowth are deliberately not wrapped: they run millions of
times per solve and a Python wrapper would cost more than the kernel.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("core", "pricer", "lsq", "portfolio", "simulate", "reference", "cli")

# (layer, module, attribute path) for timed spans
SPANS = (
    ("cli.main", "cli", "main"),
    ("core.load_game_file", "core", "load_game_file"),
    ("pricer.price_general", "pricer", "price_general"),
    ("pricer.closed_form", "pricer", "price_two_outcome_fair"),
    ("pricer.numeric", "pricer", "_price_numeric"),
    ("pricer.price_series", "pricer", "price_series"),
    ("lsq.solve", "lsq", "least_squares_prices"),
    ("lsq.problem_init", "lsq", "_LsqProblem.__init__"),
    ("lsq.oracle", "lsq", "_LsqProblem.big_L"),
    ("lsq.min_norm", "lsq", "_min_norm_point"),
    ("lsq.polish", "lsq", "_polish"),
    ("lsq.constant_mix", "lsq", "check_constant_mix"),
    ("portfolio.parity", "portfolio", "put_call_parity"),
    ("portfolio.compare_mv", "portfolio", "compare_mean_variance"),
    ("simulate.growth", "simulate", "simulate_growth"),
    ("simulate.sweep", "simulate", "sweep_proportion"),
)

# (counter, module, attribute path, only while this span is open or None)
COUNTS = (
    ("pricer.opt_t", "pricer", "_opt_t", None),
    ("lsq.dykstra", "lsq", "_min_norm_dykstra", None),
    ("lsq.oracle.price_calls", "lsq", "_LsqProblem.price_full", "lsq.oracle"),
)

DEFAULT_L_TOL = 1e-9  # least_squares_prices' default tol_L


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value) or None when absent."""
    mod = importlib.import_module(f"gameprice.{module}")
    owner = mod
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def _package_modules():
    yield importlib.import_module("gameprice")
    for name in MODULES:
        yield importlib.import_module(f"gameprice.{name}")


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.layers = [name for name, _, _ in SPANS]
        self._index = {name: i for i, name in enumerate(self.layers)}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._open = [0] * len(self.layers)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _on_result(self, layer: str):
        counts = self.counts
        if layer == "lsq.solve":
            def record(args, kwargs, sol):
                counts["lsq.iterations"] += sol.iterations
                if sol.max_violation > kwargs.get("tol_L", DEFAULT_L_TOL):
                    counts["lsq.out_of_tol"] += 1
            return record
        if layer == "lsq.polish":
            def record(args, kwargs, result):
                counts["lsq.polish.accepted"] += result is not None
            return record
        if layer == "simulate.growth":
            def record(args, kwargs, report):
                counts["simulate.paths"] += args[2].paths
            return record
        return None

    def _span(self, layer: str, fn):
        idx = self._index[layer]
        stack, opened = self._stack, self._open
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        on_result = self._on_result(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(span_layer)
            span_layer.append(idx)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(sid)
            opened[idx] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                opened[idx] -= 1
                stack.pop()
                span_start[sid] = start
                span_end[sid] = end
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _count(self, counter: str, fn, within):
        counts = self.counts
        if within is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
        else:
            opened, idx = self._open, self._index[within]

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if opened[idx]:
                    counts[counter] += 1
                return fn(*args, **kwargs)
        return wrapper

    # -- install / restore ------------------------------------------------

    def _replace(self, name: str, module: str, path: str, make) -> None:
        found = _resolve(module, path)
        if found is None:
            self.absent.append(name)
            return
        owner, attr, original = found
        wrapper = make(original)
        owners = [(owner, attr)]
        if "." not in path:  # also every module that imported the name
            for mod in _package_modules():
                owners.extend((mod, key) for key, value in vars(mod).items()
                              if value is original and mod is not owner)
        for obj, key in owners:
            self._saved.append((obj, key, original))
            setattr(obj, key, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, module, path in SPANS:
            self._replace(layer, module, path, lambda fn, l=layer: self._span(l, fn))
        for counter, module, path, within in COUNTS:
            self._replace(counter, module, path,
                          lambda fn, c=counter, w=within: self._count(c, fn, w))

    def restore(self) -> None:
        for obj, key, original in reversed(self._saved):
            setattr(obj, key, original)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Additive totals: per layer calls, ms and self ms, plus counters."""
        n_layers = len(self.layers)
        calls = [0] * n_layers
        total = [0.0] * n_layers
        child = [0.0] * len(self.span_layer)
        for sid in range(len(self.span_layer)):
            dur = self.span_end[sid] - self.span_start[sid]
            calls[self.span_layer[sid]] += 1
            total[self.span_layer[sid]] += dur
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += dur
        self_time = [0.0] * n_layers
        for sid in range(len(self.span_layer)):
            dur = self.span_end[sid] - self.span_start[sid]
            self_time[self.span_layer[sid]] += dur - child[sid]
        return {
            "layers": {
                name: {"calls": calls[i], "ms": 1e3 * total[i],
                       "self_ms": 1e3 * self_time[i]}
                for i, name in enumerate(self.layers)
            },
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
        }


def merge(summaries: list[dict]) -> dict:
    """Sum summaries from several processes (the traced cli_cold children)."""
    out = {"layers": {}, "counts": Counter(), "absent": set()}
    for s in summaries:
        for name, row in s["layers"].items():
            acc = out["layers"].setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            for key in acc:
                acc[key] += row[key]
        out["counts"].update(s["counts"])
        out["absent"].update(s["absent"])
    out["counts"] = dict(out["counts"])
    out["absent"] = sorted(out["absent"])
    return out
