"""Per-layer tracing from outside the package.

`Tracer` wraps the public functions of each layer module, plus the DP kernel
`cyclecap.exact._log_linear_dp` and `SamplerState.for_model`, and records one
span per call: name, job, parent span, start and end. Modules import each
other's functions by name (`from .saddle import solve_saddle`), so every
module attribute that holds a wrapped function is rebound, and restored when
the tracer exits. `layer_metrics` turns the spans of one pass into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

LAYERS = ("saddle", "exact", "sampler", "limits", "cli")
REGIMES = ("diverging", "critical", "vanishing")
BATTERIES = {
    "limits.check_longest_diverging": "diverging",
    "limits.check_longest_critical": "critical",
    "limits.poisson_process_battery": "process",
    "limits.tightness_moment_estimate": "tightness",
    "limits.clt_battery": "clt",
}
# The RNG primitives run once per draw and once per cycle, inside the loop
# whose cost per cycle is being measured; a span there would distort it.
_UNTRACED = {"mix64", "stream_base"}
_DP = "exact._log_linear_dp"
_STATE = "sampler.SamplerState.for_model"


def is_narrow(n: int, alpha: int) -> bool:
    """Narrow cap: alpha <= sqrt(n log n); wider caps are 'wide'."""
    return n > 1 and alpha <= math.sqrt(n * math.log(n))


@dataclass
class Span:
    name: str
    job: Optional[str]
    parent: Optional[int]
    start: float
    end: float = math.nan
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _dp_info(args, kwargs, result) -> dict:
    logw, N = args[0], int(args[1] if len(args) > 1 else kwargs["N"])
    alpha = len(logw)
    return {"alpha": alpha, "N": N, "cells": N * min(alpha, N), "narrow": is_narrow(N, alpha)}


def _saddle_info(args, kwargs, result) -> dict:
    return {"residual": abs(result.residual)}


def _draw_info(args, kwargs, result) -> dict:
    model = args[0] if args else kwargs["model"]
    return {
        "model": (model.n, model.alpha, model.theta),
        "draws": len(result),
        "cycles": int(sum(len(lengths) for lengths in result)),
    }


_PROBES: Dict[str, Callable] = {
    _DP: _dp_info,
    "saddle.solve_saddle": _saddle_info,
    "sampler.sample_lengths": _draw_info,
}


class Tracer:
    """Context manager that records spans of calls into the package's layers."""

    def __init__(self):
        self.spans: List[Span] = []
        self.job: Optional[str] = None
        self._stack: List[int] = []
        self._undo: list = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name=name, job=self.job, parent=parent, start=time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        return traced

    def _install(self) -> None:
        import cyclecap.cli  # imports every other layer module too

        package = [m for k, m in list(sys.modules.items()) if k == "cyclecap" or k.startswith("cyclecap.")]
        originals = []
        for layer in LAYERS:
            module = sys.modules[f"cyclecap.{layer}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and attr not in _UNTRACED
                    and not inspect.isgeneratorfunction(value)
                ):
                    originals.append((f"{layer}.{attr}", value))
        originals.append((_DP, cyclecap.exact._log_linear_dp))
        for name, fn in originals:
            traced = self._wrap(name, fn)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._undo.append((module, attr, fn))
                        setattr(module, attr, traced)
        cls = cyclecap.sampler.SamplerState
        descriptor = cls.__dict__["for_model"]
        self._undo.append((cls, "for_model", descriptor))
        cls.for_model = classmethod(self._wrap(_STATE, descriptor.__func__))

    def _restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: List[Span], queries: int, regime_of: Callable[[tuple], str]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass of `queries` jobs.

    `regime_of` maps a model tuple (n, alpha, theta) to one of REGIMES.
    Layers the pass never called report 0.
    """
    own = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(idx, values):
        return float(sum(values[i] for i in idx))

    saddle = by_name.get("saddle.solve_saddle", [])
    dps = by_name.get(_DP, [])
    m: Dict[str, float] = {
        "saddle.calls": len(saddle),
        "saddle.self_s": total([i for i, s in enumerate(spans) if s.name.startswith("saddle.")], own),
        "saddle.residual_max": max((spans[i].info["residual"] for i in saddle), default=0.0),
        "exact.table_builds": len(dps),
        "exact.builds_per_query": len(dps) / queries,
        "exact.dp_cells": sum(spans[i].info["cells"] for i in dps),
        "exact.dp_self_s": total(dps, own),
    }
    for width, narrow in (("narrow", True), ("wide", False)):
        idx = [i for i in dps if spans[i].info["narrow"] is narrow]
        cells = sum(spans[i].info["cells"] for i in idx)
        m[f"exact.ns_per_cell.{width}"] = 1e9 * total(idx, own) / cells if cells else 0.0

    m["sampler.state_s"] = total(by_name.get(_STATE, []), [s.duration for s in spans])
    draw_s = {r: 0.0 for r in REGIMES}
    draws = {r: 0 for r in REGIMES}
    cycles = {r: 0 for r in REGIMES}
    for i in by_name.get("sampler.sample_lengths", []):
        s = spans[i]
        regime = regime_of(s.info["model"])
        state = sum(c.duration for c in spans if c.parent == i and c.name == _STATE)
        draw_s[regime] += s.duration - state
        draws[regime] += s.info["draws"]
        cycles[regime] += s.info["cycles"]
    for r in REGIMES:
        m[f"sampler.cycles_drawn.{r}"] = cycles[r]
        m[f"sampler.cycles_per_draw.{r}"] = cycles[r] / draws[r] if draws[r] else 0.0
        m[f"sampler.ns_per_cycle.{r}"] = 1e9 * draw_s[r] / cycles[r] if cycles[r] else 0.0
    for name, battery in BATTERIES.items():
        m[f"limits.self_s.{battery}"] = total(by_name.get(name, []), own)
    return m
