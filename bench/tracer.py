"""Span tracer that times calls into flowgames' public functions from outside.

Every public function of the traced modules is wrapped once, and the wrapper
is written into every module attribute that binds the original (``lp_solve``
is bound in ``lp``, ``design``, ``atomic`` and the package namespace, for
example), so calls are seen whichever module makes them. ``FlowProfile`` is
traced through its ``__init__``, since replacing the class itself would break
``isinstance`` checks.

Spans live in flat in-memory arrays (name, parent, start, end, raised) and are
written out once at the end. A span's self time is its duration minus the
durations of its direct child spans. Counts that only the returned value
knows (iterations, grid size, LP status) are read by per-function extractors
when the call returns.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter_ns

import numpy as np

MODULES = ("gamefile", "model", "wardrop", "design", "lp", "checks", "infostruct", "atomic")


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _grid_flows(fn, args, kwargs, result):
    return {"profiles": len(result)}


def _build_grid(fn, args, kwargs, result):
    return {"cols": sum(len(c) for c in result.values())}


def _solve_we(fn, args, kwargs, result):
    return {"iters": result.iterations}


def _solve_we_potential(fn, args, kwargs, result):
    tol = _bound(fn, args, kwargs)["tol"]
    return {"iters": result.iterations, "converged": int(result.max_violation <= tol)}


def _lp_solve(fn, args, kwargs, result):
    return {"nonoptimal": int(result.status != "optimal"), "cols_max": len(_bound(fn, args, kwargs)["c"])}


# (module, function) -> extractor(fn, args, kwargs, result) -> {counter: value}
EXTRACTORS = {
    ("wardrop", "grid_flows"): _grid_flows,
    ("wardrop", "solve_we_br"): _solve_we,
    ("wardrop", "solve_we_potential"): _solve_we_potential,
    ("design", "build_grid"): _build_grid,
    ("lp", "lp_solve"): _lp_solve,
}


def _accumulate(acc: dict, key: str, value):
    """Add value into acc[key]: by max for keys ending in "_max", else by sum."""
    if key.endswith("_max"):
        acc[key] = max(acc.get(key, value), value)
    else:
        acc[key] = acc.get(key, 0) + value


class Tracer:
    """Collects spans while ``active``; install once per process."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.counters: dict = {}
        self._stack: list[int] = []

    def _wrap(self, span_name: str, fn, extractor=None):
        tracer = self
        name_id = len(self.names)
        self.names.append(span_name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.raised.append(0)
            tracer.end.append(0)
            stack.append(idx)
            tracer.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] = 1
                raise
            finally:
                tracer.end[idx] = perf_counter_ns()
                stack.pop()
            if extractor is not None:
                counts = tracer.counters.setdefault(span_name, {})
                for key, value in extractor(fn, args, kwargs, result).items():
                    _accumulate(counts, key, value)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the public functions of MODULES and rebind every reference."""
        package = importlib.import_module("flowgames")
        modules = [importlib.import_module(f"flowgames.{m}") for m in MODULES]
        all_modules = [package, *modules] + [
            importlib.import_module(f"flowgames.{m}") for m in ("generators", "cli")
        ]
        replace = {}
        for short, mod in zip(MODULES, modules):
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    replace[id(value)] = self._wrap(
                        f"{short}.{attr}", value, EXTRACTORS.get((short, attr))
                    )
        for mod in all_modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and inspect.isfunction(value):
                    setattr(mod, attr, replace[id(value)])
        flow_profile = importlib.import_module("flowgames.model").FlowProfile
        flow_profile.__init__ = self._wrap("model.FlowProfile", flow_profile.__init__)

    def summary(self) -> dict:
        """Per span name: calls, self and raised-self seconds, counters."""
        n = len(self.start)
        out = {}
        if n:
            name = np.frombuffer(self.name, dtype=np.int32)
            parent = np.frombuffer(self.parent, dtype=np.int32)
            dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
            raised = np.frombuffer(self.raised, dtype=np.int8).astype(bool)
            child = np.zeros(n, dtype=np.int64)
            nested = parent >= 0
            np.add.at(child, parent[nested], dur[nested])
            own = dur - child
            calls = np.bincount(name, minlength=len(self.names))
            self_ns = np.bincount(name, weights=own, minlength=len(self.names))
            raised_ns = np.bincount(name[raised], weights=own[raised], minlength=len(self.names))
            raised_calls = np.bincount(name[raised], minlength=len(self.names))
            for i, span_name in enumerate(self.names):
                if calls[i]:
                    out[span_name] = {
                        "calls": int(calls[i]),
                        "self_s": float(self_ns[i]) / 1e9,
                        "raised": int(raised_calls[i]),
                        "raised_self_s": float(raised_ns[i]) / 1e9,
                    }
        for span_name, counts in self.counters.items():
            out.setdefault(span_name, {"calls": 0, "self_s": 0.0, "raised": 0, "raised_self_s": 0.0})
            out[span_name].update(counts)
        return out

    def save(self, path):
        """Write the raw spans; ``names[name[i]]`` is the name of span i."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            raised=np.frombuffer(self.raised, dtype=np.int8),
        )


def merge(summaries) -> dict:
    """Add per-process summaries (one per traced CLI process)."""
    out: dict = {}
    for summary in summaries:
        for span_name, entry in summary.items():
            acc = out.setdefault(span_name, {})
            for key, value in entry.items():
                _accumulate(acc, key, value)
    return out
