"""Spans around the calls into each module of ``gate_energetics``.

The program is not changed.  ``install`` rebinds every function a module
imported from another package module (and the ``cli._COMMANDS`` table, which
holds its own references) to a wrapper that records one span per call:
layer, function, start, end, the enclosing span and, for a few functions,
one argument (the time of a propagator, the shot count of a sampler run).
A call a module makes to its own functions is not a boundary and counts as
that module's self time.  Spans are kept in memory and written out once, at
the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

import numpy as np

LAYERS = ("cli", "config", "sweep", "model", "tpm", "linalg", "sampler", "photonic")

# one argument recorded with the span, for the counts derived from it
_NOTES = {
    "model.propagator_analytic": lambda args, kwargs: float(
        args[1] if len(args) > 1 else kwargs["t"]
    ),
    "sampler.sample_tpm": lambda args, kwargs: float(
        (args[2] if len(args) > 2 else kwargs["cfg"]).n_samples
    ),
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.key: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.note: list[float] = []
        self._stack = [-1]

    def wrap(self, layer: str, fn):
        qualified = f"{layer}.{fn.__name__}"
        key = self._ids.setdefault(qualified, len(self.names))
        if key == len(self.names):
            self.names.append(qualified)
        note = _NOTES.get(qualified)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.key)
            self.key.append(key)
            self.parent.append(self._stack[-1])
            self.note.append(note(args, kwargs) if note else float("nan"))
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        return traced

    def dump(self, path: Path) -> None:
        """Write the spans as arrays plus the name table."""
        np.savez(
            path,
            key=np.array(self.key, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
            note=np.array(self.note),
            names=np.array(json.dumps(self.names)),
        )


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    prefix = "gate_energetics."
    if module.startswith(prefix) and module[len(prefix):] in LAYERS:
        return module[len(prefix):]
    return None


def install(tracer: Tracer) -> None:
    """Rebind the cross-module call sites of the imported package to traced wrappers."""
    modules = {name: importlib.import_module(f"gate_energetics.{name}") for name in LAYERS}
    for caller_name, module in modules.items():
        for attr, obj in list(vars(module).items()):
            layer = _layer_of(obj)
            if inspect.isfunction(obj) and layer not in (None, caller_name):
                setattr(module, attr, tracer.wrap(layer, obj))

    cli = modules["cli"]
    cli._COMMANDS = {
        name: (tracer.wrap(_layer_of(fn), fn), help_text)
        for name, (fn, help_text) in cli._COMMANDS.items()
    }

    # methods called through instances or classes bind at the class; a method
    # a later version drops is simply not traced
    run_config = modules["config"].RunConfig
    for method in ("validate", "time_grid", "model_params", "thermal_spec", "optical_params"):
        if hasattr(run_config, method):
            setattr(run_config, method, tracer.wrap("config", getattr(run_config, method)))
    dist = getattr(modules["tpm"], "DiscreteDistribution", None)
    if dist is not None and hasattr(dist, "from_atoms"):
        dist.from_atoms = classmethod(tracer.wrap("tpm", dist.from_atoms.__func__))


def load(path: Path) -> dict:
    with np.load(path) as data:
        spans = {name: data[name] for name in ("key", "parent", "start", "end", "note")}
        spans["names"] = json.loads(str(data["names"]))
    return spans


def summarize(spans: dict) -> dict:
    """Per-layer calls and self time, and the counts named per function.

    Self time is a span's duration minus the durations of its direct
    children; over all spans the self times add up to the root spans.
    """
    names = spans["names"]
    key, parent = spans["key"], spans["parent"]
    duration = spans["end"] - spans["start"]
    child_time = np.bincount(parent[parent >= 0], weights=duration[parent >= 0], minlength=len(key))
    self_time = duration - child_time
    layer_of_key = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names], dtype=np.int64)
    layer = layer_of_key[key] if len(key) else np.zeros(0, dtype=np.int64)
    calls = np.bincount(layer, minlength=len(LAYERS))
    self_s = np.bincount(layer, weights=self_time, minlength=len(LAYERS))

    def select(qualified: str) -> np.ndarray:
        return key == names.index(qualified) if qualified in names else np.zeros(len(key), bool)

    out = {}
    for i, name in enumerate(LAYERS):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(self_s[i])

    prop = select("model.propagator_analytic")
    n_prop = int(prop.sum())
    out["model.thermal_state.calls"] = int(select("model.thermal_state").sum())
    out["model.propagator.calls"] = n_prop
    out["model.propagator_reuse"] = len(np.unique(spans["note"][prop])) / n_prop if n_prop else 0.0
    out["tpm.from_atoms.calls"] = int(select("tpm.from_atoms").sum())
    out["linalg.validate_density.calls"] = int(select("linalg.validate_density").sum())

    sample = select("sampler.sample_tpm")
    shots = float(spans["note"][sample].sum())
    sample_time = float(duration[sample].sum())
    out["sampler.shots"] = int(shots)
    out["sampler.ns_per_shot"] = sample_time / shots * 1e9 if shots else 0.0
    out["sampler.us_per_call"] = sample_time / sample.sum() * 1e6 if sample.any() else 0.0
    photonic = select("photonic.conditional_for_time")
    out["photonic.us_per_call"] = (
        float(duration[photonic].sum()) / photonic.sum() * 1e6 if photonic.any() else 0.0
    )
    out["_self_total_s"] = float(self_time.sum())
    return out
