"""Spans around the public functions of the gradjump layers, from outside.

``Tracer.install`` wraps each layer's entry points in place (module
globals, every module that imported them by name, and methods on each
class that defines them) and ``Tracer.uninstall`` puts the originals back.
Nothing under ``src/`` is edited.  Spans live in memory and are written
once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    op: int | None = None
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape else 1


def _stack_points(fs) -> int:
    return int(math.prod(fs.shape[:-2]))


def _sphere_size(dim: int, resolution: int) -> int:
    # sizes of tensors.sphere_grid: {+1, -1}; a circle; a Fibonacci lattice
    return {1: 2, 2: resolution, 3: resolution * resolution}[dim]


def _scan_increments(args, kwargs) -> int:
    model, _, radii = args[:3]
    resolution = args[3] if len(args) > 3 else kwargs.get("resolution", 32)
    n_radii = len(radii) if hasattr(radii, "__len__") else 1
    return _sphere_size(model.m, resolution) * _sphere_size(model.d, resolution) * n_radii


# counters read from each call: name -> fn(args, kwargs, result) -> {key: n}
_COUNTERS = {
    "quadrature.energy_increment": lambda a, k, r: {"evals": r.n_evals},
    "quadrature.sobol": lambda a, k, r: {"points": _rows(r)},
    "interchange.scalar_gradient": lambda a, k, r: {"points": _rows(a[1])},
    "interchange.classify_codes": lambda a, k, r: {"points": _rows(a[0])},
    "energies.value_many": lambda a, k, r: {
        "points": _stack_points(a[1]),
        "in_bytes": int(getattr(a[1], "nbytes", 0)),
    },
    "jumps.weierstrass_scan": lambda a, k, r: {"increments": _scan_increments(a, k)},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self._restore: list = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, 0.0, parent=parent, op=self.op)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent].child_s += span.dur
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            old = owner[attr]
            self._restore.append(lambda: owner.__setitem__(attr, old))
            owner[attr] = value
            return
        had_own = attr in vars(owner)
        old = vars(owner).get(attr)
        self._restore.append(
            (lambda: setattr(owner, attr, old)) if had_own else (lambda: delattr(owner, attr))
        )
        setattr(owner, attr, value)

    def _patch_function(self, name, fn, modules):
        """Replace ``fn`` wherever a gradjump module holds it by name."""
        traced = self.wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, traced)

    def _patch_method(self, name, cls, attr):
        raw = vars(cls).get(attr)
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(name, raw.__func__)))
        else:
            self._set(cls, attr, self.wrap(name, getattr(cls, attr)))

    def install(self):
        from scipy.stats import qmc

        from gradjump import cli, config, energies, envelopes, interchange, jumps, quadrature

        modules = [m for n, m in sys.modules.items()
                   if n == "gradjump" or n.startswith("gradjump.")]
        fn = self._patch_function
        fn("quadrature.limit_sweep", quadrature.limit_sweep, modules)
        fn("quadrature.energy_increment", quadrature.energy_increment, modules)
        # QMCEngine.random is inherited; shadow it on Sobol only
        self._patch_method("quadrature.sobol", qmc.Sobol, "random")
        # quadrature imports classify_codes by name: both references are patched
        fn("interchange.classify_codes", interchange.classify_codes, modules)
        self._patch_method(
            "interchange.scalar_gradient", interchange.InterchangeField, "scalar_gradient"
        )
        fn("jumps.weierstrass_scan", jumps.weierstrass_scan, modules)
        for cls in vars(energies).values():
            if isinstance(cls, type) and issubclass(cls, energies.EnergyModel):
                for attr in ("value_many", "value", "gradient"):
                    if attr in vars(cls):
                        self._patch_method(f"energies.{attr}", cls, attr)
        for attr, value in list(vars(envelopes).items()):
            if callable(value) and getattr(value, "__module__", None) == envelopes.__name__ \
                    and not isinstance(value, type) and not attr.startswith("_"):
                fn(f"envelopes.{attr}", value, modules)
        for attr, value in list(vars(config.RunConfig).items()):
            if attr.startswith("_") or isinstance(value, property):
                continue
            if callable(value) or isinstance(value, classmethod):
                self._patch_method(f"config.{attr}", config.RunConfig, attr)
        for command in list(cli._DISPATCH):
            self._set(cli._DISPATCH, command, self.wrap("cli.command", cli._DISPATCH[command]))
        fn("cli.main", cli.main, modules)

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    # -- reduction -------------------------------------------------------------

    def layer_totals(self) -> dict:
        """Calls, total and self seconds and summed counters per span name,
        and total seconds per layer (the name's first component).

        A span nested in one of the same name (or, for the layer total, of
        the same layer) adds to neither total, so nothing is counted twice.
        """
        by_name, by_layer = {}, {}
        for span in self.spans:
            layer = span.name.split(".")[0]
            names, layers = self._ancestors(span)
            t = by_name.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += span.self_s
            if span.name not in names:
                t["s"] += span.dur
            if layer not in layers:
                by_layer[layer] = by_layer.get(layer, 0.0) + span.dur
            for key, n in span.counts.items():
                t[key] = t.get(key, 0) + n
        return {"by_name": by_name, "by_layer": by_layer}

    def _ancestors(self, span: Span):
        names, layers = set(), set()
        parent = span.parent
        while parent is not None:
            p = self.spans[parent]
            names.add(p.name)
            layers.add(p.name.split(".")[0])
            parent = p.parent
        return names, layers

    def write(self, path):
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i, "name": s.name, "op": s.op, "parent": s.parent,
                    "start": s.start - t0, "end": s.end - t0, "counts": s.counts,
                }
                fh.write(json.dumps(row) + "\n")
