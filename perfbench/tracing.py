"""In-memory span tracer around wgqed's public functions.

``Tracer.install`` wraps every public function of the layer modules and
rebinds the wrapper in every module namespace that holds the original,
so calls made through ``from .x import y`` are caught too.  Spans carry
their parent and the id of the benchmark op that caused them; they stay
in memory and are written out once, by ``Tracer.save``.
"""

from __future__ import annotations

import functools
import importlib
import types
import warnings
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "model", "dynamics", "entangle", "states", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        #: function name -> summed len(result.times) over its calls
        self.samples: Counter = Counter()
        #: (layer, warning category) -> warnings raised while the layer was on the stack
        self.warnings: Counter = Counter()
        self.wrapped: set[str] = set()

    def name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def begin(self, name_id: int) -> int:
        sid = len(self.t0)
        parent = self.stack[-1] if self.stack else -1
        self.name.append(name_id)
        self.parent.append(parent)
        self.op.append(self.op[parent] if parent >= 0 else sid)
        self.t1.append(0.0)
        self.stack.append(sid)
        self.t0.append(perf_counter())
        return sid

    def end(self, sid: int):
        self.t1[sid] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str):
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            times = getattr(result, "times", None)
            if times is not None:
                self.samples[name] += len(times)
            return result

        return traced

    def install(self, package: str = "wgqed"):
        """Wrap the public functions of each layer at every binding; count warnings."""
        layer_modules = {f"{package}.{layer}" for layer in LAYERS}
        modules = [importlib.import_module(package)]
        for name in sorted(layer_modules):
            try:
                modules.append(importlib.import_module(name))
            except ImportError:
                continue
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ in layer_modules and id(obj) not in wrappers):
                    label = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[id(obj)] = (obj, self.wrap(obj, label))
                    self.wrapped.add(label)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        warnings.simplefilter("always")
        warnings.showwarning = self._count_warning

    def _count_warning(self, message, category, filename, lineno, file=None, line=None):
        layers = {self.names[self.name[s]].split(".")[0] for s in self.stack}
        for layer in layers:
            self.warnings[(layer, category.__name__)] += 1

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.array(self.name, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "op": np.array(self.op, dtype=np.int64),
                "t0": np.array(self.t0, dtype=np.float64),
                "t1": np.array(self.t1, dtype=np.float64)}

    def save(self, path: str):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per-function call count, total and self time; self = span minus its children."""
        a = self.arrays()
        dur = a["t1"] - a["t0"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=dur, minlength=n)
        own = np.bincount(a["name"], weights=self_time, minlength=n)
        return {"functions": {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                                     "self_s": float(own[i])}
                              for i, name in enumerate(self.names)},
                "arrays": a, "dur": dur}

    def descendants_of(self, arrays, ancestor: str, name: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        if ancestor not in self._index or name not in self._index:
            return 0
        anc, target = self._index[ancestor], self._index[name]
        parents, names = arrays["parent"], arrays["name"]
        count = 0
        for sid in np.flatnonzero(names == target):
            p = parents[sid]
            while p >= 0 and names[p] != anc:
                p = parents[p]
            count += p >= 0
        return int(count)
