"""In-memory span tracing of the duoc layers, installed from outside the package.

``Tracer.install`` wraps every public function of each layer module, and
the ``__post_init__`` and public methods of the classes those modules
define, with a timing wrapper.  Names that other ``duoc`` modules
imported from a layer are rebound to the wrapper too, so calls between
layers are timed.  No file of the package changes.

A span is recorded only while an op is open (``begin_op`` /
``end_op``); calls made during input generation and checking stay
untimed.  Each span keeps its name, start, end, parent span and op id.
Self time (duration minus the time covered by child spans) and call
counts are aggregated per layer as spans close, so they are exact even
after the stored span list reaches its cap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = (
    "dsl.parser",
    "dsl.interpreter",
    "dsl.emit",
    "states",
    "effects",
    "dynamics",
    "nonlocality",
    "oracle",
    "linalg",
    "systems",
)

# the op itself: time inside an op that no layer span covers
OP_LAYER = "bench"

MAX_STORED_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.names = []          # span name table; spans refer to it by index
        self.layer_of = []       # layer of each name
        self.spans = []          # (name_idx, start, end, parent_span, op_id)
        self.dropped = 0
        self.calls = {}
        self.self_s = {}
        self.op_id = None
        self._stack = []         # [span_idx, child_seconds, name_idx, start] per open span
        self._op_name = None

    # -- installation -----------------------------------------------------
    def _name(self, layer, qualname):
        self.names.append(f"{layer}.{qualname}")
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, layer, qualname, fn):
        name_idx = self._name(layer, qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            return tracer._timed(name_idx, fn, args, kwargs)

        return traced

    def install(self):
        """Wrap the layer modules and rebind imported names across ``duoc``."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module("duoc." + layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(layer, attr, obj)
                    replaced[id(obj)] = wrapper
                    setattr(mod, attr, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        self._op_name = self._name(OP_LAYER, "op")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "duoc" or mod_name.startswith("duoc.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            label = f"{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(layer, label, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(layer, label, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(layer, label, raw))

    # -- spans ------------------------------------------------------------
    def _open(self, name_idx, start):
        if len(self.spans) < MAX_STORED_SPANS:
            span = len(self.spans)
            self.spans.append(None)
        else:
            span = -1
            self.dropped += 1
        self._stack.append([span, 0.0, name_idx, start])

    def _close(self, end):
        span, child_s, name_idx, start = self._stack.pop()
        duration = end - start
        layer = self.layer_of[name_idx]
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child_s
        self.calls[layer] = self.calls.get(layer, 0) + 1
        parent = -1
        if self._stack:
            self._stack[-1][1] += duration
            parent = self._stack[-1][0]
        if span >= 0:
            self.spans[span] = (name_idx, start, end, parent, self.op_id)

    def _timed(self, name_idx, fn, args, kwargs):
        self._open(name_idx, perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(perf_counter())

    def begin_op(self, op_id):
        self.op_id = op_id
        self._open(self._op_name, perf_counter())

    def end_op(self):
        self._close(perf_counter())
        self.op_id = None

    def write(self, path):
        """Write the stored spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_idx, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({
                    "name": self.names[name_idx],
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op_id,
                }) + "\n")
