"""Span tracing of package functions, installed from outside the package.

The package imports functions by name (``experiments`` binds ``run`` from
``solver``, ``sve`` binds ``singular_values_batch`` from ``core``), so a
wrapper on the defining module alone would miss most calls.  ``install``
therefore replaces every binding of a traced function in every loaded
``diffdecomp`` module and ``uninstall`` puts the originals back.

Spans live in memory as ``(name_id, parent_index, start, duration, self)``
tuples; ``self`` is the duration minus the time covered by direct child
spans.  Nothing is written until the traced round has ended.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from time import perf_counter


def _conv_gflop(args, kwargs, result):
    x, w = args[0], args[1]
    cin, h, width = x.shape
    return {"gflop": 2.0 * h * width * 9 * cin * w.shape[0] / 1e9}


def _batch_matrices(args, kwargs, result):
    return {"matrices": float(len(args[0]))}


def _file_bytes(args, kwargs, result):
    return {"bytes": float(os.path.getsize(args[0]))}


# (defining module, function, measure) of every traced function.  A measure
# adds named amounts from the call's arguments or its output file.
TARGETS = (
    ("solver", "conv3x3_reflect", _conv_gflop),
    ("solver", "run", None),
    ("solver", "step", None),
    ("solver", "memory_update", None),
    ("solver", "predict", None),
    ("core", "singular_values_batch", _batch_matrices),
    ("sve", "gate_map", None),
    ("sve", "patch_entropies", None),
    ("objective", "total_loss", None),
    ("fit", "fd_gradient", None),
    ("fit", "apply_theta", None),
    ("params", "copy_params", None),
    ("params", "save_params", None),
    ("params", "load_params", None),
    ("experiments", "fit_on_batch", None),
    ("experiments", "evaluate_instance", None),
    ("experiments", "difference_field", None),
    ("experiments", "sve_prior_rows", None),
    ("experiments", "contraction_rows", None),
    ("convergence", "contraction_report", None),
    ("wavelet", "suppress_pair", None),
    ("synth", "gen_instance", None),
    ("synth", "gen_bitemporal", None),
    ("tensorio", "write_tensor", _file_bytes),
    ("csvio", "write_csv", _file_bytes),
)

# Called tens of thousands of times per fit iteration: counted, not spanned.
COUNTED = (("core", "as_field"),)


class Tracer:
    """Records spans and per-name amounts while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.amounts = {}
        self.counts = {}
        self._stack = []
        self._patched = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, name_id: int):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0, name_id, parent, perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame) -> None:
        end = perf_counter()
        self._stack.pop()
        index, child, name_id, parent, start = frame
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.spans[index] = (name_id, parent, start, duration, duration - child)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one CLI subcommand."""
        frame = self._enter(self.name_id(name))
        try:
            yield
        finally:
            self._exit(frame)

    def _spanned(self, name: str, fn, measure):
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if measure is not None:
                for key, value in measure(args, kwargs, result).items():
                    full = f"{name}.{key}"
                    self.amounts[full] = self.amounts.get(full, 0.0) + value
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded package module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "diffdecomp" or n.startswith("diffdecomp."))]
        wrapped = []
        for module_name, func_name, measure in TARGETS:
            original = getattr(sys.modules[f"diffdecomp.{module_name}"], func_name)
            name = f"{module_name}.{func_name}"
            wrapped.append((original, self._spanned(name, original, measure)))
        for module_name, func_name in COUNTED:
            original = getattr(sys.modules[f"diffdecomp.{module_name}"], func_name)
            wrapped.append((original, self._counted(f"{module_name}.{func_name}", original)))
        for original, wrapper in wrapped:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ read-out

    def totals(self):
        """Per name: calls, inclusive seconds (outermost spans) and self seconds."""
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for name_id, parent, _start, duration, own in self.spans:
            calls[name_id] += 1
            self_s[name_id] += own
            if not self.has_ancestor(parent, name_id):
                incl[name_id] += duration
        return {
            name: {"calls": calls[i], "s": incl[i], "self_s": self_s[i]}
            for i, name in enumerate(self.names)
        }

    def has_ancestor(self, index: int, name_id: int) -> bool:
        while index >= 0:
            span = self.spans[index]
            if span[0] == name_id:
                return True
            index = span[1]
        return False

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` that run inside a span of ``ancestor``."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        name_id, ancestor_id = self._ids[name], self._ids[ancestor]
        return sum(1 for span in self.spans
                   if span[0] == name_id and self.has_ancestor(span[1], ancestor_id))

    def write(self, path: str) -> None:
        """Write the spans as JSON: names, then [name, parent, start, duration] rows."""
        base = self.spans[0][2] if self.spans else 0.0
        rows = [[n, p, round((s - base) * 1e6, 1), round(d * 1e6, 1)]
                for n, p, s, d, _own in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "unit": "us", "spans": rows}, fh,
                      separators=(",", ":"))
