"""Spans around the calls the harness makes into each layer.

The harness imports every layer function it uses by name, so replacing
those names in the `sparselsfd.harness` namespace intercepts exactly the
harness's calls into the layers and nothing inside a layer.  Spans are
kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# layer functions the harness calls, by the name it imports them under
LAYER_FUNCTIONS = (
    "generate_network",
    "assign_pilots",
    "estimation_stats",
    "estimate_lsfd_statistics",
    "olsfd_weights",
    "plsfd_weights",
    "baseline_association",
    "sinr",
    "se",
    "fractional_power",
    "extract_association",
    "total_power",
    "energy_efficiency",
    "build_problem",
    "bcd_solve",
    "snap_zeros",
)


@contextmanager
def patched(module, wrappers):
    """Replace module attributes by name for the duration of the block."""
    saved = {name: getattr(module, name) for name in wrappers}
    try:
        for name, fn in wrappers.items():
            setattr(module, name, fn)
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


class Tracer:
    """In-memory spans: name, layer, start, end and the enclosing span."""

    def __init__(self):
        self.spans = []   # [name, layer, start, end, parent index or None]
        self._open = []

    @contextmanager
    def span(self, name, layer):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, layer, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name):
        layer = fn.__module__.rsplit(".", 1)[-1]

        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return traced

    def instrument(self, module, names=LAYER_FUNCTIONS):
        return patched(module, {n: self.wrap(getattr(module, n), n) for n in names})

    def total(self, name=None, layer=None):
        """Summed duration of the spans matching a name and/or a layer."""
        return sum(
            end - start
            for n, lay, start, end, _ in self.spans
            if (name is None or n == name) and (layer is None or lay == layer)
        )

    def count(self, name):
        return sum(1 for span in self.spans if span[0] == name)

    def self_time(self, name):
        """Duration of the named spans minus the time their children cover."""
        own = {i: s[3] - s[2] for i, s in enumerate(self.spans) if s[0] == name}
        for _, _, start, end, parent in self.spans:
            if parent in own:
                own[parent] -= end - start
        return sum(own.values())

    def as_json(self):
        return [
            {"name": n, "layer": lay, "start": s, "end": e, "parent": p}
            for n, lay, s, e, p in self.spans
        ]


class Capture:
    """Keeps the arguments and results of selected calls, for the checks."""

    def __init__(self):
        self.calls = {}

    def wrap(self, fn, name):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls.setdefault(name, []).append((args, kwargs, result))
            return result

        return captured

    def instrument(self, module, names):
        return patched(module, {n: self.wrap(getattr(module, n), n) for n in names})
