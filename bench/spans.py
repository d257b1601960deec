"""Span tracer that times hsalpha's layers from outside the library.

Each layer is a module of ``src/hsalpha``.  ``Tracer.install`` wraps every
public function of those modules (the names in each module's ``__all__``)
plus ``ReferenceSolution.profile``, and rebinds the wrapper under every name
that a module of the package binds the function to, so calls routed through
``hsalpha.harness`` or ``hsalpha.cli`` are caught as well as direct ones.
``Tracer.restore`` puts every original back.

A span is ``[layer, function, start, end, parent span index]``; spans stay in
memory until the caller writes them out.  A layer's self time is the
duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import collections
import inspect
import os
import sys
import time

LAYERS = (
    "projection",
    "lagrangian",
    "evolution",
    "pushforward",
    "reference",
    "metrics",
    "harness",
    "cli",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Counters recorded where the work happens: (tracer, args, kwargs, result,
# span seconds, layer of the calling span) -> None.
def _on_project(tr, args, kwargs, out, dur, caller):
    tr.tally["projection.cells"] += out.u.nodes.size - 1


def _on_evolve(tr, args, kwargs, out, dur, caller):
    before = _arg(args, kwargs, 0, "s")
    tr.tally["evolution.calls"] += 1
    tr.tally["evolution.events"] += int(out.broken.sum()) - int(before.broken.sum())
    tr.evolve_ms.append(dur * 1e3)


def _on_events(tr, args, kwargs, out, dur, caller):
    tr.tally["evolution.schedule_s"] += dur


def _on_to_eulerian(tr, args, kwargs, out, dur, caller):
    tr.tally["pushforward.calls"] += 1
    tr.tally["pushforward.nodes"] += out.u.nodes.size
    if caller == "harness":
        tr.tally["harness.snapshots"] += 1


def _on_profile(tr, args, kwargs, out, dur, caller):
    tr.tally["reference.calls"] += 1
    if out.knots is not None:
        tr.tally["reference.table_points"] += out.knots.size


def _on_w1(tr, args, kwargs, out, dur, caller):
    tr.tally["metrics.calls"] += 1


def _on_csv(tr, args, kwargs, out, dur, caller):
    tr.tally["harness.csv_s"] += dur
    tr.tally["harness.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


HOOKS = {
    "projection.project": _on_project,
    "evolution.evolve": _on_evolve,
    "evolution.events": _on_events,
    "pushforward.to_eulerian": _on_to_eulerian,
    "reference.profile": _on_profile,
    "metrics.w1": _on_w1,
    "harness.write_solution_csv": _on_csv,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.evolve_ms = []
        self.tally = collections.defaultdict(float)
        self._open = []  # [span index, seconds covered by child spans]
        self._saved = []  # (namespace, attribute, original value)

    def take(self) -> dict:
        """Return the counters gathered since the last call and reset them."""
        out = dict(self.tally)
        self.tally.clear()
        return out

    def _wrap(self, layer, name, fn):
        hook = HOOKS.get(f"{layer}.{name}")

        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else -1
            span = [layer, name, 0.0, 0.0, parent]
            self.spans.append(span)
            frame = [len(self.spans) - 1, 0.0]
            self._open.append(frame)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
                dur = span[3] - span[2]
                if self._open:
                    self._open[-1][1] += dur
                self.tally[f"{layer}.self_s"] += dur - frame[1]
            if hook is not None:
                hook(self, args, kwargs, out, dur, self.spans[parent][0] if parent >= 0 else None)
            return out

        return traced

    def _rebind(self, namespace, attr, value):
        self._saved.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "hsalpha"]
        for layer in LAYERS:
            mod = sys.modules[f"hsalpha.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._rebind(m, attr, wrapper)
        cls = sys.modules["hsalpha.reference"].ReferenceSolution
        self._rebind(cls, "profile", self._wrap("reference", "profile", vars(cls)["profile"]))

    def restore(self) -> None:
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)
