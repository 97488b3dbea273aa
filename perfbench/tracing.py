"""Span tracer that times omegadet's layers from outside the package.

Each traced function is replaced, at every ``omegadet`` module attribute that
holds it, by a wrapper that records one span: layer, parent span, start and
end.  Calls bound through another module (``successors`` in ``determinize``
and ``oracle``, ``format_slice`` in ``determinize``) are therefore traced
too.  Modules are reached through ``sys.modules`` because the package
attribute ``omegadet.determinize`` is the function, not the submodule.

Spans are kept in flat arrays, indexed by span id in start order, so a
child's id is always larger than its parent's.  A span's self time is its
duration minus the durations of its direct children; single-threaded calls
nest, so the children never overlap.
"""
from __future__ import annotations

import importlib
import struct
import sys
import time
from array import array
from pathlib import Path


def _strategy_kind(args, kwargs) -> str:
    strategy = args[3] if len(args) > 3 else kwargs.get("strategy")
    return sys.modules["omegadet.determinize"].as_strategy(strategy).kind


# (module under omegadet, attribute or Class.method, layer name, tag function)
#
# What each layer should move, on which workload:
# * step, prune, normalize, slices.validate, nba.successors and the self time
#   of determinize (BFS loop, interning): wall_s and macrostates_per_s on
#   explore-ms, barely anything on check-corpus;
# * choose_partition, merge, the candidates count and adaptive.reuse_ratio:
#   wall_s and dpa_states on merge-adaptive; zero candidates on explore-ms;
# * slices.format_slice: labels are formatted and dropped on explore-ms,
#   formatted and written on merge-adaptive;
# * oracle.nba_accepts_lasso and parity.run_lasso: throughput on check-corpus;
# * cli.main self time (argparse, file I/O), nba.parse_nba,
#   parity.serialize_dpa and safra.unflatten: job_s.p50 on check-corpus.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("nba", "parse_nba", "nba.parse_nba", None),
    ("nba", "successors", "nba.successors", None),
    ("determinize", "determinize", "determinize.determinize", None),
    ("determinize", "step", "determinize.step", None),
    ("determinize", "prune", "determinize.prune", None),
    ("determinize", "choose_partition", "determinize.choose_partition", _strategy_kind),
    ("determinize", "merge", "determinize.merge", None),
    ("determinize", "normalize", "determinize.normalize", None),
    ("slices", "RankedSlice.__post_init__", "slices.validate", None),
    ("slices", "PreSlice.__post_init__", "slices.validate", None),
    ("slices", "format_slice", "slices.format_slice", None),
    ("safra", "unflatten", "safra.unflatten", None),
    ("oracle", "nba_accepts_lasso", "oracle.nba_accepts_lasso", None),
    ("parity", "run_lasso", "parity.run_lasso", None),
    ("parity", "serialize_dpa", "parity.serialize_dpa", None),
)

LAYERS = tuple(dict.fromkeys(target[2] for target in TARGETS))


class Spans:
    """Flat span storage: parent id (-1 for a root), layer index, start, end, tag."""

    def __init__(self):
        self.layers = LAYERS
        self.parent = array("q")
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.parent)

    def add(self, layer: str, parent: int, start: float, end: float) -> int:
        """Append a finished span, for span trees built by hand; the tracer appends in place."""
        self.parent.append(parent)
        self.layer.append(self.layers.index(layer))
        self.start.append(start)
        self.end.append(end)
        return len(self.parent) - 1

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it that its children cover."""
        parent, start, end = self.parent, self.start, self.end
        own = [end[i] - start[i] for i in range(len(parent))]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def summary(self) -> dict[str, float]:
        """Per-layer ``<layer>.calls`` and ``<layer>.self_s`` plus the merge-stage counters.

        ``determinize.choose_partition.candidates`` counts merges called by
        ``choose_partition``.  ``determinize.adaptive.reuse_ratio`` divides the
        top-level adaptive ``choose_partition`` calls that never reach the
        nested fallback call by all top-level adaptive calls (0 without any).
        ``spans.total_s`` is the summed duration of the root spans, which the
        self times add up to.
        """
        own = self.self_times()
        calls = [0] * len(self.layers)
        self_s = [0.0] * len(self.layers)
        for i, layer in enumerate(self.layer):
            calls[layer] += 1
            self_s[layer] += own[i]
        out: dict[str, float] = {}
        for index, name in enumerate(self.layers):
            out[f"{name}.calls"] = calls[index]
            out[f"{name}.self_s"] = self_s[index]

        choose = self.layers.index("determinize.choose_partition")
        merge = self.layers.index("determinize.merge")
        candidates = 0
        has_nested = set()
        for i, layer in enumerate(self.layer):
            p = self.parent[i]
            if p >= 0 and self.layer[p] == choose:
                if layer == merge:
                    candidates += 1
                elif layer == choose:
                    has_nested.add(p)
        top_adaptive = [
            sid
            for sid, tag in self.tags.items()
            if tag == "adaptive" and not (self.parent[sid] >= 0 and self.layer[self.parent[sid]] == choose)
        ]
        hits = sum(1 for sid in top_adaptive if sid not in has_nested)
        out["determinize.choose_partition.candidates"] = candidates
        out["determinize.adaptive.reuse_ratio"] = hits / len(top_adaptive) if top_adaptive else 0.0
        out["spans.total_s"] = sum(self.end[i] - self.start[i] for i in range(len(self)) if self.parent[i] < 0)
        return out

    def write(self, path: Path) -> None:
        """Binary dump: a header line of layer names, the span count, then the four arrays."""
        with open(path, "wb") as fh:
            fh.write(("\t".join(self.layers) + "\n").encode())
            fh.write(struct.pack("<q", len(self)))
            for column in (self.parent, self.layer, self.start, self.end):
                column.tofile(fh)


class Tracer:
    """Installs span-recording wrappers on the loaded omegadet modules; use as a context manager."""

    def __init__(self):
        self.spans = Spans()
        self.current = -1
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> Spans:
        """Start a fresh span store; returns the previous one."""
        finished = self.spans
        self.spans = Spans()
        self.current = -1
        return finished

    def __enter__(self) -> "Tracer":
        homes = {name: importlib.import_module(f"omegadet.{name}") for name, *_ in TARGETS}
        modules = [m for name, m in list(sys.modules.items()) if name == "omegadet" or name.startswith("omegadet.")]
        for module_name, attr, layer, tag in TARGETS:
            home = homes[module_name]
            index = self.spans.layers.index(layer)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, method, self._wrap(cls.__dict__[method], index, tag))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, index, tag)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, fn, index: int, tag):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = tag(args, kwargs) if tag is not None else None
            spans = tracer.spans
            parent = tracer.current
            sid = len(spans.parent)
            spans.parent.append(parent)
            spans.layer.append(index)
            spans.end.append(0.0)
            if label is not None:
                spans.tags[sid] = label
            tracer.current = sid
            spans.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                spans.end[sid] = clock()
                tracer.current = parent

        traced.__wrapped__ = fn
        return traced
