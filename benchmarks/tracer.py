"""Spans around wordground's public functions, recorded from outside the package.

A `Tracer` keeps one row per call: name, start, end, parent span, and the
benchmark stage and operation it belongs to. `install` replaces every reference to the
listed functions inside the `wordground` package with a recording wrapper, so
calls between modules (for example `structure` calling `network.family_counts`)
are recorded too. Spans stay in memory until `write` or `dump`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

import numpy as np

# Public functions wrapped per module; the names become span names
# `<module>.<function>`.
TARGETS = {
    "network": (
        "encode_columns",
        "family_counts",
        "fit_cpts",
        "load_network",
        "save_network",
        "score_from_counts",
    ),
    "structure": ("learn_word_layer", "train_model"),
    "grounding": ("load_corpus", "save_corpus"),
    "inference": ("load_nbest", "load_scene", "rescore_nbest", "select_action_object"),
    "evaluation": ("default_instructions", "evaluate_instructions", "staged_learning"),
    "datagen": ("build_corpus",),
    "cli": ("main",),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.op = array("q")
        self.stage_ix = array("b")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self.op_id = -1
        self.stage = -1
        self.counts: dict[tuple[int, str], int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: int, end: int, parent: int = -1, op: int | None = None) -> int:
        """Record a span measured elsewhere; returns its index."""
        idx = len(self.start)
        self.name_ix.append(self._name_id(name))
        self.parent.append(parent)
        self.op.append(self.op_id if op is None else op)
        self.stage_ix.append(self.stage)
        self.start.append(start)
        self.end.append(end)
        return idx

    def wrap(self, fn, name: str, on_return=None):
        nid = self._name_id(name)
        name_ix, parent, op, start, end = self.name_ix, self.parent, self.op, self.start, self.end
        stage = self.stage_ix
        open_spans = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_ix.append(nid)
            parent.append(open_spans[-1] if open_spans else -1)
            op.append(self.op_id)
            stage.append(self.stage)
            end.append(0)
            open_spans.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_spans.pop()
            if on_return is not None:
                on_return(self, result)
            return result

        return traced

    def count(self, key: str, n: int = 1) -> None:
        """Add `n` to a counter of the current stage."""
        key = (self.stage, key)
        self.counts[key] = self.counts.get(key, 0) + n

    def adopt(self, dump: dict, parent: int, op: int) -> None:
        """Append spans dumped by a child process under span `parent`."""
        base = len(self.start)
        for name, s, e, p in dump["spans"]:
            self.add(name, s, e, parent if p < 0 else base + p, op)

    def dump(self) -> dict:
        return {
            "spans": [
                [self.names[n], s, e, p]
                for n, s, e, p in zip(self.name_ix, self.start, self.end, self.parent)
            ],
        }

    def write(self, path, stages) -> None:
        """Spans as gzip'd CSV: name, start_ns, end_ns, parent index, stage
        name (from `stages`, `-` for unmeasured work) and op id."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,stage,op\n")
            names = self.names
            fh.writelines(
                f"{names[n]},{s},{e},{p},{stages[g] if g >= 0 else '-'},{o}\n"
                for n, s, e, p, g, o in zip(
                    self.name_ix, self.start, self.end, self.parent, self.stage_ix, self.op
                )
            )

    def stats(self, stage: int) -> dict[str, dict[str, np.ndarray]]:
        """Per span name within one stage: durations and self times (duration
        minus the part covered by direct children), both in nanoseconds."""
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=np.int64)[:n] - np.frombuffer(self.start, dtype=np.int64)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        name_ix = np.frombuffer(self.name_ix, dtype=np.int32)[:n]
        in_stage = np.frombuffer(self.stage_ix, dtype=np.int8)[:n] == stage
        out = {}
        for i, name in enumerate(self.names):
            mask = in_stage & (name_ix == i)
            out[name] = {"dur": dur[mask], "self": self_ns[mask]}
        return out


def install(tracer: Tracer, on_return: dict | None = None) -> None:
    """Route every reference to the TARGETS functions, and StateTable
    construction, through `tracer`. `on_return` maps a span name to a
    callback `(tracer, result)` run after each call."""
    on_return = on_return or {}
    modules = [importlib.import_module("wordground")]
    modules += [importlib.import_module(f"wordground.{m}") for m in TARGETS]
    for mod_name, attrs in TARGETS.items():
        mod = sys.modules[f"wordground.{mod_name}"]
        for attr in attrs:
            original = getattr(mod, attr, None)
            if original is None:  # removed from the package: no work to time
                continue
            name = f"{mod_name}.{attr}"
            wrapped = tracer.wrap(original, name, on_return.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
    state_table = sys.modules["wordground.inference"].StateTable
    state_table.__init__ = tracer.wrap(state_table.__init__, "inference.StateTable")
