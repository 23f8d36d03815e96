"""In-memory spans for the traced run, written out once at the end.

A span has a name, start and end (time.perf_counter, which is
CLOCK_MONOTONIC on Linux and so comparable across the benchmark's
processes), its parent span and the run id shared by every span of one
run.  A span's name is '<layer>.<what>', the layer being the minifunc
module the benchmark called into.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = ("minifunc", "cli", "functionals", "polyapprox", "estimators", "lowerbounds", "simplexlp", "risklab")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Graft spans recorded by a child process under one of ours."""
        offset = len(self.spans)
        for s in spans:
            s = dict(s, id=s["id"] + offset, run_id=self.run_id)
            s["parent"] = parent if s["parent"] is None else s["parent"] + offset
            self.spans.append(s)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def duration(s: dict) -> float:
    return s["end"] - s["start"]


def subtree(spans: list[dict], root: int) -> list[dict]:
    """The spans under root (root excluded), in recording order."""
    inside = {root}
    out = []
    for s in spans:
        if s["parent"] in inside:
            inside.add(s["id"])
            out.append(s)
    return out


def layer_self_times(spans: list[dict]) -> dict:
    """Per layer: span time not covered by the span's children.

    Spans whose name has no layer prefix (round and op markers) are
    structure only and take no self time.
    """
    child_time: dict = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        if layer in out:
            out[layer] += duration(s) - child_time.get(s["id"], 0.0)
    return out
