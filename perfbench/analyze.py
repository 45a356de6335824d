"""Aggregate the spans written by ``tracer.py`` into per-layer metrics.

A per-layer metric is named ``<span>.<stat>``, where ``<span>`` is
``<module>.<function>`` (or ``checks.<check_name>``) and ``<stat>`` is one of

* ``calls``        number of spans;
* ``self_s``       span durations minus the time their child spans cover;
* ``s``            span durations, children included (used for checks);
* ``cells``        sum of ``rows x width`` over the calls (``rref``);
* ``repeat_ratio`` calls whose input key was already seen, over all calls;
* ``hit_ratio``    calls that reached no ``rowops.rref`` below them, over
                   all calls (memoised calls answered from a cache).
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict

COLUMNS = (("name", "i"), ("parent", "i"), ("trial", "i"), ("start", "q"),
           ("end", "q"), ("key", "q"), ("cells", "q"))


def load(out: str) -> dict:
    with open(out + ".json", encoding="utf-8") as fh:
        head = json.load(fh)
    n = head["spans"]
    cols = {}
    with open(out + ".bin", "rb") as fh:
        for col, code in COLUMNS:
            arr = array(code)
            arr.fromfile(fh, n)
            cols[col] = arr
    return {"names": head["names"], "trials": head["trials"], **cols}


class SpanStats:
    """Per-span-name totals, summed over any number of span files."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.cells = defaultdict(int)
        self.repeats = defaultdict(int)
        self.hits = defaultdict(int)
        self.trial_ns = defaultdict(int)

    def add(self, spans: dict):
        names = spans["names"]
        name, parent, trial = spans["name"], spans["parent"], spans["trial"]
        start, end, key, cells = (spans["start"], spans["end"], spans["key"],
                                  spans["cells"])
        n = len(start)
        rref = names.index("rowops.rref") if "rowops.rref" in names else -1
        child_ns = [0] * n
        reached = bytearray(n)
        # Parents start before their children, so a reverse pass sees every
        # child before its parent.
        for i in range(n - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
                if reached[i] or name[i] == rref:
                    reached[p] = 1
        seen = set()
        for i in range(n):
            label = names[name[i]]
            dur = end[i] - start[i]
            self.calls[label] += 1
            self.total_ns[label] += dur
            self.self_ns[label] += dur - child_ns[i]
            self.cells[label] += cells[i]
            if not reached[i]:
                self.hits[label] += 1
            k = key[i]
            if k:
                if (label, k) in seen:
                    self.repeats[label] += 1
                else:
                    seen.add((label, k))
            if label.startswith("checks.") and trial[i] >= 0:
                check, index = spans["trials"][trial[i]]
                self.trial_ns[(check, index)] += dur

    def value(self, span: str, stat: str) -> float:
        calls = self.calls.get(span, 0)
        if stat == "calls":
            return calls
        if stat == "cells":
            return self.cells.get(span, 0)
        if stat == "self_s":
            return self.self_ns.get(span, 0) / 1e9
        if stat == "s":
            return self.total_ns.get(span, 0) / 1e9
        if stat == "repeat_ratio":
            return self.repeats.get(span, 0) / calls if calls else 0.0
        if stat == "hit_ratio":
            return self.hits.get(span, 0) / calls if calls else 0.0
        raise KeyError(f"unknown span statistic {stat!r}")

    def layer_self_s(self) -> dict[str, float]:
        layers = defaultdict(float)
        for label, ns in self.self_ns.items():
            layers[label.split(".", 1)[0]] += ns / 1e9
        return dict(layers)

    def slowest_checks(self, k: int = 5) -> list[tuple[str, float]]:
        checks = [(label[len("checks."):], ns / 1e9)
                  for label, ns in self.total_ns.items()
                  if label.startswith("checks.")]
        return sorted(checks, key=lambda c: (-c[1], c[0]))[:k]

    def slowest_trials(self, k: int = 3) -> list[tuple[str, int, float]]:
        rows = [(c, i, ns / 1e9) for (c, i), ns in self.trial_ns.items()]
        return sorted(rows, key=lambda r: (-r[2], r[0], r[1]))[:k]
