"""In-memory spans around public functions of irs_ssm, recorded from outside the package.

A span holds a name, start and end times, the index of its parent span and a
run id.  The run id is the index of the enclosing ``harness.run_method`` span,
so all spans of one method run share it; spans outside a run carry -1.
Wrapping replaces every binding of a function in the loaded ``irs_ssm``
modules (``from .x import f`` copies a binding into each importer), or the
attribute of a class for methods, and restores them on exit.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

RUN_SPAN = "harness.run_method"


class Tracer:
    """Spans in parallel lists, counters from returned values, outputs kept for checking."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.counts: Counter = Counter()
        self.outputs: list[tuple] = []  # (run id, span name, check item)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parent.append(parent)
        self.run.append(idx if name == RUN_SPAN else (self.run[parent] if parent >= 0 else -1))
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span per call; ``observe(result, args)`` returns (counter increments, check items)."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{name}.errors"] += 1
                raise
            finally:
                self.close(idx)
            if observe is not None:
                increments, items = observe(out, args)
                for key, value in increments.items():
                    self.counts[f"{name}.{key}"] += value
                self.outputs.extend((self.run[idx], name, item) for item in items)
            return out

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def has_ancestor(self, idx: int, name: str) -> bool:
        p = self.parent[idx]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parent[p]
        return False

    def dump(self) -> dict:
        return {"names": self.names, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run}


def self_times(start: list[float], end: list[float], parent: list[int]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = {}
    for idx, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(idx)
    out = []
    for idx in range(len(start)):
        lo, hi = start[idx], end[idx]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(idx, ()), key=lambda c: start[c]):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


@contextmanager
def installed(tracer: Tracer, targets):
    """Wrap each (owner, attribute, span name, observe) target while the block runs."""
    modules = [m for key, m in sys.modules.items() if key == "irs_ssm" or key.startswith("irs_ssm.")]
    patches = []
    try:
        for owner, attr, name, observe in targets:
            original = getattr(owner, attr)
            traced = tracer.wrap(name, original, observe)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, key, value))
                        setattr(holder, key, traced)
        yield tracer
    finally:
        for holder, key, value in reversed(patches):
            setattr(holder, key, value)
