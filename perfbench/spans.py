"""Spans recorded from outside the program.

``Tracer.wrap`` replaces a public callable on its owner (a module or a class)
with a wrapper that records a span per call, and ``Tracer.restore`` puts the
originals back.  Functions that a module imports by name are wrapped in the
importing module, since that is the name its call sites look up.  Spans are
kept in memory with the id of the span that was open when they started, so
self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.missing: set = set()
        self._open: list = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(None)
        self._open.append(sid)
        try:
            yield sid
        finally:
            self._open.pop()
            self.ends[sid] = time.perf_counter()

    @property
    def active(self) -> bool:
        """True while wrappers are installed."""
        return bool(self._patches)

    def current_root(self) -> int:
        return self._open[0] if self._open else -1

    def wrap(self, module, path: str, name: str, observe=None) -> None:
        """Record a span ``name`` around every call of ``module.<path>``.

        ``path`` is an attribute of the module, or ``Class.method``.
        ``observe(result, args)`` sees each call's result, for counts that are
        derived from what the layer returned.  A target that no longer exists
        is listed in ``missing`` instead of failing the run.
        """
        *outer, attr = path.split(".")
        owner = module
        for part in outer:
            owner = getattr(owner, part, None)
        raw = None if owner is None else vars(owner).get(attr)
        if raw is None:
            self.missing.add(name)
            return
        is_descriptor = isinstance(raw, (classmethod, staticmethod))
        call = getattr(owner, attr) if is_descriptor else raw
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = call(*args, **kwargs)
            if observe is not None:
                observe(result, args)
            return result

        setattr(owner, attr, staticmethod(wrapper) if is_descriptor else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def children_of(self) -> dict:
        children = defaultdict(list)
        for sid, parent in enumerate(self.parents):
            children[parent].append(sid)
        return children

    def totals_under(self, root: int, children: dict) -> tuple[dict, dict, dict]:
        """Busy seconds, self seconds and call counts per span name below ``root``."""
        busy, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        stack = list(children.get(root, ()))
        while stack:
            sid = stack.pop()
            kids = children.get(sid, ())
            duration = self.ends[sid] - self.starts[sid]
            name = self.names[sid]
            busy[name] += duration
            own[name] += duration - sum(self.ends[k] - self.starts[k] for k in kids)
            calls[name] += 1
            stack.extend(kids)
        return busy, own, calls

    def roots(self, name: str) -> list:
        return [sid for sid, (n, p) in enumerate(zip(self.names, self.parents))
                if n == name and p == -1]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name in enumerate(self.names):
                fh.write(json.dumps({"id": sid, "parent": self.parents[sid], "name": name,
                                     "start": self.starts[sid], "end": self.ends[sid]}))
                fh.write("\n")
