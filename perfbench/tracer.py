"""An in-memory span tracer that times a program's functions from outside.

A target is named ``"module:attribute"``.  Installing the tracer replaces,
by identity, every module-global binding of the target object in the
target's own module and in every module of the traced package.  A module
that did ``from .x import f`` holds its own binding of ``f``, so patching
only the defining module would miss its calls.  A target that does not
exist, because its module or attribute is gone, reads as zero calls.

Spans are recorded only while ``op`` is set; each keeps its parent's id, and
self time is the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time

#: op index of spans recorded in the cold first op, before the timed loop
COLD = -1


class Tracer:
    def __init__(self, package: str, targets, clock=time.perf_counter):
        self.package = package
        self.targets = list(targets)
        self.clock = clock
        #: (span id, parent id or -1, target index, start, end, self seconds, op)
        self.spans: list[tuple] = []
        #: op index the next spans belong to; None records nothing
        self.op: int | None = None
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._ids = itertools.count()
        self._patches: list[tuple] = []  # (module, name, original)
        self._found: dict[int, object] = {}
        self._cache_start: dict[int, tuple[int, int]] = {}
        self._nbytes: dict[int, dict[int, int]] = {}

    def install(self) -> None:
        for i, target in enumerate(self.targets):
            modname, attr = target.split(":")
            try:
                home = importlib.import_module(modname)
            except ImportError:
                continue
            obj = getattr(home, attr, None)
            if callable(obj):
                self._found[i] = (home, obj)
        package = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        for i, (home, obj) in self._found.items():
            if hasattr(obj, "cache_info"):
                info = obj.cache_info()
                self._cache_start[i] = (info.hits, info.misses)
            wrapper = self._wrap(i, obj)
            for mod in [home] + [m for m in package if m is not home]:
                for name, value in list(vars(mod).items()):
                    if value is obj:
                        setattr(mod, name, wrapper)
                        self._patches.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    def _wrap(self, i: int, fn):
        clock, stack, spans, ids = self.clock, self._stack, self.spans, self._ids
        sized = self._nbytes.setdefault(i, {}) if hasattr(fn, "cache_info") else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((span_id, parent, i, start, end, end - start - frame[1], op))
            if sized is not None and hasattr(result, "nbytes"):
                sized[id(result)] = result.nbytes
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        """Per target: calls and self seconds over all spans and over the
        timed ops (op >= 0), lru_cache hit ratio since install, and the bytes
        of the distinct arrays a cached target returned."""
        out = {
            t: {"calls": 0, "self_s": 0.0, "op_calls": 0, "op_self_s": 0.0,
                "hit_ratio": 0.0, "cached_bytes": 0}
            for t in self.targets
        }
        for _, _, i, _, _, self_s, op in self.spans:
            s = out[self.targets[i]]
            s["calls"] += 1
            s["self_s"] += self_s
            if op >= 0:
                s["op_calls"] += 1
                s["op_self_s"] += self_s
        for i, (hits0, misses0) in self._cache_start.items():
            info = self._found[i][1].cache_info()
            hits, misses = info.hits - hits0, info.misses - misses0
            out[self.targets[i]]["hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for i, sizes in self._nbytes.items():
            out[self.targets[i]]["cached_bytes"] = sum(sizes.values())
        return out

    def top_level_seconds(self) -> float:
        """Time the timed ops spent inside outermost spans."""
        return sum(end - start for _, parent, _, start, end, _, op in self.spans
                   if parent == -1 and op >= 0)
