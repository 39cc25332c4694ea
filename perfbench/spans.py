"""Timing and counting shims for the traced run.

A shim replaces a public callable of asynclab at the place where its caller
looks the name up, records one span per call and delegates to the original.
Spans are kept in memory as (id, name, start, end, parent, op) tuples and are
written out once, when the run ends. Nothing under `src/` is changed.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict


class Recorder:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id or -1, op)
        self.op = 0              # operation id stamped on every new span
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []       # (owner, attribute, original)

    def wrap(self, name, fn, after=None):
        """Return a shim around fn that records a span named `name`.

        `after(args, result, seconds)` runs outside the span, so what it
        costs does not count against the layer.
        """
        clock = time.perf_counter
        spans, ids, local, rec = self.spans, self._ids, self._local, self

        def shim(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, rec.op))
            if after is not None:
                after(args, result, end - start)
            return result

        return shim

    def patch(self, owner, attribute, name, after=None):
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, after))

    def restore(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def dump(self, path):
        """Write the spans as JSON lines, one span per line."""
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))))
                f.write("\n")


def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    Spans of one thread nest, so the direct children of a span are disjoint
    and their summed durations are the covered part of its interval.
    """
    covered = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return {sid: end - start - covered[sid] for sid, _, start, end, _, _ in spans}


def layer_time_by_op(spans, prefix):
    """op -> summed duration of the spans named `prefix*` that are not
    inside another `prefix*` span: the time the operation spent in that
    layer, counted once."""
    names = {sid: name for sid, name, *_ in spans}
    out = defaultdict(float)
    for sid, name, start, end, parent, op in spans:
        if name.startswith(prefix) and not names.get(parent, "").startswith(prefix):
            out[op] += end - start
    return out
