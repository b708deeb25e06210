"""In-memory call tracer for the benchmark's traced run.

The tracer replaces module attributes (and methods on one field
instance) with wrappers that record one span per call: id, parent span,
trial id, name, start and end. Nothing under ``src/`` knows about it.
A name that a later version of the program no longer defines is
skipped, so its span count reads 0 instead of the run failing.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# Span record fields. Records are tuples of atoms, appended when the call
# returns, so the garbage collector stops tracking them and its passes
# do not grow with the number of spans kept.
ID, PARENT, TRIAL, NAME, START, END, KEY = range(7)


def zf_key(field, h_rows, k, group):
    """Identity of one zero-forcing beam within a trial: (user, served group)."""
    return int(k), tuple(sorted({int(u) for u in group}))


def module_targets(ms) -> list:
    """(owner, attribute, span name, key function) for every linalg entry point.

    Each module that calls rank/solve/zero_forcing_vector holds its own
    reference to them, so each reference is wrapped under the calling
    module's name: "channel.rank" counts the channel check's rank calls,
    "linalg.solve" the solves made inside zero_forcing_vector.
    """
    out = []
    for site in ("channel", "delivery", "linalg"):
        mod = getattr(ms, site)
        for func in ("rank", "solve", "zero_forcing_vector"):
            key = zf_key if func == "zero_forcing_vector" else None
            out.append((mod, func, f"{site}.{func}", key))
    return out


def field_targets(field) -> list:
    return [
        (field, "matmul", "field.matmul", None),
        (field, "sample_channel", "field.sample_channel", None),
    ]


class Tracer:
    """Records nested spans of wrapped calls, grouped by trial id."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.trial = None
        self._next_id = 0
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn under a span named ``name``."""
        return self._call(name, None, fn, args, kwargs)

    def _call(self, name, key, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.trial, name, start, end, key))

    def _wrap(self, fn, name: str, key_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = key_fn(*args, **kwargs) if key_fn else None
            return self._call(name, key, fn, args, kwargs)

        wrapper.traced_as = name
        return wrapper

    @contextmanager
    def installed(self, targets):
        """Wrap every present target for the duration of the block."""
        undo = []
        try:
            for owner, attr, name, key_fn in targets:
                if not hasattr(owner, attr):
                    continue
                own = attr in vars(owner)
                orig = getattr(owner, attr)
                setattr(owner, attr, self._wrap(orig, name, key_fn))
                undo.append((owner, attr, own, orig))
            yield self
        finally:
            for owner, attr, own, orig in reversed(undo):
                if own:
                    setattr(owner, attr, orig)
                else:
                    delattr(owner, attr)

    def by_trial(self) -> dict:
        """Per trial id: the list of its spans with duration and self time.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded and nested, so children of
        one span never overlap.
        """
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        out = defaultdict(list)
        for rec in self.spans:
            dur = rec[END] - rec[START]
            out[rec[TRIAL]].append((rec[NAME], dur, dur - child_time[rec[ID]], rec[KEY]))
        return dict(out)

    def write_jsonl(self, path) -> None:
        """Dump every span as one JSON array per line."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:KEY]) + "\n")


def is_traced(targets) -> bool:
    """True if any target currently holds a tracer wrapper."""
    return any(hasattr(getattr(o, a, None), "traced_as") for o, a, _, _ in targets)
