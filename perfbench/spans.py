"""In-memory call spans around the public functions of `crown`.

The tracer replaces a function by a wrapper that records one span per
call: the span's name, the index of the span that was open when it
started (its parent) and four `perf_counter_ns` stamps.  `t0`..`t3`
bracket the whole wrapper, `t1`..`t2` only the wrapped call, so the
tracer's own bookkeeping (stamping, and evaluating an operand count)
is kept out of every span's duration and out of its parent's self time.

Functions are rebound by identity in every module namespace that holds
them, because the package imports names directly
(`from .linalg import mat_compose`).  Methods are rebound on their class.
"""

from __future__ import annotations

import functools
import sys
import time

# A span record: [name, parent index or -1, t0, t1, t2, t3].
NAME, PARENT, T0, T1, T2, T3 = range(6)


class Tracer:
    """One span stack for a single-threaded run; spans stay in memory."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self._stack = []

    def wrap(self, name, fn, count=None):
        """A wrapper recording a span named `name` for every call of `fn`.

        `count(*args, **kwargs)` maps the operands to a dict of work counts
        (suffix -> int) added to `name.<suffix>`; it runs outside the span.
        """
        clock = self.clock
        spans = self.spans
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            if count is not None:
                for key, value in count(*args, **kwargs).items():
                    key = f"{name}.{key}"
                    counts[key] = counts.get(key, 0) + value
            record = [name, stack[-1] if stack else -1, t0, 0, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[T1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[T2] = clock()
                stack.pop()
                record[T3] = clock()

        return traced


def rebind(original, replacement, modules):
    """Replace every module-level binding of `original` (by identity)."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def crown_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "crown" or name.startswith("crown.")]


def install(tracer, targets, modules):
    """Wrap each target; return the names that were not found.

    `targets` maps a span name "<module>.<qualname>" to an optional count
    function.  The module part names a `crown` submodule; a qualname
    "Class.method" wraps the method on its class.
    """
    by_name = {m.__name__: m for m in modules}
    missing = []
    for span_name, count in targets.items():
        mod_name, _, qualname = span_name.partition(".")
        owner = by_name.get(f"crown.{mod_name}")
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            missing.append(span_name)
            continue
        wrapper = tracer.wrap(span_name, original, count)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            rebind(original, wrapper, modules)
    return missing


def summarize(spans):
    """Per-name call count, inclusive and self time in nanoseconds.

    Self time is a span's duration minus the whole wrapper intervals of
    its direct children.  Inclusive time counts only the outermost span
    of a name on a stack, so recursion is not counted twice.  Also
    returns the tracer's own time: the part of every wrapper interval
    outside its span.  Self times plus that bookkeeping add up to the
    wrapper intervals of the top-level spans.
    """
    covered = [0] * len(spans)
    for rec in spans:
        parent = rec[PARENT]
        if parent >= 0:
            covered[parent] += rec[T3] - rec[T0]
    stats = {}
    bookkeeping_ns = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        dur = rec[T2] - rec[T1]
        entry = stats.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[2] += dur - covered[i]
        bookkeeping_ns += (rec[T3] - rec[T0]) - dur
        parent = rec[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry[1] += dur
    return stats, bookkeeping_ns
