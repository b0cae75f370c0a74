"""Outside-in tracer: spans around calls into vecmerge's public functions.

`Tracer.bind` replaces each target function at every vecmerge module
attribute that refers to it (and methods on their class), so calls made
through `from .x import f` names are caught too; `unbind` restores the
originals. No vecmerge source is edited.

Each thread keeps its own span stack. A span opened on a worker thread
with an empty stack takes as parent the innermost span open on the
thread that created the tracer, which is where `--threads N` pool work
is waited for. Spans stay in memory until `self_times` is read.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter

BOOKKEEPING = "trace.bookkeeping"  # time spent in count hooks, kept out of the caller's self time
PACKAGE = "vecmerge"

START, END = 2, 3  # span layout: [label, parent span or None, start, end]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.bound: list[str] = []
        self.absent: list[str] = []
        self._errors = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        try:
            return self._main[-1]
        except IndexError:
            return None

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def note(self, key: str, value) -> None:
        """Record `value` as one member of the distinct set `key`."""
        with self._lock:
            self.distinct.setdefault(key, set()).add(value)

    def _error(self) -> None:
        with self._lock:
            self._errors += 1

    def _hook(self, hook, parent, *hook_args) -> None:
        start = perf_counter()
        hook(self, *hook_args)
        self.spans.append([BOOKKEEPING, parent, start, perf_counter()])

    def _wrap(self, label: str, fn, pre, post):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            if pre is not None:
                tracer._hook(pre, parent, args, kwargs)
            span = [label, parent, perf_counter(), None]
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                if stack.pop() is not span:
                    tracer._error()
            if post is not None:
                tracer._hook(post, parent, args, kwargs, result)
            return result

        return traced

    # -- binding -----------------------------------------------------------

    def bind(self, targets) -> None:
        """Wrap each (label, module, qualname, pre, post) target that exists.

        A target whose module or attribute is missing is listed in
        `absent`, so its metrics read as absent rather than as zero.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for label, module_name, qualname, pre, post in targets:
            owner = sys.modules.get(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.absent.append(label)
                continue
            if inspect.isclass(owner):
                raw = inspect.getattr_static(owner, attr)
                static = isinstance(raw, staticmethod)
                wrapper = self._wrap(label, raw.__func__ if static else raw, pre, post)
                self._rebind(owner, attr, staticmethod(wrapper) if static else wrapper)
            else:
                original = getattr(owner, attr)
                wrapper = self._wrap(label, original, pre, post)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, name, wrapper)
            self.bound.append(label)

    def _rebind(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def unbind(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], int]:
        """Self time per label and the number of span errors.

        Self time is a span's duration minus the union of the intervals
        its child spans cover. Children that overlap in time (spans on
        pool threads) share the covered time in proportion to their
        durations, so the self times of one run add up to its wall time.
        Errors are spans never closed, children reaching outside their
        parent, and stack mismatches.
        """
        errors = self._errors
        children = defaultdict(list)
        closed = []
        for span in self.spans:
            if span[END] is None:
                errors += 1
                continue
            closed.append(span)
            if span[1] is not None:
                children[id(span[1])].append(span)
        share: dict[int, float] = {}
        totals: dict[str, float] = defaultdict(float)
        for span in closed:  # creation order: every parent precedes its children
            start, end = span[START], span[END]
            kids = sorted(children.get(id(span), ()), key=lambda c: c[START])
            covered = summed = 0.0
            reach = start
            for child in kids:
                if child[START] < start or child[END] > end:
                    errors += 1
                lo, hi = max(child[START], start), min(child[END], end)
                summed += max(hi - lo, 0.0)
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            mine = share.get(id(span), 1.0)
            totals[span[0]] += mine * ((end - start) - covered)
            for child in kids:
                share[id(child)] = mine * (covered / summed if summed else 1.0)
        return dict(totals), errors
