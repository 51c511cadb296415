"""In-memory span tracing around calls into the ``ucowod`` layers.

A ``Tracer`` replaces public functions with wrappers *where their callers
look them up* (``from .losses import similarity_loss`` binds the name in the
importing module, so that module's attribute is the one to patch). Each
wrapped call records a span: name, start, end, parent span and run id.
Count-only wrappers bump a counter and record nothing else, for functions
called too often to time (``iou``). ``uninstall`` puts every original back.

Self time is derived afterwards: a span's duration minus the union of its
children's intervals. Spans opened on a worker thread with nothing open on
that thread are parented to the innermost span open on the tracing thread,
so a thread pool inside ``evaluate`` stays under ``evaluate``; concurrent
siblings then overlap, and that overlap is reported separately so that the
self times still add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: int
    thread: int


@dataclass(frozen=True)
class Target:
    """One name to wrap: ``owner`` is a dotted module path, optionally
    followed by a class name (``ucowod.harness.ToyHead``). ``after`` is
    called as ``after(tracer, args, kwargs, result)`` once the call returns,
    outside the span; it may add counts."""

    owner: str
    attr: str
    name: str
    count_only: bool = False
    after: Optional[Callable] = None


def resolve(owner: str):
    """Import the module part of a dotted owner path and walk the rest."""
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ModuleNotFoundError(owner)


class Tracer:
    def __init__(self, run: int = 0) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.run = run
        # values one ``after`` hook leaves for a later one in the same call tree
        self.pending: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    # counting -----------------------------------------------------------
    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # spans ----------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._stacks[threading.get_ident()] = stack
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            home = self._stacks.get(self._home)
            parent = home[-1] if home and threading.get_ident() != self._home else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.run, threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    # patching -------------------------------------------------------------
    def _wrapper(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        if target.count_only:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.add(target.name + ".calls")
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if target.after is not None:
                target.after(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> list[Target]:
        """Wrap every target and return the ones that do not exist. A
        missing name is skipped rather than fatal, so that a program which
        renames or removes a function still runs traced; its layer then
        reads zero and the caller reports it as missing."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        missing = []
        try:
            for target in targets:
                try:
                    owner = resolve(target.owner)
                    original = vars(owner)[target.attr]
                except (ModuleNotFoundError, AttributeError, KeyError):
                    missing.append(target)
                    continue
                self._patched.append((owner, target.attr, original))
                setattr(owner, target.attr, self._wrapper(original, target))
        except BaseException:
            self.uninstall()
            raise
        return missing

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: list[Span]) -> tuple[list[float], float]:
    """Per-span self time, plus the total time by which concurrent sibling
    spans overlap. ``sum(self) - overlap`` equals the summed duration of the
    root spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            children[span.parent].append((max(span.start, parent.start), min(span.end, parent.end)))
    result = []
    overlap = 0.0
    for index, span in enumerate(spans):
        kids = children.get(index, [])
        covered = _union_length(kids)
        overlap += sum(end - start for start, end in kids) - covered
        result.append(span.end - span.start - covered)
    return result, overlap


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """``{span name: {"s": summed self time, "calls": span count}}``."""
    own, _ = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "calls": 0})
    for span, self_s in zip(spans, own):
        totals[span.name]["s"] += self_s
        totals[span.name]["calls"] += 1
    return dict(totals)
