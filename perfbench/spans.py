"""Span recording for the traced benchmark run.

Spans are recorded from outside the program: ``Tracer.install`` replaces
chosen functions and methods of the ``seizurecnn`` modules with wrappers
that open a span around each call, and ``Tracer.uninstall`` puts the
originals back. A function that other modules import by name is replaced
at every import site, because a caller looks the name up in its own
module. Methods are replaced on the class that defines them.

A span holds its name, start and end (``time.perf_counter`` seconds),
the id of the span that was open when it started, the id of the request
it belongs to, the process high-water mark of resident memory at start
and end, and free-form tags. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: int
    start: float
    end: float = 0.0
    rss_start_kb: int = 0
    rss_end_kb: int = 0
    tags: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function or method to trace.

    ``owner`` is the module or class that defines ``attr``. ``tag`` is
    an optional ``(tracer, span, args, kwargs, result)`` callback that
    adds tags once the call has returned.
    """
    owner: object
    attr: str
    name: str
    tag: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.context: dict = {}
        self.state: dict = {}
        self._stack: list[Span] = []
        self._request = 0
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str, **tags) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._request, time.perf_counter(),
                    rss_start_kb=_maxrss_kb(), tags={**self.context, **tags})
        self.spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.rss_end_kb = _maxrss_kb()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed while {popped.name} is open")

    @contextmanager
    def request(self, name: str, **context):
        """One harness operation: a fresh request id, a root span named
        ``bench.<name>``, and context tags copied into every span opened
        inside it."""
        self._request += 1
        saved = self.context
        self.context = {**saved, **context}
        span = self.begin(f"bench.{name}")
        try:
            yield span
        finally:
            self.finish(span)
            self.context = saved

    def wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(span)
            if target.tag is not None:
                target.tag(tracer, span, args, kwargs, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def install(self, targets, modules) -> None:
        """Wrap every target where it is defined and wherever one of
        ``modules`` holds the same object under the same name."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for target in targets:
            original = vars(target.owner)[target.attr]
            wrapper = self.wrap(original, target)
            sites = [target.owner] + [m for m in modules if m is not target.owner
                                      and vars(m).get(target.attr) is original]
            for owner in sites:
                self._patches.append((owner, target.attr, original))
                setattr(owner, target.attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")


def wrapped_sites(targets, modules) -> list[str]:
    """Every place where a target is currently wrapped; empty when the
    program runs on its original functions."""
    wrapped = []
    for target in targets:
        sites = [target.owner] + [m for m in modules if m is not target.owner]
        for owner in sites:
            value = vars(owner).get(target.attr)
            if hasattr(value, "__perfbench_original__"):
                wrapped.append(f"{getattr(owner, '__name__', owner)}.{target.attr}")
    return wrapped


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its direct children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def self_rss_growth_kb(spans: list[Span]) -> dict[int, int]:
    """Span id -> high-water-mark growth during the span, minus the
    growth already attributed to its direct children."""
    out = {s.id: s.rss_end_kb - s.rss_start_kb for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.rss_end_kb - s.rss_start_kb
    return out


#: candidate tail percentiles, in tenths of a percent, highest first
TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) for the highest percentile of
    ``TAIL_PERMILLE`` that has at least ten samples beyond it.

    The value is the order statistic with at least that many samples
    above it. With too few samples for any of them the maximum is
    returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    for permille in TAIL_PERMILLE:
        beyond = n - -(-n * permille // 1000)  # n - ceil(n * p)
        if beyond >= TAIL_BEYOND:
            return ordered[n - beyond - 1], permille / 10, n
    return ordered[-1], 100.0, n
