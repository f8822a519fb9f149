"""Timing, failure bookkeeping and statistics shared by the workloads."""

from __future__ import annotations

import os
import resource
import statistics
import time
from contextlib import contextmanager
from random import Random
from typing import Any, Callable, Dict, Generic, Iterator, List, Optional, Sequence, TypeVar

from repro.errors import ReproError

T = TypeVar("T")

#: Returned by :meth:`Recorder.call` when the call raised.
FAILED: Any = object()


class Bag(Generic[T]):
    """Seeded draws without replacement from a refilled bag of ``items``.

    Every full bag issues each item exactly as often as it is listed, so
    a run's mix has the stated shares whatever the seed; the seed picks
    the order.
    """

    def __init__(self, rng: Random, items: Sequence[T]):
        self._rng = rng
        self._items = list(items)
        self._bag: List[T] = []

    def next(self) -> T:
        if not self._bag:
            self._bag = list(self._items)
            self._rng.shuffle(self._bag)
        return self._bag.pop()


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: The reference work's time, in ms, at which scaled figures are stated:
#: close to its median on the host of ``BASELINE.json`` (0.6 to 0.7 ms).
REFERENCE_MS = 0.70


def reference_work() -> int:
    """A fixed piece of pure-Python work shaped like the program's own:
    small objects, dict and list traffic, attribute access, a sort."""

    class Node:
        __slots__ = ("key", "children")

        def __init__(self, key: int) -> None:
            self.key = key
            self.children: List["Node"] = []

    nodes = [Node((index * 7919) % 1009) for index in range(600)]
    for index in range(1, len(nodes)):
        nodes[(index - 1) // 4].children.append(nodes[index])
    by_key: Dict[int, int] = {}
    for node in nodes:
        by_key[node.key] = by_key.get(node.key, 0) + len(node.children)
    return sum(key * count for key, count in sorted(by_key.items()))


def _median_ms(repeats: int) -> float:
    """Median time (ms) of ``repeats`` runs of :func:`reference_work`."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1000.0


def reference_ms(repeats: int = 5, every_cpu: bool = False) -> float:
    """The host's speed now: median time (ms) of ``repeats`` runs of
    :func:`reference_work` on the CPU this process runs on.

    The vCPUs of a shared host change speed independently, so with
    ``every_cpu`` (for a workload whose work runs in other processes too)
    it is the mean of that median over every CPU the process may use,
    moving the process to each in turn and then back to all of them.
    """
    if not every_cpu:
        return _median_ms(repeats)
    allowed = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            speeds.append(_median_ms(repeats))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(speeds)


def interquartile_mean(values: Sequence[float]) -> float:
    """The mean of the middle half of ``values`` (all of them when < 4).

    Unlike the median it moves smoothly with the share of samples taken
    in the host's fast and slow phases, and unlike the mean it ignores
    the odd outlier (a collection pause, a descheduled CPU).
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    quarter = len(ordered) // 4
    middle = ordered[quarter: len(ordered) - quarter]
    return sum(middle) / len(middle)


def tail_mean(values: Sequence[float], share: float = 0.1) -> float:
    """The mean of the slowest ``share`` of ``values`` (at least one)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    tail = ordered[-max(1, round(share * len(ordered))):]
    return sum(tail) / len(tail)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Latency samples per call kind, plus failure and oracle bookkeeping.

    ``attempted`` counts every client call and every restart; a call that
    raises a :class:`~repro.errors.ReproError` or returns a wrong or
    incomplete answer counts as ``failed``.  Problems found by the
    end-of-run oracles are listed in ``problems`` and also counted failed.

    Each latency is kept as measured (``samples``) and scaled to the
    reference speed (``scaled``): multiplied by :data:`REFERENCE_MS` over
    the host's speed measured last (:meth:`rescale`).
    """

    #: Seconds between two measurements of the host's speed in the loop.
    RESCALE_EVERY_S = 0.25

    def __init__(self, tracer: Any = None, every_cpu: bool = False) -> None:
        self.tracer = tracer
        #: Measure the host's speed on every CPU (see :func:`reference_ms`).
        self.every_cpu = every_cpu
        self.samples: Dict[str, List[float]] = {}
        self.scaled: Dict[str, List[float]] = {}
        #: Every measurement of the host's speed (ms of reference work).
        self.references: List[float] = []
        self.scale = 1.0
        self.rescaled_at = float("-inf")
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: Dict[str, float] = {}
        #: Seconds the loop spent in inline oracle checks (not client time).
        self.oracle_s = 0.0

    def call(self, kind: str, func: Callable[[], T]) -> T:
        """Time one client call; a typed failure is counted, not raised,
        and the call returns :data:`FAILED` instead."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            if self.tracer is None:
                result = func()
            else:
                with self.tracer.span("bench.call"):
                    result = func()
        except ReproError as error:
            self.fail(f"{kind} raised {type(error).__name__}: {error}")
            return FAILED
        elapsed = time.perf_counter() - started
        self.samples.setdefault(kind, []).append(elapsed)
        self.scaled.setdefault(kind, []).append(elapsed * self.scale)
        return result

    def rescale(self, repeats: int = 5) -> float:
        """Measure the host's speed now (``repeats`` runs of the reference
        work); later samples are scaled by it.  Returns the new scale factor."""
        self.references.append(reference_ms(repeats, every_cpu=self.every_cpu))
        self.scale = REFERENCE_MS / self.references[-1]
        self.rescaled_at = time.perf_counter()
        return self.scale

    def rescale_if_due(self) -> None:
        """In the loop: :meth:`rescale` every :data:`RESCALE_EVERY_S`,
        excluded from the run clock like an inline check."""
        if time.perf_counter() - self.rescaled_at >= self.RESCALE_EVERY_S:
            with self.oracle("bench.reference"):
                self.rescale()

    def fail(self, problem: str) -> None:
        """Count one wrong answer or failed call."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    @contextmanager
    def oracle(self, name: str = "bench.oracle") -> Iterator[None]:
        """Mark an inline correctness check (excluded from the run clock)."""
        started = time.perf_counter()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.paused(name):
                    yield
        finally:
            self.oracle_s += time.perf_counter() - started

    def summary(self, kind: Optional[str] = None, scaled: bool = True) -> Dict[str, float]:
        """Count, p50, p90, mean of the slowest tenth (ms) and calls per
        busy second for ``kind`` (or all), scaled or as measured."""
        by_kind = self.scaled if scaled else self.samples
        values = [v for vs in by_kind.values() for v in vs] if kind is None else by_kind.get(kind, [])
        if not values:
            return {"n": 0}
        return {
            "n": len(values),
            "p50_ms": quantile(values, 0.5) * 1000.0,
            "p90_ms": quantile(values, 0.9) * 1000.0,
            "tail_ms": tail_mean(values) * 1000.0,
            "per_s": len(values) / sum(values),
        }
