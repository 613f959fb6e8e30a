"""The simulation engine's event queue.

The scheduler data structure is the engine-side bottleneck once dispatch
is inlined (see ``docs/PERFORMANCE.md``): every scheduled event pays one
push and one pop.  :class:`HeapEventQueue` is a binary heap
(``heapq``): O(log n) push/pop with C-implemented sift loops, robust
under any timestamp distribution.  When the compiled leg is active
(``REPRO_COMPILED``, see :mod:`repro.sim.compiled`) :func:`make_queue`
returns the extension's twin, ``CHeapQueue``, instead — same pop order,
same digest.

Determinism contract (pinned by ``tests/test_golden_digest.py`` and
``tests/test_event_queue.py``):

* pop order is strict ``(when, seq)`` order — equal-timestamp events
  fire in FIFO scheduling order;
* abandoned (cancelled) entries are deleted *lazily*: they stay queued,
  are skipped when popped, and are bulk-compacted once
  ``_COMPACT_MIN_CANCELLED`` cancelled entries make up at least half
  the queue, at the same logical instants on both legs, so the
  simulated clock — which stale pops advance — stays byte-identical
  per seed.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, List, Optional, Tuple

__all__ = [
    "HeapEventQueue",
    "make_queue",
    "selected_queue_kind",
    "_COMPACT_MIN_CANCELLED",
]

# Entry tuples are (when, seq, event, value).  ``seq`` is unique, so
# comparisons never reach the event.
Entry = Tuple[float, int, Any, Any]

# Lazy-deletion compaction trigger: once at least this many cancelled
# entries sit in the queue AND they make up at least half of it, the
# heap is filtered in place.  High enough that small simulations never
# compact (preserving their exact final-clock behavior), low enough that
# AnyOf-heavy workloads stay O(live events).  Changing this changes
# which stale entries survive to advance the clock when popped — i.e.
# it is digest-visible.
_COMPACT_MIN_CANCELLED = 64


def selected_queue_kind() -> str:
    """The event queue of this build: always ``"heap"``.  Exists only so
    the benchmark's provenance line, which records the engine leg of
    every run, keeps importing it."""
    return "heap"


def make_queue():
    """A fresh event queue: the compiled ``CHeapQueue`` when the
    compiled leg is active, else :class:`HeapEventQueue`."""
    from .compiled import active_kernel  # lazy: avoids an import cycle
    kern = active_kernel()
    return kern.CHeapQueue() if kern is not None else HeapEventQueue()


class HeapEventQueue:
    """Binary-heap scheduler (``heapq``), with lazy deletion + in-place
    compaction.  O(log n) push/pop under any timestamp distribution.

    The queue owns the scheduling sequence number: ``push(when, event,
    value)`` assigns the next ``seq`` internally, so every scheduling
    path in the engine funnels through this one entry point.
    """

    __slots__ = ("seq", "_heap", "_cancelled")

    def __init__(self):
        self.seq = 0
        self._heap: List[Entry] = []
        self._cancelled = 0  # cancelled entries still sitting in the heap

    def push(self, when: float, event: Any, value: Any) -> None:
        self.seq = seq = self.seq + 1
        heappush(self._heap, (when, seq, event, value))

    def pop_min(self) -> Optional[Entry]:
        """Remove and return the least ``(when, seq)`` entry (stale or
        live), or ``None`` when empty."""
        if self._heap:
            return heappop(self._heap)
        return None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the least entry (stale entries included), or
        ``None`` when empty."""
        if self._heap:
            return self._heap[0][0]
        return None

    def abandon(self) -> None:
        """Note that one queued entry was cancelled; may trigger in-place
        compaction of stale entries."""
        self._cancelled += 1
        heap = self._heap
        if (self._cancelled >= _COMPACT_MIN_CANCELLED
                and 2 * self._cancelled >= len(heap)):
            # Filter in place: drain loops hold a local alias to the
            # list object, so its identity must survive compaction.
            heap[:] = [entry for entry in heap if entry[2]._ok is None]
            heapify(heap)
            self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap)

    # -- inlined drain loops ----------------------------------------------

    def drain_all(self, sim) -> None:
        """Pop and fire every entry; stale entries advance the clock and
        are skipped, exactly like :meth:`Simulator.step`."""
        queue = self._heap
        pop = heappop
        while queue:
            when, _seq, event, value = pop(queue)
            sim._now = when
            if event._ok is None:
                event._ok = True
                event._value = value
                cb0 = event._cb0
                callbacks = event._callbacks
                if cb0 is not None:
                    event._cb0 = None
                    event._callbacks = None
                    cb0(event)
                    if callbacks:
                        for fn in callbacks:
                            fn(event)
                elif callbacks:
                    event._callbacks = None
                    for fn in callbacks:
                        fn(event)

    def drain_until(self, sim, until: float) -> None:
        """Like :meth:`drain_all` but leave any entry past ``until``
        queued; the clock never overruns ``until``."""
        queue = self._heap
        pop = heappop
        while queue:
            when = queue[0][0]
            if when > until:
                return
            _w, _s, event, value = pop(queue)
            sim._now = when
            if event._ok is None:
                event._ok = True
                event._value = value
                cb0 = event._cb0
                callbacks = event._callbacks
                event._cb0 = None
                event._callbacks = None
                if cb0 is not None:
                    cb0(event)
                if callbacks:
                    for fn in callbacks:
                        fn(event)
