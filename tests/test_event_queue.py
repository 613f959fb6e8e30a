"""Scheduler edge cases on the engine's one event queue (a binary heap,
``repro.sim.equeue``): pop order, stale-entry handling and the
simulated clock are digest-visible, so each edge case is pinned here,
and a property test checks random op streams against the ordering
contract itself (and, when the extension is built, against the
compiled twin).
"""

import os

import pytest

from repro.sim import Simulator, Timeout
from repro.sim.core import AnyOf
from repro.sim.equeue import _COMPACT_MIN_CANCELLED


# ---------------------------------------------------------------------------
# empty-queue peek_time
# ---------------------------------------------------------------------------


def test_empty_queue_peek_time():
    sim = Simulator()
    q = sim._q
    assert q.peek_time() is None
    assert q.pop_min() is None
    assert len(q) == 0
    # Still empty (and still None) after a push/pop cycle.
    Timeout(sim, 5.0)
    assert q.peek_time() == 5.0
    sim.run()
    assert q.peek_time() is None
    assert q.pop_min() is None


# ---------------------------------------------------------------------------
# equal-timestamp FIFO ordering
# ---------------------------------------------------------------------------


def test_equal_timestamp_fifo():
    sim = Simulator()
    fired = []
    for i in range(50):
        Timeout(sim, 10.0).add_callback(lambda _e, i=i: fired.append(i))
    sim.run()
    assert fired == list(range(50))


def test_fifo_across_interleaved_deadlines():
    # Interleave schedule order across many distinct deadlines: the pop
    # order must still be global (when, seq) order.
    sim = Simulator()
    fired = []
    lanes = [3.0, 3.5, 100.25, 7.0, 100.25, 0.5, 3.0]
    expect = []
    for i, delay in enumerate(lanes * 40):
        Timeout(sim, delay).add_callback(
            lambda _e, i=i, d=delay: fired.append((d, i)))
        expect.append((delay, i))
    expect.sort()  # (when, schedule order) — FIFO within equal deadlines
    sim.run()
    assert fired == expect


# ---------------------------------------------------------------------------
# run(until) boundary with stale/abandoned head entries
# ---------------------------------------------------------------------------


def test_run_until_with_abandoned_head():
    sim = Simulator()
    t_stale = Timeout(sim, 5.0)
    t_live = Timeout(sim, 30.0)
    fired = []
    t_live.add_callback(lambda _e: fired.append(sim.now))
    assert t_stale.cancel()
    # The stale head is <= until: it is discarded (advancing the clock
    # transiently) but never dispatched; the clock lands exactly on until.
    sim.run(until=10.0)
    assert fired == []
    assert sim.now == 10.0
    assert sim.pending_events == 1  # the live far timeout survived
    sim.run(until=40.0)
    assert fired == [30.0]
    assert sim.now == 40.0


def test_run_until_leaves_live_head_past_boundary():
    sim = Simulator()
    fired = []
    Timeout(sim, 50.0).add_callback(lambda _e: fired.append(sim.now))
    sim.run(until=49.999)
    assert fired == [] and sim.now == 49.999
    sim.run(until=50.0)
    assert fired == [50.0] and sim.now == 50.0


# ---------------------------------------------------------------------------
# interleaved abandon-then-reschedule
# ---------------------------------------------------------------------------


def test_abandon_then_reschedule_interleaved():
    """A process that repeatedly races a near winner against a far loser:
    every iteration cancels the far timeout and schedules fresh ones, so
    stale entries interleave with live ones throughout the queue."""
    sim = Simulator()
    won = []

    def racer():
        for i in range(3 * _COMPACT_MIN_CANCELLED):  # cross compaction
            got = yield AnyOf(sim, [Timeout(sim, 1.0, value="near"),
                                    Timeout(sim, 1000.0, value="far")])
            won.append(got[1])

    sim.spawn(racer())
    sim.run()
    assert won == ["near"] * (3 * _COMPACT_MIN_CANCELLED)
    assert sim.pending_events == 0  # full drain retires every stale entry


def test_cancel_reschedule_same_horizon():
    sim = Simulator()
    fired = []
    stale = [Timeout(sim, 10.0) for _ in range(2 * _COMPACT_MIN_CANCELLED)]
    for t in stale:
        assert t.cancel()
    # Reschedule live work at the same deadline as the abandoned batch.
    for i in range(5):
        Timeout(sim, 10.0).add_callback(lambda _e, i=i: fired.append(i))
    sim.run()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.now == 10.0


def test_final_clock_identical_after_cancel_storm():
    """Full-drain final clock is digest-visible: stale entries are
    retired lazily, so the drain ends on the last far deadline that
    survived the last compaction, not on the last live event."""
    sim = Simulator()
    log = []
    n = 200

    def storm():
        for i in range(n):
            got = yield AnyOf(sim, [Timeout(sim, 0.5, value=i),
                                    Timeout(sim, 500.0 + i, value=-i)])
            log.append((sim.now, got[1]))

    sim.spawn(storm())
    sim.run()
    assert log == [(0.5 * (i + 1), i) for i in range(n)]
    # Compaction runs each time the cancelled far timers reach
    # _COMPACT_MIN_CANCELLED (they then make up nearly all the queue),
    # so the last n % 64 of them are left to pop.  The clock ends on
    # the last one: scheduled at 0.5 * (n - 1), due 500 + (n - 1) later.
    assert n % _COMPACT_MIN_CANCELLED > 0
    assert sim.now == 0.5 * (n - 1) + 500.0 + (n - 1)
    assert sim.pending_events == 0


# ---------------------------------------------------------------------------
# property test: random op streams against the ordering contract
# ---------------------------------------------------------------------------


def _drive(compiled_leg, ops):
    """Replay one random op stream on one compiled leg and return
    everything digest-visible — the fire/cancel log, the final clock,
    and the scheduled-event counter — plus each timeout's deadline."""
    saved = os.environ.get("REPRO_COMPILED")
    os.environ["REPRO_COMPILED"] = compiled_leg
    try:
        sim = Simulator()
        log = []
        handles = []
        deadlines = []
        for op in ops:
            if op[0] == "push":
                i = len(handles)
                deadlines.append(sim.now + op[1])
                t = Timeout(sim, op[1])
                cb = lambda _e, i=i: log.append(("fire", i, sim.now))  # noqa: E731
                t.add_callback(cb)
                handles.append((t, cb))
            elif op[0] == "cancel":
                if handles:
                    idx = op[1] % len(handles)
                    t, cb = handles[idx]
                    if t._ok is None:
                        # Detach first, the way the engine abandons a
                        # timeout (cancel refuses with live callbacks).
                        t.remove_callback(cb)
                        log.append(("cancel", idx, t.cancel()))
                    else:
                        log.append(("cancel", idx, False))
            else:  # ("run", dt): bounded drain, stale heads included
                sim.run(until=sim.now + op[1])
                log.append(("clock", sim.now))
        sim.run()
        return (log, sim.now, sim.events_scheduled), deadlines
    finally:
        if saved is None:
            os.environ.pop("REPRO_COMPILED", None)
        else:
            os.environ["REPRO_COMPILED"] = saved


_hyp = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_delay = st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                   allow_infinity=False)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _delay),
        st.tuples(st.just("cancel"), st.integers(min_value=0,
                                                 max_value=10 ** 6)),
        st.tuples(st.just("run"), _delay),
    ),
    max_size=50,
)


@settings(max_examples=30, deadline=None)
@given(ops=_ops)
def test_random_streams_identical_across_impls(ops):
    """Random push/cancel/run(until) streams obey the ordering contract:
    every timeout not cancelled fires exactly once, at its deadline, in
    non-decreasing time and in push order at equal times.  When the
    extension is built, the compiled twin produces the identical trace,
    final clock and event counter."""
    from repro.sim.compiled import compiled_available

    trace, deadlines = _drive("off", ops)
    log = trace[0]
    fired = [(e[2], e[1]) for e in log if e[0] == "fire"]
    cancelled = {e[1] for e in log if e[0] == "cancel" and e[2]}
    assert fired == sorted(fired)  # (time, push order) order
    assert [i for _w, i in fired] == sorted(
        set(range(len(deadlines))) - cancelled,
        key=lambda i: (deadlines[i], i))
    for when, i in fired:
        assert when == deadlines[i]
    if compiled_available():
        assert _drive("on", ops) == (trace, deadlines)
