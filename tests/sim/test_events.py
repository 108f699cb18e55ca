"""Event queue tests: ordering, clock, causality."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventQueue


def test_pops_in_time_order():
    q = EventQueue()
    q.schedule_at(5.0, "c")
    q.schedule_at(1.0, "a")
    q.schedule_at(3.0, "b")
    assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    q = EventQueue()
    for name in "abc":
        q.schedule_at(2.0, name)
    assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]


def test_clock_advances_monotonically():
    q = EventQueue()
    q.schedule_at(4.0, 1)
    q.schedule_at(2.0, 2)
    q.pop()
    assert q.now == 2.0
    q.pop()
    assert q.now == 4.0


def test_schedule_at_absolute():
    q = EventQueue()
    q.schedule_at(7.5, "x")
    ev = q.pop()
    assert ev.time == 7.5 and q.now == 7.5


def test_cannot_schedule_into_past():
    q = EventQueue()
    q.schedule_at(5.0, 1)
    q.pop()
    with pytest.raises(ValueError):
        q.schedule_at(3.0, 2)


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        EventQueue().pop()
    with pytest.raises(IndexError):
        EventQueue().peek()


def test_len_and_empty():
    q = EventQueue()
    assert q.empty and len(q) == 0
    q.schedule_at(1.0, None)
    assert not q.empty and len(q) == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=60))
def test_property_pop_sequence_sorted(delays):
    q = EventQueue()
    for d in delays:
        q.schedule_at(d, d)
    popped = [q.pop().time for _ in range(len(delays))]
    assert popped == sorted(popped)
    assert q.now == max(popped)


def test_interleaved_schedule_pop():
    """Events scheduled from handlers land in correct global order."""
    q = EventQueue()
    q.schedule_at(1.0, "a")
    q.schedule_at(10.0, "z")
    log = []
    while not q.empty:
        ev = q.pop()
        log.append((ev.time, ev.payload))
        if ev.payload == "a":
            q.schedule_at(q.now + 2.0, "a2")  # at t=3, before z
    assert [p for _, p in log] == ["a", "a2", "z"]


class _Read:
    reads = True

    def __init__(self, name):
        self.name = name


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 50, allow_nan=False), st.booleans(), st.booleans()),
        min_size=1,
        max_size=40,
    ),
    st.integers(0, 12),
)
def test_reads_after_matches_a_scan_of_the_heap(steps, n):
    """The read-event index answers what sorting the heap's read events
    would, through interleaved pops and a pickle round trip."""
    import pickle

    q = EventQueue()
    for i, (delay, reads, pop) in enumerate(steps):
        q.schedule_at(q.now + delay, _Read(i) if reads else i)
        if pop:
            q.pop()
        if i == len(steps) // 2:
            q = pickle.loads(pickle.dumps(q))
        scan = sorted(ev for ev in q._heap if isinstance(ev.payload, _Read))
        assert [p.name for p in q.reads_after(n)] == [ev.payload.name for ev in scan[n:]]
