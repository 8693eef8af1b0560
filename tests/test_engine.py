import heapq

import pytest
from hypothesis import given, settings, strategies as st

from microburst.engine import Engine, SchedulingInPast


def test_schedule_and_fire_order():
    eng = Engine()
    fired = []
    eng.schedule(100, lambda t, a: fired.append((t, "a")))
    eng.schedule(50, lambda t, a: fired.append((t, "b")))
    eng.schedule(100, lambda t, a: fired.append((t, "c")))
    eng.run_until(1_000_000)
    assert fired == [(50, "b"), (100, "a"), (100, "c")]


def test_equal_times_dispatch_in_insertion_order():
    eng = Engine()
    fired = []
    for name in "abcdef":
        eng.schedule(10, lambda t, a, n=name: fired.append(n))
    eng.run_until(10)
    assert fired == list("abcdef")


def test_schedule_at_now_fires_after_pending_at_now():
    eng = Engine()
    fired = []

    def first(t, a):
        fired.append("first")
        eng.schedule(t, lambda t2, a2: fired.append("child"))

    eng.schedule(5, first)
    eng.schedule(5, lambda t, a: fired.append("second"))
    eng.run_until(5)
    assert fired == ["first", "second", "child"]


def test_schedule_in_past_raises():
    eng = Engine()
    eng.schedule(10, lambda t, a: None)
    eng.run_until(10)
    with pytest.raises(SchedulingInPast):
        eng.schedule(9, lambda t, a: None)


def test_empty_run_returns_zero_counts():
    eng = Engine()
    summary = eng.run_until(1_000_000)
    assert summary.events_dispatched == 0
    assert summary.packets_sent == 0
    assert eng.now == 1_000_000


def test_run_until_stops_at_horizon():
    eng = Engine()
    fired = []
    eng.schedule(10, lambda t, a: fired.append(t))
    eng.schedule(20, lambda t, a: fired.append(t))
    eng.run_until(15)
    assert fired == [10]
    eng.run_until(25)
    assert fired == [10, 20]


def test_cancel_pending_timer():
    eng = Engine()
    fired = []
    h = eng.schedule(10, lambda t, a: fired.append(t))
    assert eng.cancel(h) is True
    eng.run_until(100)
    assert fired == []


def test_cancel_fired_returns_false():
    eng = Engine()
    h = eng.schedule(10, lambda t, a: None)
    eng.run_until(100)
    assert eng.cancel(h) is False


def test_cancel_twice_second_false():
    eng = Engine()
    h = eng.schedule(10, lambda t, a: None)
    assert eng.cancel(h) is True
    assert eng.cancel(h) is False


def test_dispatch_is_total_order():
    eng = Engine()
    order = []
    eng.schedule(30, lambda t, a: order.append((t, 0)))
    eng.schedule(10, lambda t, a: order.append((t, 1)))
    eng.schedule(10, lambda t, a: order.append((t, 2)))
    eng.schedule(20, lambda t, a: order.append((t, 3)))
    eng.run_until(100)
    times = [t for t, _ in order]
    assert times == sorted(times)
    assert order[0][1] == 1 and order[1][1] == 2


def test_pre_run_event_beats_same_time_event_scheduled_in_loop():
    eng = Engine()
    fired = []

    def early(t, a):
        fired.append("early")
        eng.schedule(10, lambda t2, a2: fired.append("in-loop"))

    eng.schedule(10, lambda t, a: fired.append("pre-run"))
    eng.schedule(5, early)
    eng.run_until(100)
    assert fired == ["early", "pre-run", "in-loop"]


def test_event_scheduled_between_run_until_calls():
    eng = Engine()
    fired = []
    eng.schedule(10, lambda t, a: fired.append((t, "a")))
    eng.schedule(30, lambda t, a: fired.append((t, "b")))
    eng.run_until(15)
    eng.schedule(30, lambda t, a: fired.append((t, "d")))
    eng.schedule(20, lambda t, a: fired.append((t, "c")))
    eng.run_until(15)
    assert fired == [(10, "a")]
    eng.run_until(100)
    assert fired == [(10, "a"), (20, "c"), (30, "b"), (30, "d")]
    assert eng.stats.events_dispatched == 4


class HeapOnlyEngine(Engine):
    """Reference: every pending event in one heap, popped in (time, seq)
    order."""

    def run_until(self, t_end_ns):
        heap = self._heap
        stats = self.stats
        n = 0
        while heap and heap[0][0] <= t_end_ns:
            entry = heapq.heappop(heap)
            t, _, fn, arg = entry
            if fn is None:
                continue
            entry[2] = None
            self.now = t
            n += 1
            fn(t, arg)
        stats.events_dispatched += n
        self.last_dispatch_ns = self.now
        if t_end_ns > self.now:
            self.now = t_end_ns
        return stats


# ("schedule", delay from now) or ("cancel", index into the handles made)
_ACTION = st.one_of(st.tuples(st.just("schedule"), st.integers(0, 40)),
                    st.tuples(st.just("cancel"), st.integers(0, 1000)))

_PROGRAM = st.fixed_dictionaries({
    "pre_run": st.lists(st.integers(0, 100), max_size=30),
    # the actions the event labelled k performs when it fires
    "reactions": st.lists(st.lists(_ACTION, max_size=3), max_size=80),
    # (horizon increment, actions taken after that run_until returns)
    "steps": st.lists(st.tuples(st.integers(0, 60),
                                st.lists(_ACTION, max_size=4)),
                      min_size=1, max_size=5),
})


def _replay(engine_cls, program):
    """Run one program; returns its log of dispatches and cancel results."""
    eng = engine_cls()
    handles = []
    log = []

    def act(action):
        kind, value = action
        if kind == "schedule":
            label = len(handles)
            handles.append(eng.schedule(eng.now + value, fire, label))
        elif handles:
            index = value % len(handles)
            log.append(("cancel", index, eng.cancel(handles[index])))

    def fire(t, label):
        log.append(("fire", t, label))
        if label < len(program["reactions"]):
            for action in program["reactions"][label]:
                act(action)

    for t in program["pre_run"]:
        handles.append(eng.schedule(t, fire, len(handles)))
    horizon = 0
    for increment, actions in program["steps"]:
        horizon += increment
        eng.run_until(horizon)
        log.append(("now", eng.now, eng.last_dispatch_ns))
        for action in actions:
            act(action)
    eng.run_until(1 << 40)
    return log, eng.stats.events_dispatched


@settings(max_examples=200)
@given(_PROGRAM)
def test_backlog_merge_matches_heap_only_engine(program):
    assert _replay(Engine, program) == _replay(HeapOnlyEngine, program)
