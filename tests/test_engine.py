from heapq import heappop, heappush

import pytest
from hypothesis import given, settings, strategies as st

from microburst import sim
from microburst.engine import HOT_WINDOW_NS, Engine, SchedulingInPast


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
    eng.run_until(1_000_000)
    assert eng.events_dispatched == 0
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
    assert eng.events_dispatched == 4


def test_last_dispatch_is_kept_by_a_call_that_dispatches_nothing():
    eng = Engine()
    eng.run_until(2)
    assert (eng.last_dispatch_ns, eng.events_dispatched) == (0, 0)
    eng.schedule(3, lambda t, a: None)
    eng.run_until(5)
    eng.run_until(10)
    assert (eng.last_dispatch_ns, eng.events_dispatched, eng.now) == (3, 1, 10)


# ("schedule", delay from the firing) or ("cancel", index into the handles
# of the events scheduled so far)
_ACTION = st.one_of(st.tuples(st.just("schedule"), st.integers(0, 40)),
                    st.tuples(st.just("cancel"), st.integers(0, 1000)))

_PROGRAM = st.fixed_dictionaries({
    "starts": st.lists(st.integers(0, 100), max_size=30),
    # the actions the start or event labelled k performs when it fires:
    # starts take the first labels, in time order
    "reactions": st.lists(st.lists(_ACTION, max_size=3), max_size=80),
    "horizon": st.one_of(st.integers(0, 150), st.just(1 << 40)),
})


class _Raised(Exception):
    """Raised by the handlers a program names under ``raises``."""


def _replay(program, run, engine=Engine, full=False):
    """Run one program on a fresh ``engine()``, handing its starts to
    ``run(engine, starts, horizon)``; returns its log of dispatches and
    cancel results, the engine's final time and the dispatch count with the
    starts called, and if ``full`` also the time of its last dispatch and the
    sorted labels of the events still pending."""
    eng = engine()
    starts = sorted(program["starts"])
    handles = []
    log = []

    def fire(t, label):
        log.append(("fire", t, label))
        if label < len(program["reactions"]):
            for kind, value in program["reactions"][label]:
                if kind == "schedule":
                    child = len(starts) + len(handles)
                    handles.append(eng.schedule(t + value, fire, child))
                elif handles:
                    index = value % len(handles)
                    log.append(("cancel", index, eng.cancel(handles[index])))
        if label in program.get("raises", ()):
            raise _Raised(label)

    called = run(eng, [(t, fire, label) for label, t in enumerate(starts)],
                 program["horizon"])
    result = log, eng.now, eng.events_dispatched + called
    if full:
        result += (eng.last_dispatch_ns,
                   sorted(label for _, label in eng.pending()))
    return result


def _scheduled_up_front(engine, starts, horizon):
    """Reference: every start an event scheduled before one run_until."""
    for t, fn, arg in starts:
        engine.schedule(t, fn, arg)
    engine.run_until(horizon)
    return 0


@settings(max_examples=200)
@given(_PROGRAM)
def test_start_loop_matches_starts_scheduled_up_front(program):
    assert (_replay(program, sim._run_loop)
            == _replay(program, _scheduled_up_front))


class _OneHeapEngine:
    """The reference for ``Engine``: every event in one heap, popped before
    its handler runs."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0
        self.last_dispatch_ns = 0
        self.events_dispatched = 0

    def schedule(self, fire_time_ns, fn, arg=None):
        if fire_time_ns < self.now:
            raise SchedulingInPast(f"fire_time {fire_time_ns} < now {self.now}")
        entry = [fire_time_ns, self._seq, fn, arg]
        self._seq += 1
        heappush(self._heap, entry)
        return entry

    def cancel(self, handle):
        if handle[2] is None:
            return False
        handle[2] = None
        return True

    def pending(self):
        return [(entry[2], entry[3]) for entry in self._heap
                if entry[2] is not None]

    def run_until(self, t_end_ns):
        heap = self._heap
        n = 0
        try:
            while heap and heap[0][0] <= t_end_ns:
                entry = heappop(heap)
                t, _, fn, arg = entry
                if fn is None:
                    continue
                entry[2] = None
                self.now = t
                n += 1
                fn(t, arg)
        finally:
            if n:
                self.events_dispatched += n
                self.last_dispatch_ns = self.now
        if t_end_ns > self.now:
            self.now = t_end_ns


def _resumed(call, *args):
    try:
        call(*args)
    except _Raised:
        pass


def _run_loop_past_raises(engine, starts, horizon):
    """``sim._run_loop``, carried on past every handler or start that
    raises, so a start can schedule while a raising handler's entry is
    still in the engine."""
    called = 0
    for t, fn, arg in starts:
        if t > horizon:
            break
        _resumed(engine.run_until, t - 1)
        _resumed(fn, t, arg)
        called += 1
    _resumed(engine.run_until, horizon)
    return called


# delays that keep an event in the hot heap and ones that send it to the far
# heap; starts and delays drawn from a few values at 0 and around the window
# make exact time ties between the heaps common
_HOT = HOT_WINDOW_NS
_DELAY = st.sampled_from((0, 1, 2, 3, 5, _HOT - 3, _HOT - 1, _HOT, _HOT + 2,
                          _HOT + 3, 2 * _HOT, 3 * _HOT - 1))
_TWO_HEAP_ACTION = st.one_of(st.tuples(st.just("schedule"), _DELAY),
                             st.tuples(st.just("cancel"), st.integers(0, 1000)))

_TWO_HEAP_PROGRAM = st.fixed_dictionaries({
    "starts": st.lists(st.sampled_from((0, 1, 2, 3, _HOT - 2, _HOT, _HOT + 1)),
                       min_size=1, max_size=30),
    "reactions": st.lists(st.lists(_TWO_HEAP_ACTION, min_size=1, max_size=3),
                          min_size=10, max_size=40),
    "raises": st.sets(st.integers(0, 80), max_size=3),
    "horizon": st.one_of(st.integers(0, 20),
                         st.integers(_HOT - 10, 2 * _HOT + 10),
                         st.just(1 << 40)),
})


@settings(max_examples=150)
@given(_TWO_HEAP_PROGRAM)
def test_two_heaps_dispatch_as_one_heap(program):
    got = _replay(program, _run_loop_past_raises, Engine, full=True)
    assert got == _replay(program, _run_loop_past_raises, _OneHeapEngine,
                          full=True)
    # every handler that ran counts, a raising one too
    log, _, dispatched = got[:3]
    assert dispatched == sum(entry[0] == "fire" for entry in log)


def test_a_raising_hot_handler_leaves_the_next_run_in_order():
    eng = Engine()
    fired = []

    def record(t, name):
        fired.append((t, name))

    def far(t, name):
        record(t, name)
        eng.schedule(t + 5, record, "hot child of far")

    def boom(t, name):
        record(t, name)
        raise RuntimeError(name)

    eng.schedule(_HOT + 10, far, "far")
    eng.run_until(1_000)
    eng.schedule(1_000, boom, "raises")     # schedules no hot event
    eng.schedule(_HOT + 20, record, "hot")
    assert [entry[3] for entry in eng._far] == ["far"]
    with pytest.raises(RuntimeError):
        eng.run_until(1 << 40)
    # the raising handler counts, and time stays at it
    assert (eng.events_dispatched, eng.last_dispatch_ns, eng.now) == (
        1, 1_000, 1_000)
    eng.run_until(1 << 40)
    assert fired == [(1_000, "raises"), (_HOT + 10, "far"),
                     (_HOT + 15, "hot child of far"), (_HOT + 20, "hot")]
    assert eng.pending() == []
    assert eng.events_dispatched == 4
