import pytest
from hypothesis import given, settings, strategies as st

from microburst import sim
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


def _replay(program, run):
    """Run one program, handing its starts to ``run(engine, starts,
    horizon)``; returns its log of dispatches and cancel results, the
    engine's final time and the dispatch count with the starts called."""
    eng = Engine()
    starts = sorted(program["starts"])
    handles = []
    log = []

    def fire(t, label):
        log.append(("fire", t, label))
        if label >= len(program["reactions"]):
            return
        for kind, value in program["reactions"][label]:
            if kind == "schedule":
                child = len(starts) + len(handles)
                handles.append(eng.schedule(t + value, fire, child))
            elif handles:
                index = value % len(handles)
                log.append(("cancel", index, eng.cancel(handles[index])))

    called = run(eng, [(t, fire, label) for label, t in enumerate(starts)],
                 program["horizon"])
    return log, eng.now, eng.events_dispatched + called


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
