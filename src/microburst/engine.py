"""Deterministic single-threaded discrete-event engine.

Events fire in (fire_time, sequence_number) order; the sequence number is
a global insertion counter, so simultaneous events dispatch in the order
they were scheduled.  Identical (config, seed) therefore replays the exact
same event sequence.

The event set is two heaps of the same entries.  An event due within
``HOT_WINDOW_NS`` of ``now`` when it is scheduled (a port departure, an
arrival over a delayed link, a pace timer) goes into the hot heap; a later
one (mostly retransmission timers, among them the cancelled timers of
finished flows) into the far heap.  The hot heap then holds little more
than the events of the packets in flight, so a hop sifts through a few
levels rather than the whole event set, the split a timing wheel makes
between near and far timers.  The loop always dispatches the smaller
(time, seq) of the two roots, so the dispatch order is that of one heap
whatever the constant is: it can change the speed, never an output.

An event dispatched from the hot heap stays at the root while its handler
runs.  The first hot event the handler schedules takes its place in one
``heapreplace``; if the handler schedules none, the loop pops the root
after it returns.  A hop, which dispatches one departure and schedules the
next departure or forward, thus costs one heap operation.

The engine counts only what it does itself, ``events_dispatched``; run
totals are built from the ports and endpoints after the loop.
"""

from heapq import heappop, heappush, heapreplace

# events due sooner than this after ``now`` when scheduled go to the hot heap
HOT_WINDOW_NS = 1_000_000


class SchedulingInPast(Exception):
    """Raised when an event is scheduled before the engine's current time."""


class Engine:
    """Event loop: schedule callbacks, cancel them, run to a horizon.

    Entries are mutable lists ``[time, seq, fn, arg]`` and double as
    cancellation handles: cancel nulls the callback in place and the loop
    skips dead entries, so cancel is O(1).  The loop also nulls the
    callback of every entry it dispatches, so cancelling a fired event is a
    no-op.

    ``_heap`` is the hot heap and ``_far`` the far heap (see the module
    docstring).  ``_running`` is true while a handler dispatched from the
    hot heap runs and its entry still sits at the root, waiting to be
    replaced by the first hot event the handler schedules.
    """

    def __init__(self):
        self._heap = []
        self._far = []
        self._running = False
        self._seq = 0
        self.now = 0
        self.last_dispatch_ns = 0
        self.events_dispatched = 0

    def schedule(self, fire_time_ns: int, fn, arg=None) -> list:
        """Queue `fn(now, arg)` at `fire_time_ns`; returns a cancellation handle."""
        now = self.now
        if fire_time_ns < now:
            raise SchedulingInPast(
                f"fire_time {fire_time_ns} < now {now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [fire_time_ns, seq, fn, arg]
        if fire_time_ns - now < HOT_WINDOW_NS:
            if self._running:
                self._running = False
                heapreplace(self._heap, entry)
            else:
                heappush(self._heap, entry)
        else:
            heappush(self._far, entry)
        return entry

    def cancel(self, handle: list) -> bool:
        """True iff the event was still pending and is now removed."""
        if handle[2] is None:
            return False
        handle[2] = None
        return True

    def pending(self) -> list:
        """``(fn, arg)`` of every event still due, in no particular order.
        Only tests and diagnostics call it; the run reads nothing from it."""
        return [(entry[2], entry[3]) for entry in self._heap + self._far
                if entry[2] is not None]

    def run_until(self, t_end_ns: int) -> None:
        """Dispatch every event with fire_time <= t_end_ns."""
        heap = self._heap
        far = self._far
        if self._running:
            # a hot handler raised: its dispatched entry is still the root
            self._running = False
            heappop(heap)
        n = 0
        try:
            while True:
                if heap:
                    entry = heap[0]
                    t, _, fn, arg = entry
                    # times first; whole entries (time, seq) only on a tie
                    if (not far or t < far[0][0]
                            or (t == far[0][0] and entry < far[0])):
                        if t > t_end_ns:
                            break
                        if fn is None:
                            heappop(heap)
                            continue
                        entry[2] = None
                        self.now = t
                        n += 1
                        self._running = True
                        fn(t, arg)
                        if self._running:
                            self._running = False
                            heappop(heap)
                        continue
                elif not far:
                    break
                # the far root is due first
                entry = far[0]
                t, _, fn, arg = entry
                if t > t_end_ns:
                    break
                heappop(far)
                if fn is None:
                    continue
                entry[2] = None
                self.now = t
                n += 1
                fn(t, arg)
        finally:
            # a raising handler counts, and ``now`` stays at its time
            if n:
                self.events_dispatched += n
                self.last_dispatch_ns = self.now
        if t_end_ns > self.now:
            self.now = t_end_ns
