"""Deterministic single-threaded discrete-event engine.

Events fire in (fire_time, sequence_number) order; the sequence number is
a global insertion counter, so simultaneous events dispatch in the order
they were scheduled.  Identical (config, seed) therefore replays the exact
same event sequence.

A run schedules most of its events up front (every flow start) and few
while it runs (one per packet hop, about a hundred in flight at a time).
``run_until`` therefore moves the events already pending into a sorted
backlog, and keeps only the events scheduled while it runs in the heap,
so each packet hop pays for a shallow heap rather than one holding every
future flow start.

The engine counts only what it does itself, ``events_dispatched``; run
totals are built from the ports and endpoints after the loop.
"""

import heapq


class SchedulingInPast(Exception):
    """Raised when an event is scheduled before the engine's current time."""


class Engine:
    """Event loop: schedule callbacks, cancel them, run to a horizon.

    Entries are mutable lists ``[time, seq, fn, arg]`` and double as
    cancellation handles: cancel nulls the callback in place and the loop
    skips dead entries, so cancel is O(1).  The loop also nulls the
    callback of every entry it dispatches, so cancelling a fired event is a
    no-op.

    ``schedule`` always pushes onto ``_heap``.  On entry, ``run_until``
    sorts everything pending (the heap and what is left of the backlog)
    into ``_backlog``, latest first so the next entry pops off the end,
    and empties the heap.  The loop then merges the two, popping the heap
    only while its head is strictly earlier than the backlog's next entry.
    Every backlog entry was scheduled before every heap entry, so on a tie
    the backlog holds the lower sequence number, and the merge dispatches
    in exactly (time, seq) order.
    """

    def __init__(self):
        self._heap = []
        self._backlog = []      # sorted descending: the next entry is last
        self._seq = 0
        self.now = 0
        self.last_dispatch_ns = 0
        self.events_dispatched = 0

    def schedule(self, fire_time_ns: int, fn, arg=None) -> list:
        """Queue `fn(now, arg)` at `fire_time_ns`; returns a cancellation handle."""
        if fire_time_ns < self.now:
            raise SchedulingInPast(
                f"fire_time {fire_time_ns} < now {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [fire_time_ns, seq, fn, arg]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, handle: list) -> bool:
        """True iff the event was still pending and is now removed."""
        if handle[2] is None:
            return False
        handle[2] = None
        return True

    def run_until(self, t_end_ns: int) -> None:
        """Dispatch every event with fire_time <= t_end_ns."""
        heap = self._heap
        backlog = self._backlog
        if heap:
            backlog += heap
            backlog.sort(reverse=True)
            heap.clear()
        heappop = heapq.heappop
        # the heap head fires first iff it is <= bound; past the last
        # backlog entry, nxt = t_end_ns + 1 makes bound the horizon
        nxt = backlog[-1][0] if backlog else t_end_ns + 1
        bound = min(nxt - 1, t_end_ns)
        n = 0
        while True:
            if heap and heap[0][0] <= bound:
                entry = heappop(heap)
            elif nxt <= t_end_ns:
                entry = backlog.pop()
                nxt = backlog[-1][0] if backlog else t_end_ns + 1
                bound = min(nxt - 1, t_end_ns)
            else:
                break
            t, _, fn, arg = entry
            if fn is None:
                continue
            entry[2] = None
            self.now = t
            n += 1
            fn(t, arg)
        self.events_dispatched += n
        self.last_dispatch_ns = self.now
        if t_end_ns > self.now:
            self.now = t_end_ns
