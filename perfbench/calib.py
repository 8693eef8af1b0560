"""Host-speed calibration: a fixed reference routine timed during a pass.

The hosts this benchmark runs on are shared: the speed one process gets
drifts by up to half over tens of seconds, in steps, with the same code
and input.  A median over one 30 s run cannot average that out, so runs of
the same code made minutes apart disagree by more than any useful bound.

The benchmark therefore times a fixed reference routine, part of the
benchmark and independent of the package, alongside the work it measures,
and scales the measured time by the ratio of the routine's nominal time to
its time measured over the same window.  A change in the package moves the
measured time and leaves the routine's, so it shows in full; a slow phase
of the host stretches both and cancels.

``Sampler`` runs the routine from an interval timer while a repetition
runs, so the samples cover the same seconds as the work; ``bracket`` runs
it directly before and after a short piece of work.  The routine makes no
object the collector tracks, so it does not move the package's collector
passes.  This module imports nothing beyond ``signal`` and ``time``, so a
fresh interpreter can load it before timing an import without loading
any module the package needs.
"""

import signal
import time

# Nominal CPU time of one reference sample, s.  It only sets the scale on which
# corrected figures are read: packets per second on a host that runs one
# sample in this time.
NOMINAL_S = 0.0035
LOOPS = 8000          # iterations of the routine in one sample
INTERVAL_S = 0.2      # timer period of the sampler

_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(1024)}
_SLOTS = list(range(1024))


class _Cell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def step(self, x):
        self.value = (self.value * 5 + x) & 0xFFFF
        return self.value


_CELL = _Cell()


def reference(loops=LOOPS):
    """The reference routine: dict and list lookups, attribute access and
    method calls, the mix of the simulator's inner loop."""
    table, slots, cell = _TABLE, _SLOTS, _CELL
    acc = 0
    for i in range(loops):
        k = (i * 31 + acc) & 1023
        acc = (acc + table[k] + slots[k ^ 341] + cell.step(k)) & 0xFFFF
        slots[k] = acc & 255
    return acc


def sample():
    """CPU seconds of one reference sample in this thread.  CPU time, not
    host time: a sample that waits for a core, behind a worker process of
    the package, say, does not count the wait, so only the speed the host
    gives a running thread is measured."""
    t0 = time.thread_time()
    reference()
    return time.thread_time() - t0


def factor(samples):
    """Nominal over mean measured sample time: multiply a host time
    measured over the same window by this to correct it for the host's
    speed."""
    return NOMINAL_S * len(samples) / sum(samples)


def bracket(fn, each_side=3):
    """(``fn()``, correction factor from samples taken just before and
    after it), for a ``fn`` that returns the host seconds it measured."""
    before = [sample() for _ in range(each_side)]
    value = fn()
    after = [sample() for _ in range(each_side)]
    return value, factor(before + after)


class Sampler:
    """Runs a reference sample every INTERVAL_S of host time from SIGALRM.

    ``take()`` returns the samples since the last call and the host time
    the handler spent, to be taken out of the measured span.
    """

    def __init__(self, interval_s=INTERVAL_S):
        self.interval_s = interval_s
        self._samples = []
        self._spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self._samples.append(sample())
        self._spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def take(self):
        samples, self._samples = self._samples, []
        spent, self._spent = self._spent, 0.0
        return samples, spent
