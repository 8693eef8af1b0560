"""Instrumentation the benchmark installs around the microburst package.

Nothing here edits the package: entry points are replaced on their classes
and modules before a pass starts and put back afterwards.

* ``Patches`` replaces a function or method and restores it later.
* ``SimProbe`` times every ``run_simulation`` call and the moment its event
  loop starts, so a simulation splits into pre-loop build and the rest.  It
  is cheap enough (two wrapped calls per simulation) for untraced runs.
* ``GcWatch`` counts collector passes and their pause through
  ``gc.callbacks``.
"""

import gc
import sys
import time
from dataclasses import dataclass

PACKAGE = "microburst"


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE
                                    or name.startswith(PACKAGE + "."))]


class Patches:
    """Replacements of package entry points, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def wrap_method(self, cls, attr, make):
        orig = cls.__dict__[attr]
        setattr(cls, attr, make(orig))
        self._undo.append((cls, attr, orig))

    def wrap_function(self, module, attr, make):
        """Wrap a module-level function and rebind every loaded package
        module that imported it by name, so callers resolve the wrapper."""
        orig = getattr(module, attr)
        wrapped = make(orig)
        for mod in _package_modules():
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, orig))

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class SetupDone(Exception):
    """Raised at the event-loop boundary when only the build is timed."""


@dataclass
class SimRecord:
    cfg: object
    outcome: object      # what ``SimProbe.inspect`` made of the result
    t_call_ns: int
    t_loop_ns: int       # first Engine.run_until entry
    t_return_ns: int

    @property
    def build_s(self):
        return (self.t_loop_ns - self.t_call_ns) / 1e9

    @property
    def wall_s(self):
        return (self.t_return_ns - self.t_call_ns) / 1e9


class SimProbe:
    """Records each simulation the workload runs, wherever it is called from.

    ``inspect(result)`` digests each result as soon as it returns, so no
    result outlives the workload's own use of it; its time is summed in
    ``inspect_ns`` for the caller to take out of the measured span.
    """

    def __init__(self, inspect):
        self.inspect = inspect
        self.inspect_ns = 0
        self.records = []
        self._loop_at = None
        self._setup_only = False
        self._builds = []
        self._run_simulation = None

    def install(self, patches):
        from microburst import engine, sim

        clock = time.perf_counter_ns

        def wrap_run_until(orig):
            def run_until(eng, t_end_ns):
                if self._loop_at is None:
                    self._loop_at = clock()
                if self._setup_only:
                    raise SetupDone
                return orig(eng, t_end_ns)
            return run_until

        def wrap_run_simulation(orig):
            def run_simulation(cfg):
                self._loop_at = None
                t_call = clock()
                try:
                    result = orig(cfg)
                except SetupDone:
                    self._builds.append(self._loop_at - t_call)
                    return None
                t_return = clock()
                outcome = self.inspect(result)
                self.inspect_ns += clock() - t_return
                self.records.append(SimRecord(cfg, outcome, t_call,
                                              self._loop_at, t_return))
                return result
            return run_simulation

        patches.wrap_method(engine.Engine, "run_until", wrap_run_until)
        patches.wrap_function(sim, "run_simulation", wrap_run_simulation)
        self._run_simulation = sim.run_simulation

    def take(self):
        """Records and inspection time since the last call."""
        records, self.records = self.records, []
        spent, self.inspect_ns = self.inspect_ns, 0
        return records, spent / 1e9

    def setup_pass(self, configs):
        """Build every config up to its event loop; returns the summed
        pre-loop build time in seconds."""
        self._setup_only = True
        self._builds = []
        try:
            for cfg in configs:
                self._run_simulation(cfg)
        finally:
            self._setup_only = False
        return sum(self._builds) / 1e9


class GcWatch:
    """Collector passes by generation and their summed pause, in one window."""

    def __init__(self):
        self.collections = [0, 0, 0]
        self.pause_ns = 0
        self._started = None

    def _callback(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter_ns()
        elif self._started is not None:
            self.pause_ns += time.perf_counter_ns() - self._started
            self.collections[info["generation"]] += 1
            self._started = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False
