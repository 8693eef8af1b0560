"""Config fuzzing: a valid config with one field made wrong either exits 2
naming a field of the config before any output, or runs and sends data.

Each base is a shipped config or a golden case.  A mutant sets one field
to a wrong type, 0, -1, a huge value, a float, or null, or adds an unknown
key, and goes through ``microburst run`` under a budget of engine events
and scheduled flows.  A mutant that reaches the budget has asked for more
work than a test can afford, and passes: under a budget a long run and an
endless one look alike.
"""

import contextlib
import glob
import io
import os
import tempfile

import yaml
from hypothesis import given, settings, strategies as st

from microburst import scenarios
from microburst.cli import main
from microburst.config import _FIELDS, _REQUIRED, _SECTIONS, read_yaml
from microburst.engine import Engine

from test_golden import CASES

HERE = os.path.dirname(__file__)
BASES = {os.path.basename(path): read_yaml(path) for path in sorted(
    glob.glob(os.path.join(HERE, os.pardir, "configs", "*.yaml")))}
BASES.update(CASES)

# wrong types, 0, -1, a huge value (2**63 is past the largest list length,
# so no list sized by it can fill memory), a float and null
VALUES = ("x", [1], {"a": 1}, 0, -1, 2 ** 63, 1.5, None)
UNKNOWN = "bogus"

# every base but the shipped web-search config runs within both
EVENT_BUDGET = 60_000
FLOW_BUDGET = 30_000


def _field_paths(raw):
    """Every field of the schema, each scenario key of ``raw`` and, if it
    sweeps, its sweep keys, as dotted paths."""
    paths = [path for path in (*_REQUIRED, *_FIELDS)
             if path not in ("scenario", "sweep")]
    paths += [f"scenario.{key}" for key in raw["scenario"]]
    paths += [f"sweep.{key}" for key in raw.get("sweep", ())]
    return paths


def _mutants():
    """``(base name, dotted path, value)`` of every one-field mutant; a
    path ending in ``UNKNOWN`` adds that key."""
    out = []
    for name, raw in BASES.items():
        for path in _field_paths(raw):
            out += [(name, path, value) for value in VALUES]
        if "sweep" in raw:   # the swept field takes its value from the sweep
            out += [(name, "sweep.values", [value]) for value in VALUES]
        for section in ("", *_SECTIONS, "scenario"):
            out.append((name, f"{section}.{UNKNOWN}".lstrip("."), 1))
    return out


MUTANTS = _mutants()

# what a rejection may name: a field of the schema, a scenario key, the
# sweep, or the unknown key the mutant added
KNOWN_PATHS = ({"scenario", "sweep", "sweep.values"}
               | {path for raw in BASES.values() for path in _field_paths(raw)}
               | {f"scenario.{param}" for params in scenarios._PARAMS.values()
                  for param in params})


def _mutate(raw, path, value):
    """A copy of ``raw`` with its dotted ``path`` set to ``value``."""
    raw = {key: dict(sub) if isinstance(sub, dict) else sub
           for key, sub in raw.items()}
    *parents, key = path.split(".")
    node = raw
    for parent in parents:
        node = node.setdefault(parent, {})
    node[key] = value
    return raw


class OverBudget(BaseException):
    """The run reached the test's budget; not an ``Exception``, so the CLI
    does not report it as an internal error."""


class Budget:
    """Counts engine events and scheduled flows while in effect, raising
    OverBudget past either limit."""

    def __enter__(self):
        self.events = self.flows = 0
        self._saved = schedule, flow_spec = Engine.schedule, scenarios.FlowSpec

        def counted_schedule(engine, *args):
            self.events += 1
            if self.events > EVENT_BUDGET:
                raise OverBudget
            return schedule(engine, *args)

        def counted_flow(*args, **kwargs):
            self.flows += 1
            if self.flows > FLOW_BUDGET:
                raise OverBudget
            return flow_spec(*args, **kwargs)

        Engine.schedule = counted_schedule
        scenarios.FlowSpec = counted_flow
        return self

    def __exit__(self, *exc):
        Engine.schedule, scenarios.FlowSpec = self._saved
        return False


def _packets_sent(out):
    """``packets_sent`` of every run summary written under ``out``."""
    counts = []
    for summary in glob.glob(os.path.join(out, "**", "summary.txt"),
                             recursive=True):
        with open(summary) as fh:
            counts += [int(line.split()[1]) for line in fh
                       if line.startswith("packets_sent: ")]
    return counts


def run_mutant(base, path, value):
    """``(outcome, detail)`` of one mutant run through ``microburst run``:
    ``rejected`` with the path its message names, ``ran`` with each run's
    ``packets_sent``, ``over budget``, or the exit code with stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "mutant.yaml")
        with open(cfg, "w") as fh:
            yaml.safe_dump(_mutate(BASES[base], path, value), fh)
        out = os.path.join(tmp, "out")
        stderr = io.StringIO()
        with (Budget(), contextlib.redirect_stderr(stderr),
              contextlib.redirect_stdout(io.StringIO())):
            try:
                code = main(["run", cfg, "--out", out])
            except OverBudget:
                return "over budget", None
        err = stderr.getvalue()
        if code == 2 and err.startswith("config error: "):
            return "rejected", err[len("config error: "):].split(": ")[0]
        if code == 0:
            return "ran", _packets_sent(out)
        return f"exit {code}", err


@settings(max_examples=200)
@given(st.sampled_from(MUTANTS))
def test_a_mutant_config_is_rejected_by_field_or_runs_and_sends(mutant):
    outcome, detail = run_mutant(*mutant)
    if outcome == "rejected":
        assert detail == mutant[1] or detail in KNOWN_PATHS, (mutant, detail)
    elif outcome == "ran":
        assert detail and all(sent > 0 for sent in detail), (mutant, detail)
    else:
        assert outcome == "over budget", (mutant, outcome, detail)
