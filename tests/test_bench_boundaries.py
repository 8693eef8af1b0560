"""The traced benchmark's boundaries name code the package still has, so a
refactor cannot drop a layer from the per-layer figures unnoticed."""

import importlib
import inspect
import os

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

# hooked by the benchmark but deleted from the package; listed under
# ``skipped_boundaries`` of every traced run
KNOWN_STALE = {"marking.TailDrop.decide", "marking.SlopeThresholdEcn.decide"}


def test_every_traced_boundary_is_a_function_of_the_package(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    missing = set()
    for module_name, cls, attr, _ in tracing.PER_CALL + tracing.SPANS:
        module = importlib.import_module(f"microburst.{module_name}")
        owner = module if cls is None else getattr(module, cls, None)
        fn = getattr(owner, attr, None)
        if not (inspect.isfunction(fn)
                and fn.__module__ == module.__name__):
            missing.add(".".join(filter(None, (module_name, cls, attr))))
    assert missing <= KNOWN_STALE
