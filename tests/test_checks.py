"""What each acceptance check simulates, pinned.

A check's plan is the ordered list of configs it runs.  Each digest below
is a sha256 over the ``effective_yaml`` of every config in that plan, in
order; they were recorded by wrapping the simulation entry point while the
twelve checks ran as hand-written loops, before they became plans.  So a
change to how plans are built cannot silently change what a check runs.
These tests build plans only; the hook test runs the two short pacing runs,
and the import test runs them again in a fresh interpreter.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from microburst import checks, sim
from microburst.config import effective_yaml

# check name -> (number of runs, sha256 over their effective configs)
PLANS = {
    "law1": (20, "64adb47335691bda4cd447922d32b12b03e643ced3c996e9f642ff774b82973b"),
    "law2": (10, "237a99ce883171d28e824c8f85699d3240b5254906c63f0ad5415f8c9ae69e42"),
    "law3": (15, "51ed518fa023f8370291a91a5ea674529f21c8feccf40ddae6c47acc2c2e7983"),
    "overshoot": (1, "473bcc1351d9637e04e566e0097f43f4a7f9e61a3a22e07858205f5e0b609510"),
    "suppression": (3, "b6e64f5d566352bd5dce29803779b8735edefb4cfb3da85643e10ed46d43910b"),
    "dctcp": (2, "c5d301422848981b1b4e1a23dd21aab4706498c58d2a00ea885a557ed78a9017"),
    "equivalence": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "utilization": (3, "cd528518c8c45ec6182254e021e2eb1c336a6bbfa6271a6f2d3091a035864c00"),
    "incast": (125, "d0cf2df44b0d0c8abd5ef399f5b9399b251df36084e6a673571c6bcabb571c1d"),
    "pacing": (2, "635baa4d3d442bb7efdc1c9e7825df120119fed74b8d704d2a16d43fb06c9009"),
    "workload": (20, "ae9a514d3ccc794ba6a5ed9879fe6545df60401d37c826c0da32c2313b83b180"),
    "determinism": (2, "8d7dbe0aafb7d4f72186b816bfdb33c18278c6e147ab9d0a51b716bf0f9d4f3e"),
}


def test_every_check_is_pinned():
    assert list(PLANS) == list(checks.CHECKS)


@pytest.mark.parametrize("name", list(PLANS))
def test_check_runs_its_recorded_plan(name):
    configs = [cfg for _, cfg in checks.plan(name)]
    digest = hashlib.sha256()
    for cfg in configs:
        digest.update(effective_yaml(cfg).encode())
    assert (len(configs), digest.hexdigest()) == PLANS[name]


def test_simulation_wrapper_sees_every_check_run(monkeypatch):
    """Wrap ``run_simulation`` the way the benchmark's probe does: rebind
    every loaded package module attribute that is the original.  A runner
    that bound the original at import time would bypass the wrapper."""
    real = sim.run_simulation
    seen = []

    def recorder(cfg):
        seen.append(effective_yaml(cfg))
        return real(cfg)

    for name, module in list(sys.modules.items()):
        if ((name == "microburst" or name.startswith("microburst."))
                and getattr(module, "run_simulation", None) is real):
            monkeypatch.setattr(module, "run_simulation", recorder)
    assert checks.run_check("pacing").passed
    assert seen == [effective_yaml(cfg) for _, cfg in checks.plan("pacing")]
    assert len(seen) == 2


def test_checks_without_traces_load_neither_numpy_nor_yaml():
    """Importing the package, its checks and its CLI, then running two checks
    that read no trace and no YAML, leaves numpy and PyYAML unloaded."""
    code = ("import sys\n"
            "import microburst, microburst.checks, microburst.cli\n"
            "from microburst.checks import run_check\n"
            "assert run_check('equivalence').passed\n"
            "assert run_check('pacing').passed\n"
            "print(sorted({'numpy', 'yaml'} & set(sys.modules)))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_traced_runs_and_their_analysis_leave_numpy_unloaded(tmp_path):
    """Trace analysis, a traced run's outputs and a check that fits slopes
    and digests outputs run in plain Python: numpy stays unloaded."""
    code = ("import sys\n"
            "import microburst.analysis\n"
            "from microburst import RunConfig, run_simulation, write_outputs\n"
            "from microburst.checks import run_check\n"
            "res = run_simulation(RunConfig(seed=1, protocol='TCP', scenario="
            "{'kind': 'sync_fanin', 'n': 4, 'response_bytes': 100_000}))\n"
            "write_outputs(res, sys.argv[1])\n"
            "assert run_check('determinism').passed\n"
            "print('numpy' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "phase2_slope_gbps[root->t4]" in (tmp_path / "metrics.csv").read_text()
    assert done.stdout == "False\n"
