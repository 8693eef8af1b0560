"""Golden output digests: the same (config, seed) must keep producing the
same output bytes across commits.

The ``determinism`` check compares two runs of one build; these digests
carry that guarantee from one commit to the next, so a refactor that
changes any output byte fails here and has to name the change.  Each case
is a small config run through the CLI; the digests are sha256 of the five
output files (None where the run writes no such file).

To re-record after an intended output change, run this file as a script
and paste the printed table over ``DIGESTS``.
"""

import contextlib
import hashlib
import os
import subprocess
import sys
import tempfile

import pytest
import yaml

from microburst.cli import main
from microburst.config import config_from_dict, effective_yaml

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")

FILES = ("trace.csv", "flows.csv", "queries.csv", "metrics.csv", "summary.txt")

FANIN = {"kind": "sync_fanin", "n": 6, "response_bytes": 200_000,
         "jitter_ns": 20_000}

CASES = {
    # tail drop and the TCP loss path: a small buffer overflows
    "tcp_fanin_drops": {
        "seed": 3, "protocol": "TCP", "scenario": FANIN,
        "network": {"buffer_bytes": 48_000},
    },
    # threshold marking, telemetry quantized to the hardware registers
    "ecn_star_fidelity": {
        "seed": 4, "protocol": "ECN*",
        "scenario": dict(FANIN, n=8),
        "telemetry": {"mode": "fidelity"},
    },
    # slope marking with paced senders
    "s_ecn_paced": {
        "seed": 5, "protocol": "S-ECN", "scenario": FANIN,
        "transport": {"pacing": True},
    },
    # a long-lived background flow ahead of the burst
    "sl_ecn_one_background": {
        "seed": 6, "protocol": "SL-ECN",
        "scenario": {"kind": "one_background", "fanin_count": 4,
                     "response_bytes": 100_000, "delay_ns": 2_000_000,
                     "background_bytes": 2_000_000, "jitter_ns": 10_000},
    },
    # one point of an incast sweep, written to its n=<value> subdirectory
    "dctcp_incast_sweep_point": {
        "seed": 7, "protocol": "DCTCP",
        "scenario": {"kind": "incast", "mode": "fixed_response",
                     "response_bytes": 64_000, "n": 2},
        "network": {"buffer_bytes": 128_000},
        "sweep": {"param": "scenario.n", "values": [12]},
    },
    # a short web-search slice traced on two ports
    "dctcp_sl_ecn_websearch": {
        "seed": 8, "protocol": "DCTCP+SL-ECN", "duration_ns": 100_000_000,
        "scenario": {"kind": "websearch", "load": 0.4,
                     "duration_ns": 100_000_000, "query_fraction": 0.5},
        "network": {"buffer_bytes": 128_000},
        "transport": {"max_cwnd_packets": 32},
        "telemetry": {"mode": "exact", "ports": ["root->t4", "t4->h10"]},
        "metrics": {"drain_grace_ns": 50_000_000},
    },
    # link propagation and switch processing delays on a 10 Gbps fabric, so
    # forwarding and final delivery go through scheduled events
    "dctcp_delayed_links": {
        "seed": 9, "protocol": "DCTCP", "scenario": FANIN,
        "network": {"buffer_bytes": 128_000,
                    "link_rate_bps": 10_000_000_000,
                    "prop_delay_ns": 2_000, "hop_proc_ns": 500},
        "telemetry": {"mode": "exact", "ports": ["root->t4", "t4->h10"]},
    },
}

DIGESTS = {
    'dctcp_delayed_links': {
        'trace.csv': '19cdc7202fa93984a9b7db43a3a59cf3528319e01ebf5d5be77df99507251126',
        'flows.csv': '2384048b8bdcaa3f5b0fa29d9b0c7bfe5d33c66569394c856aa723cead37ee83',
        'queries.csv': None,
        'metrics.csv': 'f51591bab1b86230b646c3bca26cdb254d1f8a99ba793cd7ae419bf8d4a55dc6',
        'summary.txt': '301edd990f118b78646642d137b993be2c87f5541bf88ef26b54ad9ae960b21c',
    },
    'dctcp_incast_sweep_point': {
        'trace.csv': 'd82949f8063c42cf4acfb5c5a4e72d7064157238a8e0576246b6cce07fe0e5bd',
        'flows.csv': 'c9a953f7f180a7ad64e1d90bf946255e3e2d1396f88c19948da8b826b5c9d3d4',
        'queries.csv': 'b8507e8e03ae1fd68412f5227ed90c61be7907efdbe73074161f478a3d95d0c3',
        'metrics.csv': 'fb54f5b969a6cdc882787f2f3d3f9f8747fd54e8d24f8e92da313202dca3c315',
        'summary.txt': 'c3f5d7026f82ae2c903517d9754e657bf71eb2ed8584d3db1ff30ffee84280c5',
    },
    'dctcp_sl_ecn_websearch': {
        'trace.csv': 'ecffad607cfcea769b46691bf71e54864c847059e2ca3e40e3c723263145b282',
        'flows.csv': 'a0fa995b1c5dacb1104c0b70de64bb543e45ef996578d744578693f08086d212',
        'queries.csv': '3317a7febc29094a7a828d3c112a05685e5cd0c139817af413f3a012ed1748b2',
        'metrics.csv': '34caa639e669f1fae86484d5905d6e4de114ee5d014877be7ceed05aee396a3b',
        'summary.txt': '95189b5581b6c8466a3fc506fd71eb4914865871e0ba022fcd33995d97098385',
    },
    'ecn_star_fidelity': {
        'trace.csv': '5d8a69d713e95bb22827677cabccc2baecd0b35dfd8d9c5e7954fc25b1b5a589',
        'flows.csv': '5b3f3ba8368eb41d1b4ed7ad0c87b196deefd4bd27c073ed2d9c442fae40e97b',
        'queries.csv': None,
        'metrics.csv': 'dc8ef9d2af1306a57498d56200543feef79f730a9585284acd29e584eb63054a',
        'summary.txt': '9e37c0874a4e34568575e50b2d95302e3bfcd5d561c35be76e1744f5ccf4623d',
    },
    's_ecn_paced': {
        'trace.csv': '1bb918e5d6dd338d944d52e5adc9f9920cc38b576db78be43ebb54542e64c081',
        'flows.csv': 'e367f09ccda35d58626338b3adf40cc7826545db5bec8b7ea9cdf876d02afa14',
        'queries.csv': None,
        'metrics.csv': '447a72342abb60446d909a851aa0e4020e138b7d3d4e9ca83960ed294c1868f6',
        'summary.txt': 'c0f698f3c3b1099d462771ca47236e1edd8e2be66310bd406769ca8adce796d6',
    },
    'sl_ecn_one_background': {
        'trace.csv': '736454cc5417c2ba30ecffba9bb60af89549799b6aa37b095d6028e7834ef35f',
        'flows.csv': '7f1fa84e0ea80d0a41ddc1e4fdef556368c89be2f2313d45a570601df68470e5',
        'queries.csv': None,
        'metrics.csv': 'b2b6a7db866bd685663b38c1a2d6d16dc300cc6cc961ca843a5e180b7d35094c',
        'summary.txt': '2ce18e27fffb8d457f180fe301abd0d670f5fc68391b8b072c6f25d6269323b9',
    },
    'tcp_fanin_drops': {
        'trace.csv': 'ea30dd894ace811f6e00eb6cc272875926ae37069976befc7b8840e1fed71dc6',
        'flows.csv': '1797310be20dbb203ee0d577079c3d6c2fa7ff17e8da9d2b4d8943e0ae8210fe',
        'queries.csv': None,
        'metrics.csv': '0206433cd3061c7977ec84d564778da5b50386bbfbe2dbc0fa4c2609160b7cf7',
        'summary.txt': '7c5286d0ac912062eff19c29f77f3d8edf3d4d5eb412e751ffb6d5f4007f3287',
    },
}


def write_case(name, workdir):
    """The case's config file and its output directory, both in ``workdir``."""
    cfg_path = os.path.join(workdir, f"{name}.yaml")
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(CASES[name], fh)
    return cfg_path, os.path.join(workdir, name)


def output_digests(name, out):
    raw = CASES[name]
    if "sweep" in raw:
        param = raw["sweep"]["param"].split(".")[-1]
        out = os.path.join(out, f"{param}={raw['sweep']['values'][0]}")
    digests = {}
    for fname in FILES:
        path = os.path.join(out, fname)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digests[fname] = hashlib.sha256(fh.read()).hexdigest()
        else:
            digests[fname] = None
    return digests


def run_digests(name, workdir):
    cfg_path, out = write_case(name, workdir)
    assert main(["run", cfg_path, "--out", out]) == 0
    return output_digests(name, out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name, tmp_path):
    got = run_digests(name, str(tmp_path))
    changed = [f for f in FILES if got[f] != DIGESTS[name][f]]
    assert not changed, f"{name}: output bytes changed in {changed}"


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_outputs_do_not_depend_on_the_hash_seed(hash_seed, tmp_path):
    """A fresh interpreter, as a worker process would be, writes the golden
    bytes whatever its hash seed."""
    name = "tcp_fanin_drops"
    cfg_path, out = write_case(name, str(tmp_path))
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-m", "microburst.cli", "run", cfg_path,
         "--out", out], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert output_digests(name, out) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_effective_config_loads_back(name):
    cfg = config_from_dict(CASES[name])
    assert config_from_dict(yaml.safe_load(effective_yaml(cfg))) == cfg


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        table = {case: run_digests(case, tmp) for case in sorted(CASES)}
    print("DIGESTS = {")
    for case, digests in table.items():
        print(f"    {case!r}: {{")
        for fname, digest in digests.items():
            print(f"        {fname!r}: {digest!r},")
        print("    },")
    print("}")
