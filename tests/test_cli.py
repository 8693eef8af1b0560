import glob
import os
import random

import pytest
import yaml

from microburst.cli import main
from microburst.config import expand, read_yaml
from microburst.scenarios import build_schedule

GOOD_CONFIG = {
    "seed": 5,
    "protocol": "SL-ECN",
    "scenario": {"kind": "sync_fanin", "n": 4, "response_bytes": 100_000,
                 "jitter_ns": 10_000},
    "duration_ns": 4_000_000,
}


def write_config(tmp_path, raw, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_run_writes_four_output_files(tmp_path):
    cfg = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    for name in ("trace.csv", "flows.csv", "metrics.csv", "summary.txt"):
        assert (out / name).exists(), name
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == "time_ns,port_id,queue_bytes,flow_id,event"


def test_run_trace_rows_are_integers(tmp_path):
    cfg = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    main(["run", cfg, "--out", str(out)])
    lines = (out / "trace.csv").read_text().splitlines()[1:]
    assert lines
    for line in lines[:50]:
        t, port, q, flow, event = line.split(",")
        int(t), int(q), int(flow)
        assert event in ("enqueue", "dequeue", "drop", "mark")
        assert "e" not in t    # no scientific notation


def test_run_twice_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, GOOD_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", cfg, "--out", str(b)]) == 0
    for name in ("trace.csv", "metrics.csv", "flows.csv", "summary.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path, GOOD_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", cfg, "--out", str(a)])
    main(["run", cfg, "--out", str(b), "--seed", "99"])
    assert (a / "trace.csv").read_bytes() != (b / "trace.csv").read_bytes()


def test_summary_echoes_effective_config(tmp_path):
    cfg = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    main(["run", cfg, "--out", str(out)])
    text = (out / "summary.txt").read_text()
    assert "protocol: SL-ECN" in text
    assert "ecn_threshold_bytes: 32000" in text   # default echoed back


def test_effective_config_in_summary_reproduces_the_run(tmp_path):
    cfg = write_config(tmp_path, GOOD_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(a)]) == 0
    text = (a / "summary.txt").read_text()
    block = text.split("# effective configuration\n")[1]
    block = block.split("\n# run summary")[0]
    again = tmp_path / "effective.yaml"
    again.write_text(block)
    assert main(["run", str(again), "--out", str(b)]) == 0
    for name in ("trace.csv", "metrics.csv", "flows.csv", "summary.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_failed_audit_exits_one_and_names_port(tmp_path, capsys,
                                               leaky_root_port):
    cfg = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 1
    assert "port root->t4: bytes_in" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_load_exits_two_and_names_field(tmp_path, capsys):
    raw = {"seed": 1, "protocol": "DCTCP",
           "scenario": {"kind": "websearch", "load": 1.5,
                        "duration_ns": 1_000_000_000}}
    cfg = write_config(tmp_path, raw)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "scenario.load" in err


def test_unknown_protocol_exits_two(tmp_path, capsys):
    raw = dict(GOOD_CONFIG, protocol="CUBIC")
    cfg = write_config(tmp_path, raw)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "protocol" in capsys.readouterr().err


def test_missing_seed_exits_two(tmp_path, capsys):
    raw = {k: v for k, v in GOOD_CONFIG.items() if k != "seed"}
    cfg = write_config(tmp_path, raw)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "seed" in capsys.readouterr().err


WEBSEARCH = {"kind": "websearch", "load": 0.4, "duration_ns": 10_000_000}
# base scenario of each kind a "scenario:<kind>" case names; other kinds
# need no parameter beyond the one under test
SCENARIOS = {"websearch": WEBSEARCH, "sync_fanin": GOOD_CONFIG["scenario"],
             "async_fanin": {"kind": "async_fanin", "n": 4},
             "incast": {"kind": "incast", "n": 4, "mode": "fixed_total"}}
BAD_CDFS = {"letters.cdf": "abc 1.0\n", "bad_prob.cdf": "1000 x\n",
            "one_column.cdf": "1000\n", "decreasing.cdf": "1000 0.5\n900 1.0\n",
            "short.cdf": "1000 0.5\n", "zero_size.cdf": "0 1.0\n",
            "nan_prob.cdf": "1000 0.5\n2000 nan\n"}


@pytest.mark.parametrize("section, key, value, field", [
    ("telemetry", "ports", ["root->h99"], "telemetry.ports"),
    ("transport", "dctcp_gain", "0.1", "transport.dctcp_gain"),
    ("transport", "dctcp_alpha0", "1", "transport.dctcp_alpha0"),
    ("network", "tor_uplink_buffer_bytes", -5, "network.tor_uplink_buffer_bytes"),
    ("transport", "max_cwnd_packets", 0, "transport.max_cwnd_packets"),
    ("transport", "initial_window_packets", 0, "transport.initial_window_packets"),
    ("transport", "mss_bytes", 0, "transport.mss_bytes"),
    ("switch", "secn_clamp", False, "switch.secn_clamp"),
    ("switch", "secn_exact_fraction", False, "switch.secn_exact_fraction"),
    ("switch", "secn_mark_next", True, "switch.secn_mark_next"),
    ("switch", "secn_random_engine", True, "switch.secn_random_engine"),
    ("scenario", "query_fraction", 1, "scenario.query_fraction"),
    ("scenario", "cdf_path", "no/such/sizes.cdf", "scenario.cdf_path"),
    ("scenario", "cdf_path", "letters.cdf", "scenario.cdf_path"),
    ("scenario", "cdf_path", "bad_prob.cdf", "scenario.cdf_path"),
    ("scenario", "cdf_path", "one_column.cdf", "scenario.cdf_path"),
    ("scenario", "cdf_path", "decreasing.cdf", "scenario.cdf_path"),
    ("scenario", "cdf_path", "short.cdf", "scenario.cdf_path"),
    ("scenario", "cdf_path", "zero_size.cdf", "scenario.cdf_path"),
    ("scenario", "cdf_path", "nan_prob.cdf", "scenario.cdf_path"),
    ("scenario", "query_bytes", 0, "scenario.query_bytes"),
    ("scenario:one_background", "fanin_count", -1, "scenario.fanin_count"),
    ("scenario:background_same_hop", "fanin_count", -1, "scenario.fanin_count"),
    ("scenario:background_prev_hop", "fanin_count", -1, "scenario.fanin_count"),
    ("scenario:sync_fanin", "jitter_ns", -1, "scenario.jitter_ns"),
    ("scenario:one_background", "jitter_ns", -1, "scenario.jitter_ns"),
    ("scenario:background_same_hop", "jitter_ns", -1, "scenario.jitter_ns"),
    ("scenario:background_prev_hop", "jitter_ns", -1, "scenario.jitter_ns"),
    ("scenario:async_fanin", "window_ns", 1.5, "scenario.window_ns"),
    ("scenario:async_fanin", "n", 0, "scenario.n"),
    ("scenario:sync_fanin", "receiver", "h99", "scenario.receiver"),
    ("scenario:background_prev_hop", "background_count", -1,
     "scenario.background_count"),
    ("scenario:long_flow_batches", "batches", 0, "scenario.batches"),
    ("scenario:async_fanin", "response_bytes", 1.5, "scenario.response_bytes"),
    ("scenario:sync_fanin", "response_bytes", 0, "scenario.response_bytes"),
    ("scenario:one_background", "delay_ns", -1, "scenario.delay_ns"),
    ("scenario:incast", "start_ns", -1, "scenario.start_ns"),
    ("scenario:incast", "total_bytes", 3, "scenario.total_bytes"),
])
def test_bad_value_exits_two_before_any_output(tmp_path, capsys, monkeypatch,
                                               section, key, value, field):
    # malformed size CDFs, named relative to the working directory
    monkeypatch.chdir(tmp_path)
    for name, text in BAD_CDFS.items():
        (tmp_path / name).write_text(text)
    raw = dict(GOOD_CONFIG)
    if section.startswith("scenario"):
        kind = section.partition(":")[2] or "websearch"
        raw["scenario"] = dict(SCENARIOS.get(kind, {"kind": kind}),
                               **{key: value})
    else:
        raw[section] = {key: value}
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize("sweep, field", [
    ({"param": "scenario.n", "values": [2, 0, 4]}, "scenario.n"),
    ({"param": "seed.x", "values": [1]}, "sweep"),        # through a number
    ({"param": "scenario.n.x", "values": [1]}, "sweep"),  # and in a section
    ({"param": "scenario.n", "values": []}, "sweep"),     # no point to run
    ({"param": "", "values": [1]}, "sweep"),              # no key at all
    ({"param": "scenario.", "values": [1]}, "sweep"),     # an empty key
], ids=["bad_point", "int_parent", "scenario_int_parent", "no_values",
        "empty_param", "empty_key"])
def test_bad_sweep_exits_two_and_writes_nothing(tmp_path, capsys, sweep,
                                                field):
    raw = dict(GOOD_CONFIG, sweep=sweep)
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "sweep"
    assert main(["run", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {field}: ")
    assert captured.out == ""
    assert not out.exists()


def test_sweep_creates_one_subdirectory_per_point(tmp_path):
    raw = dict(GOOD_CONFIG)
    raw["scenario"] = dict(raw["scenario"])
    raw["sweep"] = {"param": "scenario.n", "values": [2, 4, 6]}
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "sweep"
    assert main(["run", cfg, "--out", str(out)]) == 0
    for n in (2, 4, 6):
        assert (out / f"n={n}" / "metrics.csv").exists()


SHIPPED_CONFIGS = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), os.pardir, "configs", "*.yaml")))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=os.path.basename)
def test_shipped_config_expands_into_scheduled_runs(path):
    raw = read_yaml(path)
    sweep = raw.pop("sweep", None)
    axes = {sweep["param"]: sweep["values"]} if sweep else {}
    plan = expand(raw, axes)
    # one point per sweep value, labelled as its output subdirectory
    assert [label for label, _ in plan] == (
        [(f"{sweep['param'].split('.')[-1]}={v}",) for v in sweep["values"]]
        if sweep else [()])
    for _, cfg in plan:
        flows, _ = build_schedule(cfg.scenario, random.Random(cfg.seed),
                                  cfg.link_rate_bps)
        assert flows


def test_check_unknown_name_exits_two(capsys):
    assert main(["check", "law99"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_check_equivalence_passes(capsys):
    assert main(["check", "equivalence"]) == 0
    out = capsys.readouterr().out
    assert "PASS: equivalence" in out


def test_check_law1_passes(capsys):
    assert main(["check", "law1"]) == 0
    out = capsys.readouterr().out
    assert "PASS: law1" in out
    assert "Gbps" in out    # measured vs expected values printed


def test_check_accepts_config_file_naming_check(tmp_path, capsys):
    path = tmp_path / "check.yaml"
    path.write_text(yaml.safe_dump({"check": "equivalence", "seed": 3}))
    assert main(["check", str(path)]) == 0
    assert "PASS: equivalence" in capsys.readouterr().out


@pytest.mark.parametrize("name, field", [
    ("list.yaml", "<root>"),     # a YAML list, not a mapping
    ("law9", "<file>"),          # a directory, not a file
    ("seed.yaml", "seed"),       # seed: abc
])
def test_check_bad_file_exits_two_before_any_run(tmp_path, capsys, monkeypatch,
                                                 name, field):
    (tmp_path / "list.yaml").write_text("- law1\n")
    (tmp_path / "law9").mkdir()
    (tmp_path / "seed.yaml").write_text("check: law1\nseed: abc\n")
    monkeypatch.setattr("microburst.cli.run_check", pytest.fail)
    assert main(["check", str(tmp_path / name)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
