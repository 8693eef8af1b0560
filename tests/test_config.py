"""``RunConfig`` keeps the fields, defaults and equality of the record it
replaced, and every shipped config survives its effective YAML."""

import glob
import os

import pytest
import yaml

from microburst.config import (ConfigError, RunConfig, config_from_dict,
                               effective_yaml, load_config)

SCENARIO = {"kind": "incast", "n": 4}

# every field after seed, protocol and scenario, in order, with the default
# it had when RunConfig was a dataclass
DEFAULTS = {
    "duration_ns": 0,
    "link_rate_bps": 1_000_000_000,
    "prop_delay_ns": 0,
    "hop_proc_ns": 0,
    "buffer_bytes": 512_000,
    "tor_uplink_buffer_bytes": None,
    "ecn_threshold_bytes": 32_000,
    "mss_bytes": 1500,
    "initial_window_packets": 3,
    "max_cwnd_packets": 64,
    "rto_min_ns": 10_000_000,
    "dctcp_gain": 0.125,
    "dctcp_alpha0": 1.0,
    "pacing": False,
    "initial_rtt_ns": 50_000,
    "telemetry_mode": "exact",
    "telemetry_ports": ["root->t4"],
    "stddev_after_ns": 2_000_000,
    "drain_grace_ns": 0,
    "sweep": None,
}

CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                        "configs", "*.yaml")))


def _config(**settings):
    return RunConfig(seed=1, protocol="TCP", scenario=SCENARIO, **settings)


def test_defaults_are_pinned():
    fields = vars(_config())
    assert list(fields)[:3] == ["seed", "protocol", "scenario"]
    # repr tells 1.0 from 1 and pins the field order too
    assert repr(dict(list(fields.items())[3:])) == repr(DEFAULTS)


def test_each_config_gets_its_own_port_list():
    a, b = _config(), _config()
    a.telemetry_ports.append("t1->root")
    assert b.telemetry_ports == ["root->t4"]
    assert _config().telemetry_ports == ["root->t4"]


def test_unknown_keyword_is_a_type_error_naming_it():
    with pytest.raises(TypeError, match="'buffer_byte'"):
        _config(buffer_byte=1)


@pytest.mark.parametrize("name", ["seed", "protocol", "scenario", *DEFAULTS])
def test_equality_holds_for_equal_settings_only(name):
    assert _config() == _config()
    changed = dict(seed=1, protocol="TCP", scenario=SCENARIO)
    changed[name] = "changed"
    assert RunConfig(**changed) != _config()


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_effective_yaml_loads_back_as_the_same_config(path):
    cfg = load_config(path)
    assert config_from_dict(yaml.safe_load(effective_yaml(cfg))) == cfg


def test_a_list_two_fields_share_is_written_out_in_full():
    senders = ["h1", "h2"]
    scenario = {"kind": "sync_fanin", "n": 2, "senders": senders}
    shared = RunConfig(seed=1, protocol="TCP", scenario=scenario,
                       sweep={"param": "scenario.senders", "values": [senders]})
    apart = RunConfig(seed=1, protocol="TCP", scenario=scenario,
                      sweep={"param": "scenario.senders",
                             "values": [list(senders)]})
    assert effective_yaml(shared) == effective_yaml(apart)


REQUIRED = {"seed": 1, "protocol": "TCP", "scenario": SCENARIO}


def _rejection(raw):
    with pytest.raises(ConfigError) as info:
        config_from_dict(raw)
    return str(info.value)


@pytest.mark.parametrize("key", ["network.buffer_bytes", "telemetry_mode"])
def test_a_path_or_attribute_name_is_no_top_level_key(key):
    # only a section's own keys set its fields
    assert _rejection(dict(REQUIRED, **{key: 1})) == f"{key}: unknown config key"


@pytest.mark.parametrize("raw, field", [
    ({"network": 5, "bogus": 1, **REQUIRED}, "bogus"),   # unknown keys first
    ({"metrics": 5, "network": 5, **REQUIRED}, "network"),  # schema order
    ({"network": {"bogus": 1}}, "network.bogus"),   # sections before seed
    ({"protocol": "TCP"}, "seed"),
    ({"seed": 1, "scenario": SCENARIO}, "protocol"),
    ({"seed": 1, "protocol": "TCP"}, "scenario"),
], ids=["unknown_key_first", "sections_in_schema_order", "section_before_seed",
        "seed", "protocol", "scenario"])
def test_of_several_faults_the_first_in_schema_order_is_reported(raw, field):
    assert _rejection(raw).startswith(f"{field}: ")


def test_an_unquoted_off_mode_says_what_was_read():
    raw = dict(REQUIRED, **yaml.safe_load("telemetry:\n  mode: off\n"))
    assert _rejection(raw) == ("telemetry.mode: must be one of "
                               "('exact', 'fidelity', 'off'), got False")


SECTIONS = ("network", "switch", "transport", "telemetry", "metrics")


@pytest.mark.parametrize("section", SECTIONS)
@pytest.mark.parametrize("value", [False, [], 0, ""],
                         ids=["false", "empty_list", "zero", "empty_string"])
def test_a_false_section_value_is_no_empty_section(section, value):
    # a run on the defaults would hide the mistake
    assert _rejection(dict(REQUIRED, **{section: value})) == (
        f"{section}: must be a mapping")


@pytest.mark.parametrize("section", SECTIONS)
def test_a_null_section_reads_as_empty(section):
    # YAML reads a section whose keys are all commented out as null
    assert config_from_dict(dict(REQUIRED, **{section: None})) == (
        config_from_dict(REQUIRED))
