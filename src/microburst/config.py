"""Run configuration: YAML schema, defaults, validation, protocol matrix.

A run is one scenario under one protocol.  ``PROTOCOLS`` pairs each
protocol name with a host congestion-control algorithm and the marking of
the switch ports that data crosses.
"""

import copy
import functools
import itertools
import os

from .topology import PORT_IDS
from .transport import NEWRENO, DCTCP, RTO_MAX_NS
from .units import GBPS, serialization_ns


class ConfigError(Exception):
    """Invalid config; message names the offending field."""

    def __init__(self, field_path, message):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


PROTOCOLS = {
    # name: (host algorithm, threshold marking, slope marking) of every
    # switch port some flow's data can cross (ACKs are never marked); a
    # protocol's hosts are ECN-capable exactly when its switches mark
    "TCP": (NEWRENO, False, False),         # tail drop only
    "ECN*": (NEWRENO, True, False),
    "S-ECN": (NEWRENO, False, True),
    "SL-ECN": (NEWRENO, True, True),        # slope below K, all above
    "DCTCP": (DCTCP, True, False),
    "DCTCP+SL-ECN": (DCTCP, True, True),
}

TELEMETRY_MODES = ("exact", "fidelity", "off")

DEFAULT_MONITOR_PORT = "root->t4"

PRESET_PORTS = frozenset(PORT_IDS)

NAME_MAX_BYTES = 255   # longest file name on common file systems


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_int(path, value, minimum):
    """A ConfigError naming ``path`` unless ``value`` is an integer >=
    ``minimum``."""
    if not _is_int(value) or value < minimum:
        raise ConfigError(path, f"must be an integer >= {minimum}, "
                                f"got {value!r}")


# RunConfig's positional fields, which every config sets
_REQUIRED = ("seed", "protocol", "scenario")
# every other field's dotted YAML path -> (default, least allowed integer if
# the field counts something, else None)
_FIELDS = {
    "duration_ns": (0, 0),         # 0: run until the event set drains
    "network.link_rate_bps": (GBPS, 1),
    "network.prop_delay_ns": (0, 0),
    "network.hop_proc_ns": (0, 0),
    "network.buffer_bytes": (512_000, 0),
    "network.tor_uplink_buffer_bytes": (None, None),
    "switch.ecn_threshold_bytes": (32_000, 0),
    "transport.mss_bytes": (1500, 1),
    "transport.initial_window_packets": (3, 1),
    "transport.max_cwnd_packets": (64, 1),
    "transport.rto_min_ns": (10_000_000, 1),
    "transport.dctcp_gain": (0.125, None),
    "transport.dctcp_alpha0": (1.0, None),
    "transport.pacing": (False, None),
    "transport.initial_rtt_ns": (50_000, 0),
    "telemetry.mode": ("exact", None),
    "telemetry.ports": (None, None),   # each config gets a fresh list
    "metrics.stddev_after_ns": (2_000_000, 0),
    "metrics.drain_grace_ns": (0, 0),  # extra time past duration for in-flight data
    "sweep": (None, None),   # optional {param: dotted.path, values: [...]}
}


def _attr(path):
    """The RunConfig attribute a dotted YAML path sets."""
    section, _, key = path.rpartition(".")
    return f"telemetry_{key}" if section == "telemetry" else key


def _by_section():
    """Each section's ``{YAML key: RunConfig attribute}``, in schema order."""
    sections = {}
    for path in _FIELDS:
        section, _, key = path.rpartition(".")
        if section:
            sections.setdefault(section, {})[key] = _attr(path)
    return sections


# views of _FIELDS, built once; a sweep may name a _SWEEPABLE or scenario key
_ATTRS = {path: _attr(path) for path in (*_REQUIRED, *_FIELDS)}
_DEFAULTS = {_attr(path): default for path, (default, _) in _FIELDS.items()}
_COUNTS = [(p, _attr(p), low) for p, (_, low) in _FIELDS.items() if low is not None]
_SECTIONS = _by_section()
_SWEEPABLE = set(_ATTRS) - {"sweep"}


class RunConfig:
    """Seed, protocol, scenario, then an attribute per ``_FIELDS`` path."""

    def __init__(self, seed, protocol, scenario, **settings):
        for name in settings:
            if name not in _DEFAULTS:
                raise TypeError(f"RunConfig() got an unexpected keyword "
                                f"argument {name!r}")
        self.seed, self.protocol, self.scenario = seed, protocol, scenario
        self.__dict__.update(_DEFAULTS, telemetry_ports=[DEFAULT_MONITOR_PORT])
        self.__dict__.update(settings)

    def __eq__(self, other):
        if type(other) is not RunConfig:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"RunConfig({fields})"

    def validate(self):
        if not _is_int(self.seed):
            raise ConfigError("seed", "seed is mandatory and must be an integer")
        if not isinstance(self.protocol, str) or self.protocol not in PROTOCOLS:
            raise ConfigError("protocol",
                              f"unknown protocol {self.protocol!r}; "
                              f"choose one of {', '.join(PROTOCOLS)}")
        if not isinstance(self.scenario, dict) or "kind" not in self.scenario:
            raise ConfigError("scenario", "must be a mapping with a 'kind'")
        if self.telemetry_mode not in TELEMETRY_MODES:
            raise ConfigError("telemetry.mode",
                              f"must be one of {TELEMETRY_MODES}, "
                              f"got {self.telemetry_mode!r}")
        for path, attr, minimum in _COUNTS:
            check_int(path, getattr(self, attr), minimum)
        # once a segment's wire time exceeds the largest RTO, resends enter
        # the sender's NIC faster than it drains them, and a drained run's
        # length grows exponentially with its flows' segment counts
        mss = self.mss_bytes
        wire_ns = serialization_ns(mss, self.link_rate_bps)
        if not self.duration_ns and wire_ns > RTO_MAX_NS:
            raise ConfigError("network.link_rate_bps",
                              f"a drained run (duration_ns: 0) needs a "
                              f"segment's wire time of at most the largest "
                              f"RTO, {RTO_MAX_NS} ns; {mss} B at "
                              f"{self.link_rate_bps} bps take {wire_ns} ns")
        # a buffer smaller than one segment can never admit a full one
        if self.buffer_bytes < mss:
            raise ConfigError("network.buffer_bytes",
                              f"must be >= mss_bytes ({mss}), "
                              f"got {self.buffer_bytes!r}")
        uplink = self.tor_uplink_buffer_bytes
        if uplink is not None and (not _is_int(uplink) or uplink < mss):
            raise ConfigError("network.tor_uplink_buffer_bytes",
                              f"must be null or an integer >= mss_bytes "
                              f"({mss}), got {uplink!r}")
        if not _is_number(self.dctcp_gain) or not 0 < self.dctcp_gain <= 1:
            raise ConfigError("transport.dctcp_gain",
                              f"must be a number in (0, 1], got {self.dctcp_gain!r}")
        if not _is_number(self.dctcp_alpha0) or not 0 <= self.dctcp_alpha0 <= 1:
            raise ConfigError("transport.dctcp_alpha0",
                              f"must be a number in [0, 1], got {self.dctcp_alpha0!r}")
        if not isinstance(self.pacing, bool):
            raise ConfigError("transport.pacing",
                              f"must be true or false, got {self.pacing!r}")
        if not isinstance(self.telemetry_ports, list):
            raise ConfigError("telemetry.ports", "must be a list of port names")
        for port in self.telemetry_ports:
            if not isinstance(port, str) or port not in PRESET_PORTS:
                raise ConfigError("telemetry.ports",
                                  f"no port {port!r} in the preset topology; "
                                  f"names are '<node>-><node>', e.g. "
                                  f"{DEFAULT_MONITOR_PORT!r}")
        if self.sweep is not None:
            sweep = self.sweep if isinstance(self.sweep, dict) else {}
            param, values = sweep.get("param"), sweep.get("values")
            if (not isinstance(param, str) or not all(param.split("."))
                    or not isinstance(values, list) or not values):
                raise ConfigError("sweep", "needs a dotted 'param' name and "
                                  "a non-empty list of 'values'")
            if param not in _SWEEPABLE and not param.startswith("scenario."):
                raise ConfigError("sweep", f"param {param!r} names no config "
                                  f"field")
            labels = {str(value) for value in values}
            if len(labels) < len(values):
                raise ConfigError("sweep.values", f"each value names an output "
                                  f"subdirectory, so no two may read alike; "
                                  f"got {values!r}")
            joined = "".join(labels)
            if os.sep in joined or (os.altsep and os.altsep in joined):
                raise ConfigError("sweep.values", f"each value names an output "
                                  f"subdirectory, so none may hold a path "
                                  f"separator; got {values!r}")
            key = param.rpartition(".")[2]
            for i, value in enumerate(values):
                size = len(f"{key}={value}".encode())
                if size > NAME_MAX_BYTES:
                    raise ConfigError("sweep.values", f"each value names an "
                                      f"output subdirectory '{key}=<value>', "
                                      f"of at most {NAME_MAX_BYTES} bytes in "
                                      f"UTF-8; value {i} makes {size}")
        return self

    def host_algorithm(self):
        return PROTOCOLS[self.protocol][0]


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a mapping")
    kwargs = {}
    for key, value in raw.items():
        if key not in _SECTIONS:
            if key not in _ATTRS or "." in key:
                raise ConfigError(key, "unknown config key")
            kwargs[key] = value
    for section, attrs in _SECTIONS.items():
        sub = raw.get(section)
        if sub is None:   # null: all its keys commented out
            continue
        if not isinstance(sub, dict):
            raise ConfigError(section, "must be a mapping")
        for key, value in sub.items():
            if key not in attrs:
                raise ConfigError(f"{section}.{key}", "unknown config key")
            kwargs[attrs[key]] = value
    for key in _REQUIRED:
        if key not in kwargs:
            raise ConfigError(key, f"{key} is mandatory")
    return RunConfig(**kwargs).validate()


def expand(raw: dict, axes: dict) -> list:
    """``(label, RunConfig)`` of every point of the sectioned config ``raw``
    swept over ``axes``, an ordered ``{dotted.path: values}`` with the first
    axis outermost.  A label, one ``key=value`` per axis, names a sweep's
    output subdirectory."""
    points = []
    for values in itertools.product(*axes.values()):
        point = copy.deepcopy(raw)
        label = []
        for dotted, value in zip(axes, values):
            *parents, key = dotted.split(".")
            node = point
            for parent in parents:
                if node.get(parent) is None:   # null: all its keys commented out
                    node[parent] = {}
                node = node[parent]
                if not isinstance(node, dict):
                    raise ConfigError("sweep", f"{dotted!r}: {parent!r} "
                                      f"is not a mapping")
            node[key] = value
            label.append(f"{key}={value}")
        points.append((tuple(label), config_from_dict(point)))
    return points


def read_yaml(path: str):
    """A YAML file's contents; ConfigError naming ``<file>`` if unreadable."""
    import yaml   # local import: PyYAML loads only for runs that need it
    try:
        with open(path) as fh:
            return yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("<file>", str(exc)) from None
    except yaml.YAMLError as exc:
        raise ConfigError("<file>", f"not valid YAML: {exc}") from None


def load_config(path: str) -> RunConfig:
    return config_from_dict(read_yaml(path))


def effective_yaml(cfg: RunConfig) -> str:
    """``cfg`` in the sectioned schema, so ``config_from_dict`` loads it back."""
    import yaml
    flat = vars(cfg)
    raw = {path: flat[path] for path in _ATTRS if "." not in path}
    for section, attrs in _SECTIONS.items():
        raw[section] = {key: flat[attr] for key, attr in attrs.items()}
    return yaml.dump(raw, Dumper=_yaml_dumper(), sort_keys=True,
                     default_flow_style=False)


@functools.cache
def _yaml_dumper():
    """The safe dumper, built on first use so PyYAML still loads lazily: a
    list or dict two fields share is written out in full, never aliased."""
    import yaml
    return type("Dumper", (yaml.SafeDumper,),
                {"ignore_aliases": lambda self, data: True})
