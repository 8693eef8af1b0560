"""Run configuration: YAML schema, defaults, validation, protocol matrix.

A run is one scenario under one protocol.  ``PROTOCOLS`` pairs each
protocol name with a host congestion-control algorithm and the marking of
every switch port.
"""

import copy
import functools
import itertools

from .topology import PORT_IDS
from .transport import NEWRENO, DCTCP, RTO_MAX_NS
from .units import GBPS, serialization_ns


class ConfigError(Exception):
    """Invalid config; message names the offending field."""

    def __init__(self, field_path, message):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


PROTOCOLS = {
    # name: (host algorithm, threshold marking, slope marking); a protocol's
    # hosts are ECN-capable exactly when its switches mark
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

# fields that count something and so must be integers >= the given minimum
_COUNTS = {"duration_ns": 0, "link_rate_bps": 1, "prop_delay_ns": 0,
           "hop_proc_ns": 0, "buffer_bytes": 0, "ecn_threshold_bytes": 0,
           "mss_bytes": 1, "initial_window_packets": 1, "max_cwnd_packets": 1,
           "rto_min_ns": 1, "initial_rtt_ns": 0, "stddev_after_ns": 0,
           "drain_grace_ns": 0}


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


# every RunConfig field after seed, protocol and scenario, and its default
_DEFAULTS = {
    "duration_ns": 0,              # 0: run until the event set drains
    # network
    "link_rate_bps": GBPS, "prop_delay_ns": 0, "hop_proc_ns": 0,
    "buffer_bytes": 512_000, "tor_uplink_buffer_bytes": None,
    # switch marking
    "ecn_threshold_bytes": 32_000,
    # transport
    "mss_bytes": 1500, "initial_window_packets": 3, "max_cwnd_packets": 64,
    "rto_min_ns": 10_000_000, "dctcp_gain": 0.125, "dctcp_alpha0": 1.0,
    "pacing": False, "initial_rtt_ns": 50_000,
    # telemetry / metrics
    "telemetry_mode": "exact",
    "telemetry_ports": None,       # each config gets a fresh list
    "stddev_after_ns": 2_000_000,
    "drain_grace_ns": 0,           # extra time past duration for in-flight data
    "sweep": None,                 # optional {param: dotted.path, values: [...]}
}


class RunConfig:
    """A run's settings: seed, protocol, scenario, then ``_DEFAULTS`` fields."""

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
                              f"must be one of {TELEMETRY_MODES}")
        for name, minimum in _COUNTS.items():
            check_int(_FIELD_PATHS.get(name, name), getattr(self, name),
                      minimum)
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
            if len({str(value) for value in values}) < len(values):
                raise ConfigError("sweep.values", f"each value names an output "
                                  f"subdirectory, so no two may read alike; "
                                  f"got {values!r}")
        return self

    def host_algorithm(self):
        return PROTOCOLS[self.protocol][0]


_SECTIONS = {
    "network": ("link_rate_bps", "prop_delay_ns", "hop_proc_ns",
                "buffer_bytes", "tor_uplink_buffer_bytes"),
    "switch": ("ecn_threshold_bytes",),
    "transport": ("mss_bytes", "initial_window_packets", "max_cwnd_packets",
                  "rto_min_ns", "dctcp_gain", "dctcp_alpha0", "pacing",
                  "initial_rtt_ns"),
    "telemetry": ("mode", "ports"),
    "metrics": ("stddev_after_ns", "drain_grace_ns"),
}

_TOP_FIELDS = ("seed", "protocol", "scenario", "duration_ns", "sweep")
_TOP_KEYS = set(_TOP_FIELDS) | set(_SECTIONS)


def _field_name(section, name):
    """The RunConfig field a sectioned YAML key sets."""
    return f"telemetry_{name}" if section == "telemetry" else name


# sectioned RunConfig field -> its dotted path in the YAML file
_FIELD_PATHS = {name: f"{section}.{name}"
                for section, names in _SECTIONS.items() for name in names}
# what a sweep's param may name, besides a scenario key
_SWEEPABLE = (set(_TOP_FIELDS) - {"sweep"}) | set(_FIELD_PATHS.values())


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a mapping")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(key, "unknown config key")
    kwargs = {}
    for key in _TOP_FIELDS:
        if key in raw:
            kwargs[key] = raw[key]
    for section, names in _SECTIONS.items():
        sub = raw.get(section) or {}
        if not isinstance(sub, dict):
            raise ConfigError(section, "must be a mapping")
        for key in sub:
            if key not in names:
                raise ConfigError(f"{section}.{key}", "unknown config key")
        for name in names:
            if name in sub:
                kwargs[_field_name(section, name)] = sub[name]
    if "seed" not in kwargs:
        raise ConfigError("seed", "seed is mandatory")
    if "protocol" not in kwargs:
        raise ConfigError("protocol", "protocol is mandatory")
    if "scenario" not in kwargs:
        raise ConfigError("scenario", "scenario is mandatory")
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
                node = node.setdefault(parent, {})
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
    raw = {key: flat[key] for key in _TOP_FIELDS}
    for section, names in _SECTIONS.items():
        raw[section] = {name: flat[_field_name(section, name)]
                        for name in names}
    return yaml.dump(raw, Dumper=_yaml_dumper(), sort_keys=True,
                     default_flow_style=False)


@functools.cache
def _yaml_dumper():
    """The safe dumper, built on first use so PyYAML still loads lazily: a
    list or dict two fields share is written out in full, never aliased."""
    import yaml
    return type("Dumper", (yaml.SafeDumper,),
                {"ignore_aliases": lambda self, data: True})
