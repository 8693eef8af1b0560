"""Command-line front end: run a configured simulation (or a sweep) and
write its CSV outputs plus a ``perf.json`` of wall time and rates, or run
one of the named acceptance checks.

    microburst run config.yaml --out results/
    microburst check law1
    microburst check checks.yaml --seed 7
"""

import argparse
import json
import os
import resource
import sys
import time

from .checks import CHECKS, run_check
from .config import ConfigError, config_from_dict, expand, read_yaml
from .sim import prepare_run, run_plan, write_outputs

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2


def cmd_run(args) -> int:
    # every point's config and schedule are checked before the first run,
    # so a bad sweep value leaves no partial output behind; the first
    # point's own check, inside run_simulation, raises before any output
    try:
        raw = read_yaml(args.config)
        if args.seed is not None and isinstance(raw, dict):
            raw = dict(raw, seed=args.seed)
        sweep = config_from_dict(raw).sweep
        base = {k: v for k, v in raw.items() if k != "sweep"}
        plan = expand(base, {sweep["param"]: sweep["values"]} if sweep else {})
        for _, cfg in plan[1:]:
            prepare_run(cfg)
        started = time.perf_counter()
        for label, (result, ended) in run_plan(
                plan, lambda result: (result, time.perf_counter())):
            out_dir = os.path.join(args.out, *label)
            write_outputs(result, out_dir)
            write_perf(result, ended - started, out_dir)
            print(f"wrote {out_dir}")
            del result     # free this run before the next one is built
            started = time.perf_counter()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:   # simulation failure is an internal error
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def write_perf(result, wall_s, out_dir):
    """``perf.json``: the simulation's wall time and rates, and the peak
    resident memory of this process so far.  None of it is deterministic,
    so it stays out of the five output files."""
    s = result.summary
    perf = {"wall_s": wall_s,
            "events_per_s": s.events_dispatched / wall_s,
            "pkts_per_s": s.packets_delivered / wall_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    with open(os.path.join(out_dir, "perf.json"), "w") as fh:
        json.dump(perf, fh, indent=1)
        fh.write("\n")


def _check_target(target, seed):
    """(check name, base seed) from a check name or a YAML file naming one."""
    name = target
    if target not in CHECKS and os.path.exists(target):
        raw = read_yaml(target) or {}
        if not isinstance(raw, dict):
            raise ConfigError("<root>", "check file must be a mapping")
        name = raw.get("check")
        if seed is None:
            seed = raw.get("seed")
    if not isinstance(name, str) or name not in CHECKS:
        raise ConfigError("check", f"unknown check {target!r}; "
                                   f"available: {', '.join(sorted(CHECKS))}")
    if seed is not None and type(seed) is not int:
        raise ConfigError("seed", f"must be an integer, not {seed!r}")
    return name, 1 if seed is None else seed


def cmd_check(args) -> int:
    try:
        name, seed = _check_target(args.target, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = run_check(name, base_seed=seed)
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    for line in result.lines:
        print(f"  {line}")
    print(f"{'PASS' if result.passed else 'FAIL'}: {result.name}")
    return EXIT_OK if result.passed else EXIT_INTERNAL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="microburst",
        description="Packet-level micro-burst simulator and acceptance checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured simulation or sweep")
    p_run.add_argument("config", help="YAML run configuration")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("check", help="run a named acceptance check")
    p_check.add_argument("target",
                         help=f"check name ({', '.join(sorted(CHECKS))}) "
                              f"or a YAML file naming one")
    p_check.add_argument("--seed", type=int, default=None,
                         help="base seed for the check's repetitions")
    p_check.set_defaults(fn=cmd_check)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
