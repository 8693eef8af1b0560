"""Benchmark of the microburst simulator: host cost of three workloads.

    python3 perfbench/run.py --workload websearch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The simulator is imported from ``src/``
of that checkout; the benchmark exits with code 2 if it is not there.

``--trace 0`` repeats the workload until ``--seconds`` seconds have passed,
at least three times, and reports the end-to-end metrics of BENCHMARK.json
(medians over the repetitions, times corrected for the host's speed by
``calib``).  ``--trace 1`` runs the workload once untraced and once
traced and reports the per-layer metrics.  Every simulation is gated on its
fingerprint (see ``workloads.py``); the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, with machine information, every sample and, for traced
runs, the per-boundary breakdown and spans, goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.

``--record`` stores the fingerprints of a run without failures as the
reference for its seed in ``perfbench/fingerprints.json``.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import calib
import probes
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

IMPORT_SAMPLES = 5   # fresh-process imports per run
SETUP_SAMPLES = 5    # pre-loop builds of the whole workload per run
MIN_REPS = 3         # so the median never rests on the cold first repetition


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def load_package():
    if not os.path.isfile(os.path.join(SRC, "microburst", "__init__.py")):
        raise BenchError("no microburst package under src/ of this checkout")
    sys.path.insert(0, SRC)
    import microburst

    if not os.path.abspath(microburst.__file__).startswith(SRC + os.sep):
        raise BenchError(f"microburst imported from {microburst.__file__}, "
                         "not from src/ of this checkout")
    return microburst


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {os.path.basename(path)}: {exc}") from None


# -- machine -----------------------------------------------------------------

def _blas_threads(numpy):
    """Thread count the bundled OpenBLAS will use, or None if unknown."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(numpy),
        "thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
    }


def peak_rss_mb():
    """Peak resident set of this process or its largest child, MiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def cpu_seconds():
    """User+system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def import_seconds(modules):
    """(time to import ``modules`` in a fresh interpreter, speed factor
    from reference samples taken in that interpreter around the import)."""
    code = ("import time, calib\n"
            "before = [calib.sample() for _ in range(3)]\n"
            "t = time.perf_counter()\n"
            + "".join(f"import {m}\n" for m in modules)
            + "took = time.perf_counter() - t\n"
            "after = [calib.sample() for _ in range(3)]\n"
            "print(took, calib.factor(before + after))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, HERE, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    took, speed = done.stdout.split()[-2:]
    return float(took), float(speed)


# -- repetitions -------------------------------------------------------------

@dataclass
class Rep:
    label: str
    wall_s: float        # first call to last return, inspection and
                         # calibration samples taken out
    speed: float         # calib.factor over the repetition; 1.0 when no
                         # sampler ran (traced mode)
    records: list        # probes.SimRecord per simulation
    fingerprints: list
    problems: list
    error: str
    output_bytes: int

    @property
    def delivered(self):
        return sum(rec.outcome.facts["delivered"] for rec in self.records)


def _tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_rep(wl, seed, probe, work_dir, label, sampler=None):
    """One repetition; with a ``calib.Sampler`` running, its samples over
    the repetition give the speed factor."""
    out_dir = os.path.join(work_dir, label)
    output, error = None, None
    if sampler is not None:
        sampler.take()
    t0 = time.perf_counter()
    try:
        output = wl.run(seed, out_dir)
    except Exception:   # a failing simulation is counted, not fatal
        error = traceback.format_exc(limit=-4)
    wall = time.perf_counter() - t0
    speed = 1.0
    if sampler is not None:
        samples, sampled_s = sampler.take()
        wall -= sampled_s
        speed = calib.factor(samples or [calib.sample()])
    records, inspect_s = probe.take()
    fps, problems = [], []
    if error is None:
        try:
            fps, problems = workloads.judge_units(records, output)
        except OSError:
            error = traceback.format_exc(limit=-2)
    output_bytes = _tree_bytes(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return Rep(label, wall - inspect_s, speed, records, fps, problems, error,
               output_bytes)


def _judge(gate, rep):
    gate.judge(rep.label, rep.error, rep.fingerprints, rep.problems)


def _rep_summary(rep):
    return {"label": rep.label, "wall_s": rep.wall_s, "speed": rep.speed,
            "delivered": rep.delivered, "output_bytes": rep.output_bytes,
            "sim_wall_s": [rec.wall_s for rec in rep.records],
            "sim_build_s": [rec.build_s for rec in rep.records],
            "fingerprints": rep.fingerprints, "error": rep.error}


def _corrected(timed):
    """Host seconds scaled by the speed factor measured with them."""
    return [took * speed for took, speed in timed]


def measure(wl, seed, seconds, gate, work_dir):
    """Untraced repetitions until ``seconds`` have passed, at least
    MIN_REPS of them: end-to-end metrics.

    Every time is corrected for the host's speed over its own window (see
    ``calib``): repetitions by the samples the sampler took while they ran,
    imports and builds by samples taken just before and after each.
    """
    imports = [import_seconds(wl.imports) for _ in range(IMPORT_SAMPLES)]
    patches = probes.Patches()
    probe = probes.SimProbe(lambda r: workloads.inspect(r, wl.drained))
    reps = []
    try:
        probe.install(patches)
        with calib.Sampler() as sampler:
            start = time.perf_counter()
            while (len(reps) < MIN_REPS
                   or time.perf_counter() - start < seconds):
                rep = run_rep(wl, seed, probe, work_dir, f"rep{len(reps)}",
                              sampler)
                reps.append(rep)
                _judge(gate, rep)
        configs = [rec.cfg for rec in reps[0].records]
        builds = [calib.bracket(lambda: probe.setup_pass(configs))
                  for _ in range(SETUP_SAMPLES)]
    finally:
        patches.restore()
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "pkts_per_s": statistics.median(
            r.delivered / (r.wall_s * r.speed) for r in reps),
        "pkts_per_s_raw": statistics.median(
            r.delivered / r.wall_s for r in reps),
        "host_speed": statistics.median(r.speed for r in reps),
        "setup_s": (statistics.median(_corrected(imports))
                    + statistics.median(_corrected(builds))),
        "setup_s_raw": (statistics.median(t for t, _ in imports)
                        + statistics.median(t for t, _ in builds)),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"reps": [_rep_summary(r) for r in reps],
              "import_s": imports, "setup_build_s": builds}
    return metrics, detail


def measure_traced(wl, seed, gate, work_dir):
    """One untraced and one traced repetition: per-layer metrics.

    The untraced pass runs with only the workload's own modules loaded, as
    in an untraced run, so its collector figures are comparable; the rest
    of the package is imported between the passes, with no patch in place.
    """
    probe = probes.SimProbe(lambda r: workloads.inspect(r, wl.drained))
    patches = probes.Patches()
    try:
        probe.install(patches)
        cpu0 = cpu_seconds()
        with probes.GcWatch() as gc_watch:
            untraced = run_rep(wl, seed, probe, work_dir, "untraced")
        cpu_s = cpu_seconds() - cpu0
    finally:
        patches.restore()
    _judge(gate, untraced)
    tracing.import_modules()
    tracer = tracing.Tracer()
    try:
        probe.install(patches)
        tracer.install(patches)
        origin = time.perf_counter_ns()
        traced = run_rep(wl, seed, probe, work_dir, "traced")
    finally:
        patches.restore()
    _judge(gate, traced)
    for rec, sid in zip(traced.records, tracer.span_ids("sim.run_simulation")):
        tracer.add_span("sim.setup", sid, rec.t_call_ns, rec.t_loop_ns)
    overhead_s = traced.wall_s - untraced.wall_s
    metrics = tracing.layer_metrics(
        tracer, [rec.outcome.facts for rec in traced.records],
        traced.output_bytes, untraced.records, gc_watch, cpu_s, overhead_s)
    detail = {"reps": [_rep_summary(untraced), _rep_summary(traced)],
              "tracing_overhead_s": overhead_s,
              "tracing_overhead_ratio": overhead_s / untraced.wall_s,
              "gc_collections": gc_watch.collections,
              "boundaries": tracer.table(),
              "skipped_boundaries": tracer.skipped,
              "spans": tracer.span_dump(origin)}
    return metrics, detail


def run_benchmark(wl, seed, seconds, trace, bench, recorded):
    """Measure one workload; returns (result line, full report)."""
    for module in wl.imports:   # before the probe rebinds their names
        importlib.import_module(module)
    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    gate = workloads.Gate(wl, recorded)
    load_before = os.getloadavg()
    try:
        if trace:
            metrics, detail = measure_traced(wl, seed, gate, work_dir)
        else:
            metrics, detail = measure(wl, seed, seconds, gate, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    load_after = os.getloadavg()
    declared = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    line = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    report = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "result": line,
        "failed_ratio": gate.failed / gate.attempted,
        "failures": gate.failures,
        "fingerprints": gate.reference,
        "fingerprints_recorded": recorded is not None,
        "all_metrics": metrics,
        "loadavg_before": load_before, "loadavg_after": load_after,
        "machine": machine_info(),
        **detail,
    }
    return line, report


# Printed and recorded with every untraced run, but not declared in
# BENCHMARK.json: failed_ratio is 0 on a healthy run, so no bound relative
# to it can hold, and wall_s mixes host cost with the web-search input's
# work, which varies ~10% between seeds; pkts_per_s carries the same cost
# per unit of work.  The *_raw figures are pkts_per_s and setup_s before the
# host-speed correction, and host_speed is the median correction factor.
UNGATED_UNITS = {"wall_s": "s", "failed_ratio": "ratio",
                 "pkts_per_s_raw": "1/s", "setup_s_raw": "s",
                 "host_speed": "ratio"}


def print_table(report):
    line = report["result"]
    name = report["workload"]
    rows = [(metric, entry["value"], entry["unit"])
            for metric, entry in line["metrics"].items()]
    if not report["trace"]:
        extra = dict(report["all_metrics"], failed_ratio=report["failed_ratio"])
        rows += [(metric, extra[metric], unit)
                 for metric, unit in UNGATED_UNITS.items()]
    width = max(len(r[0]) for r in rows)
    for metric, value, unit in rows:
        print(f"{name:<13} {metric:<{width}} {value:>16.6g} {unit}")
    if report["trace"]:
        print(f"{name:<13} tracing overhead {report['tracing_overhead_s']:.3f} s "
              f"({report['tracing_overhead_ratio'] * 100:.0f}% of untraced)")
        print(f"{name:<13} {'boundary':<28} {'calls':>10} {'self_s':>9} "
              f"{'ns/call':>9}")
        for row in report["boundaries"]:
            print(f"{name:<13} {row['name']:<28} {row['calls']:>10} "
                  f"{row['self_s']:>9.3f} {row['self_ns_per_call']:>9.0f}")
    m = report["machine"]
    blas = (m["blas"] or {}).get("name", "unknown BLAS")
    print(f"{name:<13} machine: {m['nproc']} cpus, Python {m['python']}, "
          f"numpy {m['numpy']}, {blas} with {m['blas_threads']} threads, "
          f"load {report['loadavg_before'][0]:.2f} -> "
          f"{report['loadavg_after'][0]:.2f}")
    for failure in report["failures"][:5]:
        print(f"{name:<13} FAILED {failure}")
    print(f"{name:<13} attempted {line['attempted']} failed {line['failed']} "
          f"correct {line['correct']}")


def record_fingerprints(workload, seed, fingerprints):
    doc = load_json(FINGERPRINTS)
    doc["workloads"].setdefault(workload, {})[str(seed)] = fingerprints
    with open(FINGERPRINTS, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    try:
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        load_package()
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose one "
                             f"of {', '.join(workloads.WORKLOADS)}")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        known = load_json(FINGERPRINTS)["workloads"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    recorded = None
    if not args.record:
        recorded = known.get(wl.name, {}).get(str(args.seed))
    line, report = run_benchmark(wl, args.seed, args.seconds, args.trace,
                                 bench, recorded)
    path = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print_table(report)
    if args.record and line["correct"]:
        record_fingerprints(wl.name, args.seed, report["fingerprints"])
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
