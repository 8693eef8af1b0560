"""Smoke self-test of the benchmark, sized to seconds.

    python3 perfbench/selftest.py

On cut-down instances of the three workloads it checks that every metric
BENCHMARK.json names is emitted in both modes and that the traced pass
reproduces the untraced fingerprints; that a perturbed result (a flipped
flow end time) and a wrong recorded fingerprint both trip the gate; and
that the benchmark refuses to run, without printing a result, where the
package is missing; and that the host-speed reference routine allocates
nothing the collector tracks and its correction is applied.  Exits 1 if
any check fails.
"""

import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

import calib
import run
import workloads

FAILED = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILED.append(what)


def metrics_emitted(bench):
    for name, make in workloads.SMOKE.items():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            line, _ = run.run_benchmark(make(), 3, 1, trace, bench, None)
            declared = {m["name"] for m in bench[section]}
            values = line["metrics"].values()
            expect(set(line["metrics"]) == declared
                   and all(isinstance(v["value"], (int, float))
                           and not isinstance(v["value"], bool)
                           for v in values),
                   f"{name} trace={trace}: all {len(declared)} {section} "
                   "metrics emitted as numbers")
            expect(line["correct"] and line["failed"] == 0
                   and line["attempted"] >= 1,
                   f"{name} trace={trace}: {line['attempted']} attempted, "
                   f"{line['failed']} failed")


def perturbed_result_fails(bench):
    from microburst import sim

    real = sim.run_simulation
    calls = [0]

    def perturbed(cfg):
        result = real(cfg)
        calls[0] += 1
        if calls[0] == 3:   # first simulation of the second repetition
            result.flows[0].end_ns += 1
        return result

    sim.run_simulation = perturbed
    try:
        line, report = run.run_benchmark(workloads.SMOKE["fanin_traced"](),
                                         3, 1, 0, bench, None)
    finally:
        sim.run_simulation = real
    expect(len(report["reps"]) >= 2 and not line["correct"]
           and line["failed"] == 1,
           f"flipped flow end time trips the gate ({line['failed']} of "
           f"{line['attempted']} failed)")


def recorded_fingerprints_gate(bench):
    make = workloads.SMOKE["fanin_traced"]
    _, report = run.run_benchmark(make(), 3, 1, 1, bench, None)
    good = report["fingerprints"]
    line, _ = run.run_benchmark(make(), 3, 1, 1, bench, good)
    expect(line["correct"], "matching recorded fingerprints pass")
    wrong = ["0" * 64] + good[1:]
    line, _ = run.run_benchmark(make(), 3, 1, 1, bench, wrong)
    expect(not line["correct"] and line["failed"] == 2,
           "a wrong recorded fingerprint fails that unit in both passes")


def calibration_checks(bench):
    def young_objects_made(fn):
        gc.collect()
        before = gc.get_count()   # this tuple counts as one object
        fn()
        return gc.get_count()[0] - before[0]

    expect(young_objects_made(calib.reference)
           == young_objects_made(lambda: None),
           "the reference routine leaves the collector's counts unchanged")
    _, report = run.run_benchmark(workloads.SMOKE["fanin_traced"](),
                                  3, 1, 0, bench, None)
    reps = report["reps"]
    corrected = statistics.median(r["delivered"] / (r["wall_s"] * r["speed"])
                                  for r in reps)
    expect(math.isclose(report["all_metrics"]["pkts_per_s"], corrected)
           and all(r["speed"] > 0 for r in reps),
           "pkts_per_s is a repetition's rate with its speed factor applied")


def refuses_without_package():
    place = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), place + ".json")
        os.makedirs(place)
        os.replace(place + ".json", os.path.join(place, "BENCHMARK.json"))
        shutil.copytree(run.HERE, os.path.join(place, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "websearch",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=place, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(place, ignore_errors=True)
    expect(done.returncode != 0 and not done.stdout.strip(),
           f"without src/ it exits {done.returncode} and prints no result")


def main():
    run.load_package()
    bench = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    os.makedirs(run.OUT, exist_ok=True)
    metrics_emitted(bench)
    perturbed_result_fails(bench)
    recorded_fingerprints_gate(bench)
    calibration_checks(bench)
    refuses_without_package()
    print(json.dumps({"selftest_failures": FAILED}))
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
