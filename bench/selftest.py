"""Self-test of the benchmark: python3 bench/selftest.py

Checks, on a few instances of every workload, that traced and untraced runs
of the same seed give identical outputs that pass the answer checks; that
self times recomputed from the recorded spans match the running totals and
account for the traced wall time; that a wrapped name which no longer
exists is reported as absent; that uninstalling restores every binding;
that the seed alone fixes the inputs; and that BENCHMARK.json lists exactly
the metrics run.py prints.
"""

from __future__ import annotations

import json
import sys

import run
import tracer as tracing
from workloads import WORKLOADS

INSTANCES = 8
SEED = 12345


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def traced_matches_untraced(name, workload):
    members, _ = run.generate(workload, SEED)
    members = members[:INSTANCES]
    lib, instances = run.setup(workload, members)
    plain = run.Outcomes(len(instances))
    traced = run.Outcomes(len(instances))
    run.run_pass(workload, lib, instances, outcomes=plain)
    tr = tracing.Tracer()
    originals = {attr: getattr(lib.polyring, attr) for attr in ("gcd_many", "compose_poly")}
    tr.install()
    try:
        wall = run.run_pass(workload, lib, instances, tracer=tr, outcomes=traced)
    finally:
        tr.uninstall()
    check(plain.first == traced.first, f"{name}: traced outputs differ from untraced ones")
    failed, reasons = run.check_outputs(workload, members, plain)
    check(failed == 0, f"{name}: answers rejected: {reasons}")
    check(not tr.absent, f"{name}: names missing from ratmaps: {tr.absent}")
    check(tr.spans_dropped == 0, f"{name}: spans dropped")
    # hook time is charged to no group online, but to the parent span's
    # self time when recomputed from span records alone
    from_spans = tr.self_times_from_spans()
    check(
        all(a >= b for a, b in zip(from_spans, tr.self_ns))
        and sum(from_spans) - sum(tr.self_ns) == tr.hook_ns,
        f"{name}: span self times disagree",
    )
    share = sum(tr.self_ns) / wall
    check(0.9 < share <= 1.0, f"{name}: self times account for {share:.3f} of the wall time")
    tr.install()  # again, from the bindings found the first time
    check(lib.polyring.gcd_many is not originals["gcd_many"], f"{name}: second install did nothing")
    tr.uninstall()
    for attr, original in originals.items():
        check(getattr(lib.polyring, attr) is original, f"{name}: {attr} not restored")
    for mod in (lib.subfield, lib.homog, lib.gordan_noether):
        check(getattr(mod, "gcd_many", None) in (None, originals["gcd_many"]), "binding not restored")
    print(f"ok {name}: {len(instances)} instances, {len(tr.spans) // 4} spans, "
          f"self times account for {share:.4f} of traced wall time")


def absent_names_are_reported():
    run.Lib()
    layers = dict(tracing.LAYERS)
    missing = ["polyring:_iz_gcd_removed", "nosuchmodule:f", "polyring:NoClass.method"]
    layers["polyring.gcd"] = layers["polyring.gcd"] + missing
    tr = tracing.Tracer(layers)
    tr.install()
    tr.uninstall()
    check(tr.absent == missing, f"absent names reported as {tr.absent}")
    print("ok absent names reported:", ", ".join(missing))


def seeds_fix_inputs():
    for name, workload in WORKLOADS.items():
        check(workload.select(7) == workload.select(7), f"{name}: seed 7 not reproducible")
        check(workload.select(7) != workload.select(8), f"{name}: seeds 7 and 8 give the same inputs")
        a = [workload.member(i) for i, _ in workload.select(7)[:5]]
        b = [workload.member(i) for i, _ in workload.select(7)[:5]]
        check(a == b, f"{name}: members not reproducible")
    print("ok seeds fix the inputs")


def weighted_percentiles():
    plain = [(float(v), 1.0) for v in range(1, 21)]
    # each value covers 5% of the weight; the bands straddle two values
    check(abs(run.percentile(plain, 0.95) - 19.5) < 1e-9, "p95 of 1..20 is not 19.5")
    check(abs(run.percentile(plain, 0.50) - 10.5) < 1e-9, "p50 of 1..20 is not 10.5")
    check(abs(run.percentile(plain, 0.90) - 18.5) < 1e-9, "p90 of 1..20 is not 18.5")
    halves = [(1.0, 0.5), (2.0, 0.5), (3.0, 1.0)]
    check(abs(run.percentile(halves, 0.5) - 2.5) < 1e-9, "weighted median of 1, 2 (half weight) and 3")
    check(abs(run.percentile(halves, 0.75) - 3.0) < 1e-9, "a band inside one value gives that value")
    # mean times 2, 2 and 3 ms: 5 ms per 2 weighted verdicts; 9 ms inside
    # instances out of 10 ms of wall time
    times = [[(0, 1e6), (0, 3e6)], [(0, 2e6)], [(0, 3e6)]]
    weights = [0.5, 0.5, 1.0]
    rate = run.throughput(times, weights, 10e6, run.unscaled)
    check(abs(rate - 360.0) < 1e-9, "weighted throughput")
    rate = run.throughput(times, weights, 10e6, lambda t: 2.0)
    check(abs(rate - 180.0) < 1e-9, "scaled throughput")
    print("ok weighted percentiles and throughput")


def benchmark_json_matches():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == run.END_TO_END_UNITS, "end_to_end metrics differ from run.py")
    check(layers == run.layer_metric_units(), "per_layer metrics differ from run.py")
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "workloads differ")
    print("ok BENCHMARK.json matches run.py")


def main() -> int:
    for name, workload in WORKLOADS.items():
        traced_matches_untraced(name, workload)
    absent_names_are_reported()
    seeds_fix_inputs()
    weighted_percentiles()
    benchmark_json_matches()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
