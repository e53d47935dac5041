"""Seeded end-to-end and per-layer benchmark for ratmaps.

    python3 bench/run.py --workload gcd_subst_qq --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25
    python3 bench/run.py --compare BASE.jsonl NEW.jsonl

One process, one thread, closed loop: each instance starts when the previous
verdict returns.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

import tracer as tracing  # noqa: E402
from speed import SpeedLog  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LIB_MODULES = (
    "polyring",
    "fields",
    "linalg",
    "homog",
    "subfield",
    "integrality",
    "gordan_noether",
    "expressions",
    "cli",
)
SETUP_REPEATS = 5
WARMUP = 3
# the percentiles average the instances within BAND of the percentile;
# verdict_p95_ms needs at least 10 instances beyond its band
BAND = 0.02
MIN_INSTANCES = 334

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_p95_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Lib:
    """The ratmaps modules of the checkout, imported afresh."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "ratmaps" or m.startswith("ratmaps.")]:
            del sys.modules[name]
        package = importlib.import_module("ratmaps")
        if Path(package.__file__).resolve().parent != SRC / "ratmaps":
            raise ImportError(f"ratmaps imported from {package.__file__}, not from {SRC}")
        for name in LIB_MODULES:
            setattr(self, name, importlib.import_module(f"ratmaps.{name}"))


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def generate(workload, seed):
    """The run's members as (index, data) and their weights in the timing
    metrics.  Input generation is the benchmark's own code: not timed."""
    chosen = workload.select(seed)
    return [(i, workload.member(i)) for i, _ in chosen], [w for _, w in chosen]


def setup(workload, members):
    """Import ratmaps and build the library inputs of the members."""
    lib = Lib()
    return lib, [workload.build(lib, data) for _, data in members]


class Outcomes:
    """First output of each instance, and how many later executions differed."""

    def __init__(self, n):
        self.first = [None] * n
        self.runs = [0] * n
        self.changed = [0] * n

    def add(self, k, out):
        if not self.runs[k]:
            self.first[k] = out
        elif out != self.first[k]:
            self.changed[k] += 1
        self.runs[k] += 1


def quiesce():
    """Collect garbage, then exempt every live object from later collections.

    The harness holds the inputs of every instance at once; without this,
    each full collection during the timed loop would traverse all of them,
    a cost no single caller of ratmaps pays.
    """
    gc.collect()
    gc.freeze()


def run_pass(
    workload,
    lib,
    instances,
    deadline=None,
    tracer=None,
    times=None,
    outcomes=None,
    order=None,
    speed=None,
):
    """One closed-loop pass, in the given order of indices; stops early at the
    deadline.  Appends (midpoint, duration) per instance to times and probes
    the machine's speed between instances.  Returns the pass's wall time less
    the probes' time."""
    probes = len(speed.dur) if speed is not None else 0
    start = time.perf_counter_ns()
    for k in range(len(instances)) if order is None else order:
        instance = instances[k]
        if deadline is not None and time.perf_counter_ns() >= deadline:
            break
        if speed is not None:
            speed.maybe_probe()
        t0 = time.perf_counter_ns()
        out = execute(workload, lib, instance, tracer)
        t1 = time.perf_counter_ns()
        if times is not None:
            times[k].append(((t0 + t1) // 2, t1 - t0))
        if outcomes is not None:
            outcomes.add(k, out)
    wall = time.perf_counter_ns() - start
    if speed is not None:
        wall -= sum(speed.dur[probes:])
    return wall


def execute(workload, lib, instance, tracer=None):
    """One instance to its output; a raising instance is a failed verdict."""
    try:
        if tracer is None:
            return workload.call(lib, instance)
        return tracer.run(tracing.HARNESS, workload.call, lib, instance)
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))


def check_outputs(workload, members, outcomes):
    """Failed executions: wrong, raising, or different from the first one."""
    failed = 0
    reasons = {}
    for k, (index, data) in enumerate(members):
        if not outcomes.runs[k]:
            continue
        first = outcomes.first[k]
        if isinstance(first, tuple) and first and first[0] == "raised":
            reason = f"raised {first[1]}: {first[2]}"
        else:
            reason = workload.check(data, first, index)
        if reason is not None:
            failed += outcomes.runs[k]
            reasons[index] = reason
        elif outcomes.changed[k]:
            failed += outcomes.changed[k]
            reasons[index] = "output changed between executions"
    return failed, reasons


def instance_times(times, weights, scale):
    """(ms, weight) per sampled instance: the median of its durations, each
    multiplied by scale(midpoint)."""
    return [
        (statistics.median(d * scale(t) for t, d in samples) / 1e6, weight)
        for samples, weight in zip(times, weights)
        if samples
    ]


def percentile(timed, q):
    """Weighted q-quantile of (value, weight) pairs, smoothed: the mean of
    the values over the quantile band q - BAND to q + BAND, each counted by
    the share of the band its weight covers.

    Near the 95th percentile the instance times rise steeply (on
    gcd_subst_qq by about 5% per rank), so a single rank moves with every
    small change in timing or in the seed's choice of members; the band
    averages about 20 instances in a run of 480.
    """
    total = sum(w for _, w in timed)
    lo, hi = q - BAND, q + BAND
    acc = num = 0.0
    for value, weight in sorted(timed):
        start, acc = acc, acc + weight / total
        overlap = min(acc, hi) - max(start, lo)
        if overlap > 0:
            num += value * overlap
    return num / (hi - lo)


def throughput(times, weights, wall_ns, scale):
    """Weighted verdicts per second of timed wall time (less speed probes).

    Each instance counts with its weight and its mean scaled time over all
    its executions, so the instances a deadline cuts off do not change the
    mix.  That rate per second spent inside instances is multiplied by the
    share of the wall time spent inside them, which adds the time between.
    """
    sampled = [(samples, w) for samples, w in zip(times, weights) if samples]
    per_verdict = sum(w * statistics.fmean([d * scale(t) for t, d in samples]) for samples, w in sampled)
    busy = sum(d for samples, _ in sampled for _, d in samples)
    return 1e9 * sum(w for _, w in sampled) / per_verdict * busy / wall_ns


def timing_metrics(times, weights, wall_ns, scale) -> dict:
    timed = instance_times(times, weights, scale)
    return {
        "verdict_p50_ms": percentile(timed, 0.50),
        "verdict_p95_ms": percentile(timed, 0.95),
        "throughput_per_s": throughput(times, weights, wall_ns, scale),
    }


def unscaled(t) -> float:
    return 1.0


def run_untraced(workload, seed, seconds):
    members, weights = generate(workload, seed)
    speed = SpeedLog(workload.sensitivity)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        t0 = time.perf_counter_ns()
        lib, instances = setup(workload, members)
        t1 = time.perf_counter_ns()
        speed.probe()
        setup_times.append(((t0 + t1) // 2, t1 - t0))
    for instance in instances[:WARMUP]:
        execute(workload, lib, instance)
    times = [[] for _ in instances]
    outcomes = Outcomes(len(instances))
    quiesce()
    # a fresh order every pass puts each instance's samples at unrelated
    # times, so a slow phase of the machine rarely covers all of them
    order = list(range(len(instances)))
    shuffler = random.Random(seed)
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    wall_ns = passes = 0
    while time.perf_counter_ns() < deadline:
        wall_ns += run_pass(
            workload, lib, instances, deadline, times=times, outcomes=outcomes, order=order, speed=speed
        )
        shuffler.shuffle(order)
        passes += 1
    failed, reasons = check_outputs(workload, members, outcomes)
    attempted = sum(len(t) for t in times)
    metrics = {
        "setup_s": statistics.median(d * speed.scale(t) for t, d in setup_times) / 1e9,
        **timing_metrics(times, weights, wall_ns, speed.scale),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_metrics = {"setup_s": statistics.median(d for _, d in setup_times) / 1e9}
    raw_metrics.update(timing_metrics(times, weights, wall_ns, unscaled))
    info = {
        "instances": len(instances),
        "instances_sampled": sum(1 for t in times if t),
        "samples": attempted,
        "passes_started": passes,
        "machine_speed": round(speed.speed(), 4),
        "probes": len(speed.dur),
        "raw": {k: round(v, 6) for k, v in raw_metrics.items()},
        "failed_share": failed / attempted,
        "failures": {str(k): v for k, v in list(reasons.items())[:10]},
    }
    return metrics, END_TO_END_UNITS, attempted, failed, info


def layer_metric_units() -> dict:
    units = {}
    for group in tracing.GROUPS:
        units[f"{group}.calls"] = "count"
        units[f"{group}.self_ms"] = "ms"
        units[f"{group}.errors"] = "count"
        for extra in tracing.EXTRAS.get(group, ()):
            units[f"{group}.{extra}"] = "share" if extra == "unit_share" else "count"
    units.update(
        {
            "trace.wall_ms": "ms",
            "trace.accounted_share": "share",
            "trace.hook_ms": "ms",
            "trace.overhead_pct": "%",
        }
    )
    return units


def run_traced(workload, seed):
    """Every instance once untraced and once traced, back to back, so both
    timings see the same phase of the machine; which comes first alternates
    between instances.  Per-layer figures are for the traced executions."""
    members, _ = generate(workload, seed)
    lib, instances = setup(workload, members)
    for instance in instances[:WARMUP]:
        execute(workload, lib, instance)
    tr = tracing.Tracer()
    # traced and untraced executions share one record, so a traced output
    # that differs from the untraced one counts as a failure
    outcomes = Outcomes(len(instances))
    elapsed = {False: 0, True: 0}
    quiesce()
    for k, instance in enumerate(instances):
        for traced in (False, True) if k % 2 == 0 else (True, False):
            if traced:
                tr.install()
            t0 = time.perf_counter_ns()
            out = execute(workload, lib, instance, tr if traced else None)
            elapsed[traced] += time.perf_counter_ns() - t0
            if traced:
                tr.uninstall()
            outcomes.add(k, out)
    failed, reasons = check_outputs(workload, members, outcomes)
    attempted = sum(outcomes.runs)

    metrics = {}
    for gid, group in enumerate(tracing.GROUPS):
        metrics[f"{group}.calls"] = tr.calls[gid]
        metrics[f"{group}.self_ms"] = tr.self_ns[gid] / 1e6
        metrics[f"{group}.errors"] = tr.errors[gid]
        for extra in tracing.EXTRAS.get(group, ()):
            if extra == "unit_share":
                metrics[f"{group}.{extra}"] = tr.gcd_units / tr.gcd_results if tr.gcd_results else 0.0
            else:
                metrics[f"{group}.{extra}"] = tr.max.get(f"{group}.{extra}", 0)
    wall = elapsed[True]
    metrics["trace.wall_ms"] = wall / 1e6
    metrics["trace.accounted_share"] = sum(tr.self_ns) / wall
    metrics["trace.hook_ms"] = tr.hook_ns / 1e6
    metrics["trace.overhead_pct"] = 100.0 * (wall / elapsed[False] - 1.0)
    info = {
        "instances": len(instances),
        "untraced_ms": round(elapsed[False] / 1e6, 3),
        "absent": tr.absent,
        "spans_recorded": len(tr.spans) // 4,
        "spans_dropped": tr.spans_dropped,
        "failures": {str(k): v for k, v in list(reasons.items())[:10]},
        "failed_share": failed / attempted,
    }
    return metrics, layer_metric_units(), attempted, failed, info


def result_line(correct, attempted, failed, metrics, units) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, units, attempted, failed, info = run_traced(workload, args.seed)
    else:
        metrics, units, attempted, failed, info = run_untraced(workload, args.seed, args.seconds)
    env = environment()
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} python={env['python']} nproc={env['nproc']}"
    )
    for key, value in info.items():
        if key != "failed_share":
            print(f"# {key}: {value}")
    print(f"# failed_share: {info['failed_share']:.6g} ({failed}/{attempted})")
    if not args.trace:
        for key, value in metrics.items():
            print(f"# {key}: {value:.6g} {units[key]}")
        if info["instances_sampled"] < MIN_INSTANCES:
            print(f"# warning: only {info['instances_sampled']} instances sampled; p95 is unreliable")
    else:
        for group in tracing.GROUPS:
            calls = metrics[f"{group}.calls"]
            if calls:
                print(f"# {group}: {calls:.0f} calls, {metrics[f'{group}.self_ms']:.1f} ms self")
        print(
            f"# traced wall {metrics['trace.wall_ms']:.1f} ms, layer self times "
            f"account for {100 * metrics['trace.accounted_share']:.2f}%, tracing overhead "
            f"{metrics['trace.overhead_pct']:.1f}%"
        )
    result = result_line(failed == 0, attempted, failed, metrics, units)
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            **env,
            "info": info,
            "result": result,
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and imports stay separate."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} failed with exit code {proc.returncode}")
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
        rows.append((name, result))
    if not args.trace:
        header = ["workload"] + list(END_TO_END_UNITS) + ["failed_share"]
        print("# " + "  ".join(header))
        for name, result in rows:
            cells = [name] + [
                f"{result['metrics'][k]['value']:.4g} {result['metrics'][k]['unit']}"
                for k in END_TO_END_UNITS
            ]
            cells.append(f"{result['failed'] / result['attempted']:.3g}")
            print("# " + "  ".join(cells))
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append a JSON record of each run to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two --out files")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if not (SRC / "ratmaps" / "__init__.py").is_file():
        print(f"error: no ratmaps sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
