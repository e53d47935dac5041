"""Compare two files of benchmark records written with run.py --out.

    python3 bench/run.py --compare BASE.jsonl NEW.jsonl

For each workload and metric: each side's median and quartiles over its
runs, the ratio NEW/BASE with its base, and a verdict.  End-to-end metrics
use the bound fixed in BENCHMARK.json:

- REGRESSION: the new median is worse than the base median by more than
  the bound.
- gain: the new run beats the base run on at least 9 of 10 seeds run on
  both sides, and the medians differ by more than the base quartile spread.
- unresolved: the base runs spread wider than the bound, so "no change"
  cannot be claimed, unless every new run beats every base run.
- same: none of the above.

Per-layer metrics have no bound; they get the figures and the ratio only.

Each workload also gets both sides' failed_share (failed over attempted
executions, over all its runs).  A new side that fails a larger share than
the base, or has a run whose answers were not all correct, is a REGRESSION
whatever its timings: a gain does not count when more operations fail.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    runs = defaultdict(dict)  # (workload, trace) -> seed -> metrics
    outcomes = defaultdict(list)  # (workload, trace) -> (attempted, failed, correct) per run
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                result = rec["result"]
                key = (rec["workload"], rec["trace"])
                runs[key][rec["seed"]] = {k: m["value"] for k, m in result["metrics"].items()}
                outcomes[key].append((result["attempted"], result["failed"], result["correct"]))
    return runs, outcomes


def failed_share(outcomes) -> float:
    return sum(f for _, f, _ in outcomes) / sum(a for a, _, _ in outcomes)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound, paired):
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    sign = 1 if better == "higher" else -1
    worse_by = sign * (bmed - nmed) / bmed if bmed else 0.0
    if worse_by > bound:
        return "REGRESSION"
    wins = sum(1 for b, n in paired if sign * (n - b) > 0)
    if paired and wins >= 0.9 * len(paired) and abs(nmed - bmed) > b3 - b1:
        return "gain"
    spread = (b3 - b1) / bmed if bmed else 0.0
    if spread > bound and not all(sign * (n - b) > 0 for n in new for b in base):
        return "unresolved"
    return "same"


def main(base_path, new_path) -> int:
    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    (base, base_outcomes), (new, new_outcomes) = load(base_path), load(new_path)
    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        b_runs, n_runs = base[key], new[key]
        seeds = sorted(set(b_runs) & set(n_runs))
        print(f"== {workload} (trace={trace}): base {len(b_runs)} runs, new {len(n_runs)} runs, {len(seeds)} seeds on both")
        b_failed, n_failed = failed_share(base_outcomes[key]), failed_share(new_outcomes[key])
        v = ""
        if n_failed > b_failed or not all(correct for _, _, correct in new_outcomes[key]):
            v = "REGRESSION (answers)"
            regressions += 1
        print(f"{'failed_share':42} {b_failed:>32.4g} {n_failed:>32.4g} {'':>9}  {v}")
        print(f"{'metric':42} {'base q1/median/q3':>32} {'new q1/median/q3':>32} {'new/base':>9}  verdict")
        names = sorted({m for runs in (b_runs, n_runs) for r in runs.values() for m in r})
        for name in names:
            bv = [r[name] for r in b_runs.values() if name in r]
            nv = [r[name] for r in n_runs.values() if name in r]
            if not bv or not nv:
                continue
            bq, nq = quartiles(bv), quartiles(nv)
            ratio = f"{nq[1] / bq[1]:.3f}" if bq[1] else "n/a"
            if name in e2e:
                paired = [(b_runs[s][name], n_runs[s][name]) for s in seeds]
                v = verdict(bv, nv, e2e[name]["better"], e2e[name]["bound"], paired)
                v += f" (bound {e2e[name]['bound']:.0%})"
                regressions += v.startswith("REGRESSION")
            elif name in layer:
                v = ""
            else:
                continue
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"{name:42} {fmt(bq):>32} {fmt(nq):>32} {ratio:>9}  {v}")
    print(f"# {regressions} regression(s): failed answers or metrics beyond their bounds")
    return 1 if regressions else 0
