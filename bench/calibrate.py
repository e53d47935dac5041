"""Write strata/<workload>.json: the population cut into cost pairs.

    python3 bench/calibrate.py --workload gcd_subst_qq

Times every member of the workload's population (the median of PASSES
speed-scaled passes, as in a run), checks every answer, sorts members by
cost and groups consecutive members into pairs.  A run then takes one member per pair (workloads.select).
Recalibrating changes the benchmark: do it in a change of its own, and
measure the baseline again afterwards.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys

from run import Lib, Outcomes, check_outputs, environment, quiesce, run_pass
from speed import SpeedLog
from workloads import STRATA_DIR, WORKLOADS

PASSES = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if workload.population % 2:
        raise SystemExit("the population size must be even")
    lib = Lib()
    members = [(i, workload.member(i)) for i in range(workload.population)]
    instances = [workload.build(lib, data) for _, data in members]
    times = [[] for _ in instances]
    quiesce()
    outcomes = Outcomes(len(instances))
    order = list(range(len(instances)))
    shuffler = random.Random(0)
    speed = SpeedLog(workload.sensitivity)
    for _ in range(PASSES):
        run_pass(workload, lib, instances, times=times, outcomes=outcomes, order=order, speed=speed)
        shuffler.shuffle(order)
    failed, reasons = check_outputs(workload, members, outcomes)
    if failed:
        print(json.dumps(reasons, indent=1), file=sys.stderr)
        raise SystemExit(f"{failed} failed executions: calibrate on correct code")
    cost = {
        i: statistics.median(d * speed.scale(t) for t, d in samples)
        for (i, _), samples in zip(members, times)
    }
    order = sorted(cost, key=lambda i: (cost[i], i))
    strata = [order[k : k + 2] for k in range(0, len(order), 2)]
    env = environment()
    doc = {
        "workload": args.workload,
        "population": workload.population,
        "calibration": (
            f"median of {PASSES} speed-scaled timings per member on Python {env['python']}, "
            f"{env['machine']}, {platform.processor() or 'cpu unknown'}"
        ),
        "total_ms": round(sum(cost.values()) / 1e6, 1),
        "strata": strata,
        "cost_ms": [[round(cost[i] / 1e6, 3) for i in stratum] for stratum in strata],
    }
    STRATA_DIR.mkdir(exist_ok=True)
    path = STRATA_DIR / f"{args.workload}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}: {len(strata)} strata, {doc['total_ms']} ms per population pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
