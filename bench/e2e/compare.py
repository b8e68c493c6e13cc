#!/usr/bin/env python3
"""Compares two bench/e2e results against the benchmark's bounds.

    python3 bench/e2e/compare.py PARENT.json CHANGE.json
    python3 bench/e2e/compare.py bench/e2e/baseline.json

The one-file form compares the two invocations stored in that file.
For each (workload, end-to-end metric of BENCHMARK.json) it prints both
values (the median of the runs; for peak_rss_mb the largest) and
interquartile ranges (IQR, as a share of the median) and a verdict.
The allowance is the metric's relative bound times the parent's value,
but never less than the metric's absolute floor (ABS_FLOOR):

    ok          the change is worse by no more than the allowance
    better      the change is better by more than the allowance
    REGRESSION  the change is worse by more than the allowance
    unresolved  an IQR is wider than the allowance, so the runs cannot
                tell; unless every run of the change beats every run
                of the parent, which reads as "better (every run)"

Then it gates the deterministic numbers of each workload (EXACT) in
absolute terms: failed_frac may not rise at all, ipc_err_pct by at most
0.05 percentage points.

Exit status: 0 when nothing regressed, 1 on a regression or a missing
metric, 2 when the host blocks differ (results from different machines,
toolchains, build types or seeds are not comparable).
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Host fields that must match; git_commit is what is being compared,
# and the number of processes a run fit in is not a setting.
HOST_KEYS = ["nproc", "compiler", "build_type", "seed"]
# Absolute floors under BENCHMARK.json's relative bounds, in the
# metric's unit: setup_s is µs-scale, so +25% of it is host noise.
ABS_FLOOR = {"setup_s": 0.02}
# Per-workload numbers that do not depend on host speed, with the
# absolute rise each may take; a workload without one skips it.
EXACT = {"failed_frac": 0.0, "ipc_err_pct": 0.05}


def load(paths):
    if len(paths) == 1:
        first, second = json.loads(Path(paths[0]).read_text())["invocations"]
        return first, second
    return tuple(json.loads(Path(p).read_text()) for p in paths)


def iqr(stat):
    return stat["q3"] - stat["q1"]


def verdict(parent, change, allowance, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    worse = sign * (change["value"] - parent["value"])
    if max(iqr(parent), iqr(change)) > allowance:
        if lower_is_better:
            beats = max(change["values"]) < min(parent["values"])
        else:
            beats = min(change["values"]) > max(parent["values"])
        return "better (every run)" if beats else "unresolved"
    if worse > allowance:
        return "REGRESSION"
    return "better" if worse < -allowance else "ok"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    parent, change = load(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    mismatched = [k for k in HOST_KEYS
                  if parent["host"].get(k) != change["host"].get(k)]
    if mismatched:
        for key in mismatched:
            print(f"host differs on {key}: {parent['host'].get(key)!r} vs "
                  f"{change['host'].get(key)!r}", file=sys.stderr)
        print("refusing to compare", file=sys.stderr)
        return 2

    failed = False
    print(f"{'workload':16} {'metric':12} {'parent':>11} {'iqr':>6} "
          f"{'change':>11} {'iqr':>6} {'delta':>7} {'allow':>9}  verdict")
    for workload in sorted(set(parent["workloads"]) | set(change["workloads"])):
        pblock = parent["workloads"].get(workload, {})
        cblock = change["workloads"].get(workload, {})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = pblock.get("end_to_end", {})
            b = cblock.get("end_to_end", {})
            if name not in a or name not in b:
                print(f"{workload:16} {name:12} missing")
                failed = True
                continue
            a, b = a[name], b[name]
            allowance = max(metric["bound"] * a["value"],
                            ABS_FLOOR.get(name, 0.0))
            result = verdict(a, b, allowance, metric["better"] == "lower")
            failed |= result == "REGRESSION"
            delta = (b["value"] - a["value"]) / a["value"]
            print(f"{workload:16} {name:12} {a['value']:11.5g} "
                  f"{iqr(a) / a['median']:6.1%} {b['value']:11.5g} "
                  f"{iqr(b) / b['median']:6.1%} {delta:+7.1%} "
                  f"{allowance:9.4g}  {result}")
        for name, allowance in EXACT.items():
            if name not in pblock and name not in cblock:
                continue
            if name not in pblock or name not in cblock:
                print(f"{workload:16} {name:12} missing")
                failed = True
                continue
            a, b = pblock[name], cblock[name]
            result = "REGRESSION" if b - a > allowance else (
                "better" if a - b > allowance else "ok")
            failed |= result == "REGRESSION"
            print(f"{workload:16} {name:12} {a:11.5g} {'':6} {b:11.5g} "
                  f"{'':6} {b - a:+7.3g} {allowance:9.4g}  {result}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
