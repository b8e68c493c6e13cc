#!/usr/bin/env python3
"""End-to-end benchmark of the spec17 characterization engine.

Builds the bench_e2e harness (the top-level project, configured with
bench/e2e/attach.cmake, in <build-dir>/bench-e2e), runs every workload in
fresh bench_e2e processes, checks the results, and prints every metric by
name with its unit.

Full invocation: each workload --repeats times, round-robin so host drift
hits all of them alike, then one traced pass and one oracle slice per
workload; prints medians and quartiles and the per-layer table:

    python3 bench/e2e/run.py [--out result.json] [--repeats 3] [--seed N]

One measured run of one workload, as long as --seconds allows; the last
line of stdout is a JSON object with `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with --trace 0, per-layer with --trace 1):

    python3 bench/e2e/run.py --workload ref17_sweep --seed 7 \
        --seconds 35 --trace 0

Smoke test (tiny sample sizes, one repeat; asserts that every metric named
in BENCHMARK.json is reported and that nothing failed):

    python3 bench/e2e/run.py --smoke

Exit status is 0 only when every check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = Path(__file__).resolve().parent
WORKLOADS = ["ref17_sweep", "explore_fanout", "corun_quartets"]
DEFAULT_SEED = 0x5BEC17
SMOKE_SIZES = ["--sample=20000", "--warmup=5000"]
PROCESS_TIMEOUT_S = 170
# setup_s is µs-scale and a run fits only a few campaigns, so each run
# also starts this many set-up-only processes (a few ms each).
SETUP_PROCESSES = 15

END_TO_END = ["setup_s", "campaign_s", "peak_rss_mb"]
# The value a run reports for each end-to-end metric: the median of its
# processes, except memory, where the worst process is what a campaign
# must be provisioned for (co-run's peak depends on worker timing).
SUMMARY = {"peak_rss_mb": max}
UNITS = {
    "setup_s": "s", "campaign_s": "s", "peak_rss_mb": "MiB",
    "failed_frac": "ratio", "ipc_err_pct": "%",
    "arena.capture_s": "s", "arena.captures": "count",
    "arena.hits": "count", "arena.evictions": "count",
    "arena.resident_peak_mb": "MiB", "arena.sims_per_capture": "ratio",
    "trace.gen_ctor_s": "s",
    "sim.run_s": "s", "sim.ns_per_op": "ns", "sim.ops": "count",
    "sim.construct_s": "s", "sim.prefill_s": "s", "sim.warmup_s": "s",
    "sim.measure_s": "s", "multicore.run_s": "s",
    "multicore.ns_per_op": "ns",
    "sim.l1d_misses": "count",
    "sim.l3_misses": "count", "sim.br_mispredicts": "count",
    "sim.dtlb_walks": "count",
    "pool.busy_frac": "ratio", "pool.tail_s": "s", "item.p50_ms": "ms",
    "pair.p50_ms": "ms", "pair.p80_ms": "ms",
    "journal.commit_s": "s", "journal.commits": "count",
    "journal.bytes_written": "bytes",
    "analysis.metrics_s": "s", "analysis.redundancy_s": "s",
    "analysis.subset_s": "s",
    "explore.plan_s": "s", "explore.run_points_s": "s",
    "explore.s_per_cell": "s",
    "corun.solo_s": "s", "corun.groups_s": "s", "corun.group_p50_ms": "ms",
    "corun.evictions_inflicted": "count",
    "corun.weighted_speedup_mean": "ratio",
    "corun.l3_occupancy_lines_max": "count",
    "unattributed_s": "s", "trace_overhead_pct": "%",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build(args):
    """Configures the top-level project with this package attached (its
    own settings, nothing copied) and builds the harness; returns the
    bench_e2e path."""
    if args.bin:
        return Path(args.bin)
    if not (ROOT / "CMakeLists.txt").exists():
        sys.exit(f"error: no top-level CMakeLists.txt in {ROOT}")
    tree = Path(args.build_dir) / "bench-e2e"
    if not (tree / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT), "-B", str(tree),
                        f"-DCMAKE_PROJECT_INCLUDE={PACKAGE / 'attach.cmake'}"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(tree), "--target", "bench_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return tree / "bench_e2e"


class Harness:
    """Runs bench_e2e processes, each in a fresh work directory."""

    def __init__(self, binary, args):
        self.binary = binary
        self.seed = args.seed
        self.sizes = SMOKE_SIZES if args.smoke else []
        self.work = Path(args.build_dir) / "bench-e2e-work"
        self.spans = Path(args.build_dir) / "bench-e2e-spans"

    def run(self, workload, mode):
        """One process; its JSON outcome, or None when it failed."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        cmd = [str(self.binary), f"--workload={workload}", f"--mode={mode}",
               f"--seed={self.seed}", f"--work-dir={self.work}"] + self.sizes
        if mode == "traced":
            self.spans.mkdir(parents=True, exist_ok=True)
            cmd.append(f"--trace-out={self.spans / workload}.jsonl")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"{workload} {mode}: timed out")
            return None
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        if proc.returncode != 0:
            log(f"{workload} {mode}: exit {proc.returncode}\n"
                + proc.stderr[-2000:])
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setups(self, workload):
        return [self.run(workload, "setup") for _ in range(SETUP_PROCESSES)]


def quartiles(values):
    """(q1, median, q3) of a handful of runs, interpolated between the
    observed values (the default method extrapolates past them)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(workload, plain, traced, oracle, setups):
    """Folds one workload's processes into its result block."""
    runs = plain + traced
    done = [r for r in runs if r is not None]
    failed = len(runs) - len(done) + sum(r["failed"] for r in done)
    failed += setups.count(None)
    attempted = sum(r["attempted"] for r in done) or 1
    digests = {r["digest"] for r in done}
    if len(digests) > 1:
        failed += 1
        log(f"{workload}: results differ across processes: {digests}")
    if oracle is None:
        failed += 1
    else:
        attempted += len(oracle["rows"])
        for key, row in oracle["rows"].items():
            if any(r["rows"].get(key) != row for r in done):
                failed += 1
                log(f"{workload}: {key} differs from its oracle rerun")

    block = {"attempted": attempted, "failed": failed,
             "failed_frac": failed / attempted,
             "digest": done[0]["digest"] if done else "",
             "end_to_end": {}, "layers": {}, "counts": {}}
    plain_done = [r for r in plain if r is not None]
    setups_done = [r for r in setups if r is not None]
    for name in END_TO_END:
        sources = plain_done + setups_done if name == "setup_s" else plain_done
        values = [r[name] for r in sources]
        if values:
            q1, median, q3 = quartiles(values)
            block["end_to_end"][name] = {
                "value": SUMMARY.get(name, statistics.median)(values),
                "median": median, "q1": q1, "q3": q3, "n": len(values),
                "values": values, "unit": UNITS[name]}
    if plain_done:
        block["counts"] = plain_done[0]["counts"]
        if "ipc_err_pct" in block["counts"]:
            block["ipc_err_pct"] = block["counts"]["ipc_err_pct"]
    traced_done = [r for r in traced if r is not None]
    if traced_done:
        layers = {}
        for name in traced_done[0]["layers"]:
            layers[name] = statistics.median(
                r["layers"][name] for r in traced_done)
        for name, value in traced_done[0]["counts"].items():
            layers.setdefault(name, value)
        if plain_done:
            untraced = statistics.median(r["campaign_s"] for r in plain_done)
            with_spans = statistics.median(
                r["campaign_s"] for r in traced_done)
            layers["trace_overhead_pct"] = (with_spans / untraced - 1) * 100
        block["layers"] = layers
    return block


def host_block(outcomes, seed):
    host = next((dict(o["host"]) for o in outcomes if o is not None), {})
    if "nproc" in host:
        host["nproc"] = int(host["nproc"])
    host["seed"] = seed
    return host


def fmt(value):
    if abs(value) >= 1e5 or value == int(value):
        return f"{value:,.0f}"
    return f"{value:.4g}"


def print_tables(result):
    print(f"{'workload':16} {'metric':14} {'unit':6} {'value':>10} "
          f"{'median':>10} {'q1':>10} {'q3':>10} {'n':>3}")
    for workload, block in result["workloads"].items():
        for name, stat in block["end_to_end"].items():
            print(f"{workload:16} {name:14} {stat['unit']:6} "
                  f"{fmt(stat['value']):>10} {fmt(stat['median']):>10} "
                  f"{fmt(stat['q1']):>10} {fmt(stat['q3']):>10} "
                  f"{stat['n']:>3}")
        print(f"{workload:16} {'failed_frac':14} {'ratio':6} "
              f"{fmt(block['failed_frac']):>10}   "
              f"({block['failed']} of {block['attempted']})")
        if "ipc_err_pct" in block:
            print(f"{workload:16} {'ipc_err_pct':14} {'%':6} "
                  f"{fmt(block['ipc_err_pct']):>10}")
    names = sorted({n for b in result["workloads"].values()
                    for n in b["layers"]})
    if not names:
        return
    workloads = list(result["workloads"])
    print(f"\nper-layer metrics (traced pass):\n{'metric':30} {'unit':6} "
          + " ".join(f"{w:>16}" for w in workloads))
    for name in names:
        cells = []
        for w in workloads:
            value = result["workloads"][w]["layers"].get(name)
            cells.append(f"{'-' if value is None else fmt(value):>16}")
        print(f"{name:30} {UNITS.get(name, '?'):6} " + " ".join(cells))


def check_smoke(result, spec):
    """Every metric BENCHMARK.json names is reported, nothing failed."""
    problems = []
    for workload, block in result["workloads"].items():
        if block["failed"]:
            problems.append(f"{workload}: failed_frac {block['failed_frac']}")
        for metric in spec["end_to_end"]:
            if metric["name"] not in block["end_to_end"]:
                problems.append(f"{workload}: missing {metric['name']}")
        for metric in spec["per_layer"]:
            if metric["name"] not in block["layers"]:
                problems.append(f"{workload}: missing {metric['name']}")
        for metric in spec["end_to_end"] + spec["per_layer"]:
            if UNITS.get(metric["name"]) != metric["unit"]:
                problems.append(f"{metric['name']}: unit mismatch")
    for problem in problems:
        log("smoke:", problem)
    return not problems


def full_run(harness, args):
    workloads = [args.workload] if args.workload else WORKLOADS
    plain = {w: [] for w in workloads}
    for _ in range(args.repeats):
        for w in workloads:
            log(f"{w}: plain")
            plain[w].append(harness.run(w, "plain"))
    traced = {}
    oracle = {}
    setups = {}
    for w in workloads:
        log(f"{w}: traced, oracle, set-up")
        traced[w] = [harness.run(w, "traced")]
        oracle[w] = harness.run(w, "oracle")
        setups[w] = harness.setups(w)
    outcomes = [o for w in workloads for o in plain[w] + traced[w]]
    host = host_block(outcomes, args.seed)
    host["repeats"] = args.repeats
    return {"host": host,
            "workloads": {w: summarize(w, plain[w], traced[w], oracle[w],
                                       setups[w])
                          for w in workloads}}


def timed_run(harness, args):
    """The processes of one --seconds run of one workload."""
    modes = ["plain", "traced"] if args.trace else ["plain"]
    runs = {"plain": [], "traced": []}
    start = time.monotonic()
    while True:
        mode = modes[sum(map(len, runs.values())) % len(modes)]
        began = time.monotonic()
        runs[mode].append(harness.run(args.workload, mode))
        last = time.monotonic() - began
        enough = all(runs[m] for m in modes)
        if enough and time.monotonic() - start + last > args.seconds:
            break
    oracle = harness.run(args.workload, "oracle")
    setups = harness.setups(args.workload)
    host = host_block(runs["plain"] + runs["traced"], args.seed)
    host["seconds"] = args.seconds
    return {"host": host,
            "workloads": {args.workload: summarize(
                args.workload, runs["plain"], runs["traced"], oracle,
                setups)}}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=lambda s: int(s, 0),
                        default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measure one workload for this long")
    parser.add_argument("--trace", type=int, choices=[0, 1],
                        help="report per-layer (1) or end-to-end (0) "
                             "metrics as the last stdout line")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--build-dir", default=str(ROOT / ".bench_build"),
                        help="build tree root (package goes in bench-e2e/)")
    parser.add_argument("--bin", help="use this bench_e2e, do not build")
    parser.add_argument("--out", help="write the result JSON here")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        args.repeats = 1
    if args.trace is not None and (not args.workload or not args.seconds):
        parser.error("--trace needs --workload and --seconds")

    began = time.monotonic()
    binary = build(args)
    harness = Harness(binary, args)
    if args.trace is None:
        result = full_run(harness, args)
    else:
        result = timed_run(harness, args)
    result["wall_s"] = time.monotonic() - began
    blocks = result["workloads"].values()
    result["correct"] = all(b["failed"] == 0 for b in blocks)

    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print_tables(result)
    print(f"\nwall time {result['wall_s']:.1f} s, "
          f"{'all checks passed' if result['correct'] else 'CHECKS FAILED'}")
    ok = result["correct"]
    if args.smoke:
        ok = check_smoke(result, benchmark_spec()) and ok
    if args.trace is not None:
        block = result["workloads"][args.workload]
        spec = benchmark_spec()
        section = "per_layer" if args.trace else "end_to_end"
        source = block["layers"] if args.trace else {
            n: s["value"] for n, s in block["end_to_end"].items()}
        metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                   for m in spec[section] if m["name"] in source}
        print(json.dumps({"correct": ok, "attempted": block["attempted"],
                          "failed": block["failed"], "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
