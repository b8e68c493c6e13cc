#!/usr/bin/env bash
# Runs every end-to-end smoke check against one built tree: the bench
# identity/speedup gates, the sweep and co-run shard round-trips plus
# fsck, store-on vs store-off comparisons of a sweep over threaded
# pairs, of a co-run campaign with self-pairs and of explore's cross
# and descent plans, a co-run campaign that spills one S17A arena per
# app and a second one that replays them all from disk, the co-run and
# explorer jobs-1-vs-2 and kill-plus---resume byte comparisons, a
# predictor x way-predictor cross whose lane-importing points must
# match live per-point runs at jobs 1 and 2 and a deadline-armed
# reference-lane rerun, the same cross under an op budget that fails
# every attempt, whose table, per-point journals and failure records
# must match store on and off, and a telemetry sweep. Four runs also hold a peak-RSS ceiling (the
# child's ru_maxrss, read through python3's resource module). A sweep
# row steps its clone groups one after another, so an explore run
# holds one group leader's cache hierarchy per worker: the jobs-1
# predictor x way-predictor cross and the jobs-1 way-predictor x
# l2-prefetcher cross (every point leads its own group) stay under
# 20 MiB, the jobs-2 deadline-armed reference-lane cross under 32 MiB,
# and the store-on threaded cpu2017 sweep under 27 MiB. Every output
# lands in OUT_DIR (the CI artifact); any failed check exits nonzero.
#
# Usage: tools/smoke.sh BUILD_DIR OUT_DIR
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
build=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"
spec17=$build/tools/spec17
bench=$build/bench
sweep=(--suite=cpu2006 --size=test --sample=20000 --warmup=5000)
sweep17=(--suite=cpu2017 --size=test --sample=20000 --warmup=5000 --jobs=2)
small=(--sample=30000 --warmup=10000)
explore=(--multi-axis=way-predictor,l2-prefetcher --suite=cpu2006
         --size=test "${small[@]}")
lanes=(--multi-axis=predictor,way-predictor --suite=cpu2006 --size=test
       "${small[@]}")

# Usage: peak_rss LIMIT_MIB LABEL COMMAND...
# Runs COMMAND, prints its peak RSS and fails when it exceeds LIMIT_MIB.
peak_rss() {
  python3 -c '
import resource, subprocess, sys
limit, label, command = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
status = subprocess.call(command)
if status != 0:
    sys.exit(status)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS of {label}: {peak:.1f} MiB (ceiling {limit:g} MiB)")
if peak > limit:
    sys.exit(f"peak RSS of {label} exceeds {limit:g} MiB")
' "$@"
}

echo "== hot-path bench: batched vs per-op identity, gated speedup"
"$bench/bench_hot_path" --pairs=3 --repeats=2 --out=BENCH_hot_path.ci.json
python3 "$root/tools/check_bench.py" BENCH_hot_path.ci.json \
  "$root/BENCH_hot_path.json"
"$bench/bench_corun" "${small[@]}" --jobs=2 --repeats=2 \
  --out=BENCH_corun.jobs2.ci.json

echo "== shard round-trip: 4 shards merge to the unsharded journal"
SPEC17_CACHE=ref "$spec17" characterize "${sweep[@]}" --jobs=4
for k in 1 2 3 4; do
  SPEC17_CACHE=camp "$spec17" characterize "${sweep[@]}" --jobs=2 \
    --shard=$k/4
done
"$spec17" merge --out=merged.csv camp.cpu2006.test.shard*of4.csv
cmp ref.cpu2006.test.csv merged.csv
"$bench/bench_merge" --records=5000 --repeats=2 --out=BENCH_merge.ci.json

echo "== fsck: clean journal passes, torn journal fails then repairs"
"$spec17" fsck merged.csv
head -c $(($(wc -c < merged.csv) - 37)) merged.csv > torn.csv
if "$spec17" fsck torn.csv; then
  echo "fsck missed the torn tail" >&2
  exit 1
fi
"$spec17" fsck --repair torn.csv
"$spec17" fsck torn.csv

echo "== arena store on vs off: a sweep with threaded pairs is identical"
# The threaded rows free the idle donor simulator before they build
# their own MulticoreSimulator.
peak_rss 27 "the store-on cpu2017 sweep" \
  env SPEC17_CACHE=store-on "$spec17" characterize "${sweep17[@]}"
SPEC17_CACHE=store-off "$spec17" characterize "${sweep17[@]}" \
  --trace-arena-mb=0
cmp store-on.cpu2017.test.csv store-off.cpu2017.test.csv

echo "== co-run: jobs 1 vs 2, store on vs off, S17A spill and reload, torn + --resume and 3 merged shards are identical"
SPEC17_CACHE=ref "$spec17" corun --size=test "${small[@]}" --jobs=1 \
  --progress
SPEC17_CACHE=par "$spec17" corun --size=test "${small[@]}" --jobs=2
cmp ref.corun.test.csv par.corun.test.csv
# Every context replays its app's one arena, captured at context 0 and
# shifted to the context's address space; a self-pair feeds one arena
# to both contexts of a machine. The rows must match live generation.
SPEC17_CACHE=par-off "$spec17" corun --size=test "${small[@]}" --jobs=2 \
  --trace-arena-mb=0
cmp ref.corun.test.csv par-off.corun.test.csv
# S17A round trip: the first run spills each app's arena as it captures
# it. The second, with a fresh journal, replays every arena from disk,
# self-pairs and shifted contexts included, and so writes no spill.
rm -rf corun-arenas
SPEC17_CACHE=spill1 "$spec17" corun --size=test "${small[@]}" --jobs=2 \
  --arena-spill-dir=corun-arenas
apps=$(tail -n +3 ref.corun.test.csv | cut -d, -f1 | tr + '\n' | sort -u \
  | wc -l)
spills=$(find corun-arenas -name '*.s17a' | wc -l)
if [ "$spills" -ne "$apps" ]; then
  echo "co-run spilled $spills arenas for $apps apps" >&2
  exit 1
fi
touch corun-arenas.stamp
SPEC17_CACHE=spill2 "$spec17" corun --size=test "${small[@]}" --jobs=2 \
  --arena-spill-dir=corun-arenas
if [ -n "$(find corun-arenas -name '*.s17a' -newer corun-arenas.stamp)" ]
then
  echo "the replaying co-run captured an arena again" >&2
  exit 1
fi
cmp ref.corun.test.csv spill1.corun.test.csv
cmp ref.corun.test.csv spill2.corun.test.csv
head -n 5 ref.corun.test.csv > torn.corun.test.csv
SPEC17_CACHE=torn "$spec17" corun --size=test "${small[@]}" --jobs=2 \
  --resume
cmp ref.corun.test.csv torn.corun.test.csv
for k in 1 2 3; do
  SPEC17_CACHE=corun-camp "$spec17" corun --size=test "${small[@]}" \
    --jobs=2 --shard=$k/3
done
"$spec17" merge --out=corun-merged.csv corun-camp.corun.test.shard*of3.csv
cmp ref.corun.test.csv corun-merged.csv
"$spec17" fsck corun-merged.csv
"$spec17" corun --size=test --apps=505.mcf_r,519.lbm_r --no-self \
  --partition "${small[@]}" --no-cache --export-jsonl=corun-partition.jsonl
"$bench/bench_corun" "${small[@]}" --repeats=2 --out=BENCH_corun.ci.json
python3 "$root/tools/check_bench.py" BENCH_corun.ci.json \
  "$root/BENCH_corun.json"

echo "== explore: jobs 1 vs 2, store on vs off, kill + --resume are identical"
for jobs in 1 2; do
  "$spec17" explore --axis=way-predictor --suite=cpu2006 --size=test \
    "${small[@]}" --no-cache --jobs=$jobs --explore-out=explore-j$jobs.csv \
    --export-jsonl=explore-j$jobs.jsonl
done
cmp explore-j1.csv explore-j2.csv
# Every point of this cross leads its own clone group; the row steps
# them one after another and holds one leader's hierarchy at a time.
peak_rss 20 "the jobs-1 way-predictor x l2-prefetcher cross" \
  "$spec17" explore "${explore[@]}" --no-cache --jobs=1 \
  --explore-out=replay-ref.csv
"$spec17" explore "${explore[@]}" --no-cache --jobs=2 \
  --explore-out=replay-par.csv
cmp replay-ref.csv replay-par.csv
# Each row releases its arenas when it ends, and every descent stage
# recaptures them. Neither plan may differ from live generation.
"$spec17" explore "${explore[@]}" --no-cache --jobs=1 --trace-arena-mb=0 \
  --explore-out=replay-off.csv
cmp replay-ref.csv replay-off.csv
# In predictor x way-predictor, 12 of the 15 points differ from a
# way-predictor leader only in the branch predictor: with the store on
# they import the leader's memory-side lanes and footprint pages. The
# store-off table simulates every point itself. The importers own no
# cache hierarchy, and the row's three clone groups step one after
# another, so the jobs-1 run holds one 30 MB-L3 hierarchy (about
# 8 MiB) at a time.
peak_rss 20 "the jobs-1 lanes cross" \
  "$spec17" explore "${lanes[@]}" --no-cache --jobs=1 \
  --explore-out=lanes-j1.csv
"$spec17" explore "${lanes[@]}" --no-cache --jobs=2 \
  --explore-out=lanes-j2.csv
"$spec17" explore "${lanes[@]}" --no-cache --jobs=2 --trace-arena-mb=0 \
  --explore-out=lanes-off.csv
cmp lanes-j1.csv lanes-j2.csv
cmp lanes-j1.csv lanes-off.csv
# Deadline-armed reference-lane cells step in their row's lockstep too,
# each leading its own clone group; the table must not move. Each of
# the 15 groups builds its full simulator only when its turn comes.
peak_rss 32 "the jobs-2 deadline-armed reference-lane cross" \
  "$spec17" explore "${lanes[@]}" --no-cache --jobs=2 \
  --pair-deadline=100000000 --unbatched-stepping \
  --explore-out=lanes-observed.csv
cmp lanes-j1.csv lanes-observed.csv
# A 25000-op budget below sample + warmup fails both attempts of all
# 15 x 29 cells, so every record holds
# deadline@0@25001@...|deadline@1@25001@... With the store on, a
# lockstep cell's failure is its pair's attempt 0, lane-importing
# siblings inherit their leader's, and only the retry runs again; the
# table and every per-point journal must match the store-off run. Each
# run's 870 pair_attempt_failed lines land in budget-mb*.events.
for mb in 512 0; do
  SPEC17_CACHE=budget-mb$mb "$spec17" explore "${lanes[@]}" --jobs=2 \
    --pair-deadline=25000 --retries=1 --trace-arena-mb=$mb \
    --explore-out=budget-mb$mb.csv 2> budget-mb$mb.events
  failed=$(grep -c '^event: pair_attempt_failed ' budget-mb$mb.events \
    || true)
  if [ "$failed" -ne 870 ]; then
    echo "budget-mb$mb logged $failed failed attempts, not 870" >&2
    exit 1
  fi
done
cmp budget-mb512.csv budget-mb0.csv
journals=(budget-mb512.explore.*.csv)
if [ ${#journals[@]} -ne 15 ]; then
  echo "the budget cross wrote ${#journals[@]} journals, not 15" >&2
  exit 1
fi
for journal in "${journals[@]}"; do
  cmp "$journal" "budget-mb0${journal#budget-mb512}"
  if tail -n +3 "$journal" \
      | grep -v ',deadline@0@25001@[^,|]*|deadline@1@25001@[^,|]*,'; then
    echo "$journal holds a record without both budget failures" >&2
    exit 1
  fi
done
for mb in 512 0; do
  "$spec17" explore "${explore[@]}" --multi-axis-mode=descent --no-cache \
    --jobs=2 --trace-arena-mb=$mb --explore-out=descent-mb$mb.csv
done
cmp descent-mb512.csv descent-mb0.csv
SPEC17_CACHE=replay "$spec17" explore "${explore[@]}" --jobs=2 \
  --explore-out=replay-full.csv
cmp replay-ref.csv replay-full.csv
# Simulate a mid-sweep kill: one point's journal vanishes entirely,
# another is torn mid-record; --resume replays the surviving prefix
# and re-simulates only what is missing.
journals=(replay.explore.*.csv)
rm "${journals[3]}"
head -n 5 "${journals[7]}" > torn.tmp
mv torn.tmp "${journals[7]}"
SPEC17_CACHE=replay "$spec17" explore "${explore[@]}" --jobs=2 --resume \
  --explore-out=replay-resumed.csv
cmp replay-ref.csv replay-resumed.csv
"$bench/bench_explore" "${small[@]}" --repeats=2 \
  --out=BENCH_explore.ci.json
python3 "$root/tools/check_bench.py" BENCH_explore.ci.json \
  "$root/BENCH_explore.json"

echo "== telemetry: a sampled parallel sweep writes its series"
"$spec17" characterize "${sweep[@]}" --sample-interval-ops=5000 \
  --telemetry-out=telemetry-smoke --no-cache --progress --jobs=2

echo "smoke: all checks passed"
