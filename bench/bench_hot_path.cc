/**
 * @file
 * Extension experiment: batched hot-path throughput. Times the same
 * cpu2006 test-input sweep on the per-op reference lane
 * (--unbatched-stepping) and on the batched fast lane at several
 * batch sizes, verifies that every configuration produced identical
 * counters (the golden contract measured, not assumed), and writes a
 * machine-readable BENCH_hot_path.json for CI trend tracking.
 *
 * Flags (separate from the common bench flags; this binary times the
 * runner rather than regenerating a paper artifact):
 *   --pairs=N    only the first N pairs of the sweep (0 = all); every
 *                cpu2006 application has one test input, so these are
 *                the first N applications
 *   --sample=N   micro-ops measured per pair (default 2,000,000)
 *   --warmup=N   micro-ops warmed per pair (default 600,000)
 *   --repeats=N  timed repetitions per lane, best wall time kept
 *                (default 3)
 *   --out=PATH   JSON output path (default BENCH_hot_path.json)
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "suite/result_cache.hh"
#include "util/atomic_file.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "workloads/builder.hh"

using namespace spec17;

namespace {

struct BenchOptions
{
    std::size_t pairs = 0;
    std::uint64_t sampleOps = 2'000'000;
    std::uint64_t warmupOps = 600'000;
    unsigned repeats = 3;
    std::string outPath = "BENCH_hot_path.json";
};

BenchOptions
parseArgs(int argc, char **argv)
{
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--pairs=", 0) == 0) {
            options.pairs = std::stoull(arg.substr(8));
        } else if (arg.rfind("--sample=", 0) == 0) {
            options.sampleOps = std::stoull(arg.substr(9));
        } else if (arg.rfind("--warmup=", 0) == 0) {
            options.warmupOps = std::stoull(arg.substr(9));
        } else if (arg.rfind("--repeats=", 0) == 0) {
            options.repeats = static_cast<unsigned>(
                std::stoul(arg.substr(10)));
        } else if (arg.rfind("--out=", 0) == 0) {
            options.outPath = arg.substr(6);
        } else {
            SPEC17_FATAL("unknown argument '", arg,
                         "' (want --pairs=N --sample=N --warmup=N"
                         " --repeats=N --out=PATH)");
        }
    }
    if (options.repeats == 0)
        options.repeats = 1;
    return options;
}

/** One lane's measurement: best wall time over the repeats. */
struct LaneTiming
{
    double wallSeconds = 0.0;
    std::vector<suite::PairResult> results;
};

/** Runs one sweep and folds its wall time into the lane's best.
 *  Repeats for the different lanes are interleaved round-robin by the
 *  caller, so a transient load spike on a shared host degrades every
 *  lane's r-th repeat alike instead of silently skewing one lane's
 *  whole block -- the best-of-N ratio stays meaningful under noise. */
void
timeLaneOnce(const suite::RunnerOptions &options,
             const std::vector<workloads::WorkloadProfile> &suite,
             LaneTiming &timing)
{
    const suite::SuiteRunner runner(options);
    const auto start = std::chrono::steady_clock::now();
    auto results = suite::ResultCache("").runOrLoad(
        runner, suite, workloads::InputSize::Test);
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    if (timing.results.empty() || wall_s < timing.wallSeconds) {
        timing.wallSeconds = wall_s;
        timing.results = std::move(results);
    }
}

LaneTiming
timeLane(const suite::RunnerOptions &options,
         const std::vector<workloads::WorkloadProfile> &suite,
         unsigned repeats)
{
    LaneTiming timing;
    for (unsigned r = 0; r < repeats; ++r)
        timeLaneOnce(options, suite, timing);
    return timing;
}

/** True when both sweeps agree on every counter of every pair. */
bool
identicalResults(const std::vector<suite::PairResult> &a,
                 const std::vector<suite::PairResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].name != b[i].name || a[i].errored != b[i].errored
            || a[i].seconds != b[i].seconds
            || a[i].wallCycles != b[i].wallCycles)
            return false;
        for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
            const auto event = static_cast<counters::PerfEvent>(e);
            if (a[i].counters.get(event) != b[i].counters.get(event))
                return false;
        }
    }
    return true;
}

/** Simulated micro-ops one sweep executes (measured plus warmup). */
std::uint64_t
sweepOps(const std::vector<suite::PairResult> &results,
         std::uint64_t warmup_ops)
{
    std::uint64_t ops = 0;
    for (const auto &result : results) {
        if (result.errored)
            continue;
        ops += result.counters.get(
                   counters::PerfEvent::InstRetiredAny)
            + warmup_ops;
    }
    return ops;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions bench = parseArgs(argc, argv);

    std::vector<workloads::WorkloadProfile> suite =
        workloads::cpu2006Suite();
    if (bench.pairs != 0 && bench.pairs < suite.size())
        suite.resize(bench.pairs);
    const auto pairs =
        workloads::enumeratePairs(suite, workloads::InputSize::Test);

    suite::RunnerOptions options;
    options.sampleOps = bench.sampleOps;
    options.warmupOps = bench.warmupOps;

    std::printf("bench_hot_path: %zu pairs, sample=%llu warmup=%llu, "
                "best of %u repeats per lane\n\n",
                pairs.size(),
                static_cast<unsigned long long>(bench.sampleOps),
                static_cast<unsigned long long>(bench.warmupOps),
                bench.repeats);

    // Throwaway warm sweep so allocator/page-cache effects hit every
    // timed lane equally.
    timeLane(options, suite, 1);

    suite::RunnerOptions reference = options;
    reference.unbatchedStepping = true;
    const std::vector<std::uint64_t> batch_sizes{
        64, sim::CpuSimulator::kDefaultBatchOps, 1024};

    // Interleave the lanes' repeats (see timeLaneOnce).
    LaneTiming unbatched;
    std::vector<LaneTiming> batched(batch_sizes.size());
    for (unsigned r = 0; r < bench.repeats; ++r) {
        timeLaneOnce(reference, suite, unbatched);
        for (std::size_t i = 0; i < batch_sizes.size(); ++i) {
            suite::RunnerOptions batched_options = options;
            batched_options.batchOps = batch_sizes[i];
            timeLaneOnce(batched_options, suite, batched[i]);
        }
    }

    const std::uint64_t total_ops =
        sweepOps(unbatched.results, bench.warmupOps);
    const double unbatched_ops_s =
        double(total_ops) / unbatched.wallSeconds;

    struct BatchedPoint
    {
        std::uint64_t batchOps;
        double wallSeconds;
        double opsPerSecond;
        double speedup;
        bool identical;
    };
    std::vector<BatchedPoint> points;
    bool all_identical = true;
    for (std::size_t i = 0; i < batch_sizes.size(); ++i) {
        const bool identical =
            identicalResults(unbatched.results, batched[i].results);
        all_identical = all_identical && identical;
        points.push_back({batch_sizes[i], batched[i].wallSeconds,
                          double(total_ops) / batched[i].wallSeconds,
                          unbatched.wallSeconds
                              / batched[i].wallSeconds,
                          identical});
    }

    TextTable table(
        {"lane", "wall s", "Mops/s", "speedup", "identical"});
    table.addRow({"unbatched", fmtDouble(unbatched.wallSeconds, 3),
                  fmtDouble(unbatched_ops_s / 1e6, 1), "1.00x",
                  "(reference)"});
    for (const auto &point : points)
        table.addRow({"batch=" + std::to_string(point.batchOps),
                      fmtDouble(point.wallSeconds, 3),
                      fmtDouble(point.opsPerSecond / 1e6, 1),
                      fmtDouble(point.speedup, 2) + "x",
                      point.identical ? "yes" : "NO"});
    std::ostringstream rendered;
    table.render(rendered);
    std::printf("%s\n", rendered.str().c_str());

    // Committed via temp+rename like the telemetry sinks: a bench
    // interrupted mid-write can't leave a torn baseline JSON behind.
    std::ostringstream out;
    out << "{\n"
        << "  \"bench\": \"hot_path\",\n"
        << "  \"pairs\": " << pairs.size() << ",\n"
        << "  \"sample_ops\": " << bench.sampleOps << ",\n"
        << "  \"warmup_ops\": " << bench.warmupOps << ",\n"
        << "  \"repeats\": " << bench.repeats << ",\n"
        << "  \"total_ops\": " << total_ops << ",\n"
        << "  \"unbatched\": {\"wall_s\": " << unbatched.wallSeconds
        << ", \"ops_per_s\": " << unbatched_ops_s << "},\n"
        << "  \"batched\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &point = points[i];
        out << "    {\"batch_ops\": " << point.batchOps
            << ", \"wall_s\": " << point.wallSeconds
            << ", \"ops_per_s\": " << point.opsPerSecond
            << ", \"speedup\": " << point.speedup
            << ", \"identical\": "
            << (point.identical ? "true" : "false") << "}"
            << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::string error;
    if (!writeFileAtomic(bench.outPath, out.str(), error))
        SPEC17_FATAL(error);
    std::printf("wrote %s\n", bench.outPath.c_str());

    if (!all_identical) {
        std::fprintf(stderr,
                     "FAIL: batched lane diverged from the reference "
                     "lane -- the determinism contract is broken\n");
        return 1;
    }
    std::printf("reading: speedup is the wall-time ratio of the same "
                "sweep on the two lanes;\n'identical' confirms every "
                "batch size produced byte-for-byte the same "
                "counters\n(the JSON mirrors this table for CI trend "
                "tracking).\n");
    return 0;
}
