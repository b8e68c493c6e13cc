/**
 * @file
 * Extension experiment: parallel sweep scaling. Runs the same
 * cpu2006 test-input sweep at --jobs 1/2/4/8 and reports wall time
 * and speedup per job count, verifying along the way that every
 * configuration produced identical results -- the determinism
 * contract measured, not assumed. Pairs are embarrassingly parallel
 * (per-pair seeds derive purely from the root seed and the pair
 * identity), so scaling should track the core count until the
 * longest single pair dominates.
 */

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/common.hh"
#include "suite/result_cache.hh"
#include "util/table.hh"

using namespace spec17;

namespace {

/** Wall-clock seconds for one full sweep under @p options. */
double
timeSweep(const suite::RunnerOptions &options,
          std::vector<suite::PairResult> &results)
{
    const auto start = std::chrono::steady_clock::now();
    results = suite::ResultCache("").runOrLoad(
        suite::SuiteRunner(options), workloads::cpu2006Suite(),
        workloads::InputSize::Test);
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** True when both sweeps agree on every counter of every pair. */
bool
identicalResults(const std::vector<suite::PairResult> &a,
                 const std::vector<suite::PairResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].name != b[i].name || a[i].seconds != b[i].seconds)
            return false;
        for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
            const auto event = static_cast<counters::PerfEvent>(e);
            if (a[i].counters.get(event) != b[i].counters.get(event))
                return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    auto options = bench::parseOptions(argc, argv);
    bench::printHeader(
        "Extension: parallel sweep scaling (--jobs 1/2/4/8)", options);
    std::printf("hardware concurrency: %u (speedup saturates here; "
                "job counts beyond it only\nmeasure oversubscription "
                "overhead)\n\n",
                std::thread::hardware_concurrency());

    auto runner_options = options.runner;
    // Warm one throwaway sweep so allocator/page-cache effects hit
    // every timed job count equally.
    std::vector<suite::PairResult> golden;
    runner_options.jobs = 1;
    timeSweep(runner_options, golden);

    TextTable table({"jobs", "wall s", "speedup", "identical"});
    double baseline_s = 0.0;
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        runner_options.jobs = jobs;
        std::vector<suite::PairResult> results;
        const double wall_s = timeSweep(runner_options, results);
        if (jobs == 1)
            baseline_s = wall_s;
        table.addRow({std::to_string(jobs), fmtDouble(wall_s, 3),
                      fmtDouble(baseline_s / wall_s, 2) + "x",
                      identicalResults(golden, results) ? "yes"
                                                        : "NO"});
    }
    bench::emitTable("parallel_sweep", table);

    std::printf("reading: pairs are embarrassingly parallel and the "
                "ordered-commit drain adds\nonly a mutex per "
                "completion, so speedup tracks the core count until "
                "the\nlongest single pair dominates the critical "
                "path; 'identical' confirms every\njob count produced "
                "byte-for-byte the same counters.\n");
    return 0;
}
