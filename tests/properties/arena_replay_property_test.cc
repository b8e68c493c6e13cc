/**
 * @file
 * Property sweep over the trace-arena replay space: for random batch
 * sizes crossed with random arena byte budgets -- including budgets
 * too small to retain any arena (every pair served uncached) and
 * budgets that force LRU eviction churn mid-sweep -- a suite sweep
 * replaying captured arenas must be byte-identical to live generation
 * on results, result-cache journal bytes, and telemetry series, at
 * jobs 1 and jobs 8. Budget and eviction behaviour are execution
 * strategy, never semantics (docs/determinism.md); this test is the
 * property-level enforcement of that claim.
 */

#include "suite/arena_store.hh"
#include "suite/result_cache.hh"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/sink.hh"
#include "util/random.hh"
#include "util/units.hh"

namespace spec17 {
namespace suite {
namespace {

using workloads::InputSize;

constexpr std::uint64_t kSampleOps = 30000;
constexpr std::uint64_t kWarmupOps = 8000;
constexpr std::uint64_t kIntervalOps = 7000;

RunnerOptions
laneOptions(unsigned jobs, std::uint64_t batch_ops,
            TraceArenaStore *store)
{
    RunnerOptions options;
    options.sampleOps = kSampleOps;
    options.warmupOps = kWarmupOps;
    options.jobs = jobs;
    options.batchOps = batch_ops;
    // Interval sampling stays on so replayed pairs publish the same
    // telemetry series live generation does. No watchdog deadlines:
    // an armed deadline disables replay by design (the cooperative
    // cancel must act DURING generation), which would turn this test
    // into a trivial live-vs-live comparison.
    options.sampleIntervalOps = kIntervalOps;
    options.arenaStore = store;
    return options;
}

/**
 * Deterministic budget population: one pair's arena at this sample
 * size is ~1-2 MiB of lanes, and the cpu2006/test sweep holds a few
 * dozen pairs, so the population spans "nothing fits" (uncached
 * service), "a handful fit" (LRU churn), and "everything fits".
 */
std::vector<std::uint64_t>
budgetPopulation()
{
    std::vector<std::uint64_t> budgets = {
        1,          // smaller than any arena: all uncached
        2 * kMiB,   // roughly one arena resident at a time
        512 * kMiB, // everything resident
    };
    Rng rng(0xa7e4a);
    for (int draw = 0; draw < 2; ++draw)
        budgets.push_back(1 + rng.nextBounded(16 * kMiB));
    return budgets;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
expectResultsIdentical(const std::vector<PairResult> &a,
                       const std::vector<PairResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].errored, b[i].errored) << a[i].name;
        EXPECT_DOUBLE_EQ(a[i].wallCycles, b[i].wallCycles) << a[i].name;
        EXPECT_DOUBLE_EQ(a[i].seconds, b[i].seconds) << a[i].name;
        for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
            const auto event = static_cast<counters::PerfEvent>(e);
            EXPECT_EQ(a[i].counters.get(event),
                      b[i].counters.get(event))
                << a[i].name << " " << perfEventName(event);
        }
    }
}

void
expectSameTelemetry(const telemetry::MemorySink &ref,
                    const telemetry::MemorySink &got)
{
    ASSERT_EQ(got.all().size(), ref.all().size());
    for (const auto &[name, series] : ref.all()) {
        const telemetry::TimeSeries *other = got.find(name);
        ASSERT_NE(other, nullptr) << name;
        std::ostringstream ref_csv, csv;
        telemetry::renderSeriesCsv(series, ref_csv);
        telemetry::renderSeriesCsv(*other, csv);
        EXPECT_EQ(csv.str(), ref_csv.str()) << name;
    }
}

TEST(ArenaReplayProperty, RandomBudgetsAndBatchSizesMatchLiveGeneration)
{
    const auto &suite = workloads::cpu2006Suite();

    // Reference: live generation (no arena store), jobs 1, same
    // telemetry configuration as every swept point.
    telemetry::MemorySink ref_sink;
    RunnerOptions ref_options = laneOptions(1, 0, nullptr);
    ref_options.telemetrySink = &ref_sink;
    const auto golden = ResultCache("").runOrLoad(
        SuiteRunner(ref_options), suite, InputSize::Test);
    ASSERT_FALSE(ref_sink.all().empty());

    Rng rng(0xc0ffee);
    for (const std::uint64_t budget : budgetPopulation()) {
        const std::uint64_t batch = 1 + rng.nextBounded(4096);
        TraceArenaStore store(budget);
        for (const unsigned jobs : {1u, 8u}) {
            SCOPED_TRACE(::testing::Message()
                         << "budget=" << budget << " batchOps=" << batch
                         << " jobs=" << jobs);
            telemetry::MemorySink sink;
            RunnerOptions options = laneOptions(jobs, batch, &store);
            options.telemetrySink = &sink;
            const auto results = ResultCache("").runOrLoad(
                SuiteRunner(options), suite, InputSize::Test);

            expectResultsIdentical(golden, results);
            expectSameTelemetry(ref_sink, sink);
        }
        // Both sweeps replayed through the store: every pair was
        // captured (first sweep) and the second sweep was served from
        // residency wherever the budget allowed.
        EXPECT_GT(store.stats().captures, 0u);
        EXPECT_LE(store.stats().residentBytes, budget);
    }
}

TEST(ArenaReplayProperty, JournalBytesMatchLiveGeneration)
{
    const auto &suite = workloads::cpu2006Suite();
    const std::string dir(::testing::TempDir());

    const std::string ref_base = dir + "/spec17_arena_prop_ref";
    ResultCache ref_cache(ref_base);
    ref_cache.invalidate();
    ref_cache.runOrLoad(SuiteRunner(laneOptions(1, 0, nullptr)), suite,
                        InputSize::Test);
    const std::string ref_bytes =
        fileBytes(ref_base + ".cpu2006.test.csv");
    ASSERT_FALSE(ref_bytes.empty());

    // A journal-focused subset (journal content depends on results
    // only, pinned exhaustively above): one starved budget, one
    // everything-resident budget, reusing one store across job counts
    // so the jobs=8 run replays arenas the jobs=1 run captured.
    Rng rng(0x5411e);
    for (const std::uint64_t budget : {std::uint64_t(1), 512 * kMiB}) {
        TraceArenaStore store(budget);
        const std::uint64_t batch = 1 + rng.nextBounded(4096);
        for (const unsigned jobs : {1u, 8u}) {
            SCOPED_TRACE(::testing::Message()
                         << "budget=" << budget << " batchOps=" << batch
                         << " jobs=" << jobs);
            const std::string base = dir + "/spec17_arena_prop_b"
                + std::to_string(budget) + "_j" + std::to_string(jobs);
            ResultCache cache(base);
            cache.invalidate();
            cache.runOrLoad(SuiteRunner(laneOptions(jobs, batch, &store)),
                            suite, InputSize::Test);
            EXPECT_EQ(fileBytes(base + ".cpu2006.test.csv"), ref_bytes);
            cache.invalidate();
        }
        // The full-budget store serves the second sweep from
        // residency: replay-of-a-replayed-capture is still identical.
        if (budget > kMiB)
            EXPECT_GT(store.stats().hits, 0u);
    }
    ref_cache.invalidate();
}

TEST(ArenaReplayProperty, RunOrLoadCellsMatchLiveGeneration)
{
    // runOrLoad is the sweep engine's one-session call: with sampling
    // off its single-threaded pairs run as lockstep replay cells, with
    // sampling on every pair runs through runPair. Both must match the
    // live sweep's results and journal bytes at any job count.
    const auto &suite = workloads::cpu2006Suite();
    const std::string dir(::testing::TempDir());
    RunnerOptions live = laneOptions(1, 0, nullptr);
    live.sampleIntervalOps = 0;
    const std::string ref_base = dir + "/spec17_arena_prop_cells_ref";
    ResultCache ref_cache(ref_base);
    ref_cache.invalidate();
    const auto golden =
        ref_cache.runOrLoad(SuiteRunner(live), suite, InputSize::Test);
    const std::string ref_bytes =
        fileBytes(ref_base + ".cpu2006.test.csv");
    ASSERT_FALSE(ref_bytes.empty());

    TraceArenaStore store(512 * kMiB);
    for (const std::uint64_t interval : {std::uint64_t(0), kIntervalOps}) {
        for (const unsigned jobs : {1u, 8u}) {
            SCOPED_TRACE(::testing::Message()
                         << "interval=" << interval << " jobs=" << jobs);
            RunnerOptions options = laneOptions(jobs, 0, &store);
            options.sampleIntervalOps = interval;
            const std::string base = dir + "/spec17_arena_prop_cells_i"
                + std::to_string(interval) + "_j" + std::to_string(jobs);
            ResultCache cache(base);
            cache.invalidate();
            expectResultsIdentical(
                golden,
                cache.runOrLoad(SuiteRunner(options), suite,
                                InputSize::Test));
            EXPECT_EQ(fileBytes(base + ".cpu2006.test.csv"), ref_bytes);
            cache.invalidate();
        }
    }
    EXPECT_GT(store.stats().hits, 0u);
    ref_cache.invalidate();
}

} // namespace
} // namespace suite
} // namespace spec17
