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
 *
 * The sweep engine captures a trace only when a second cell of its
 * row reads it, so a one-session sweep replays only what the store
 * already holds. The replay tests therefore either pre-warm the store
 * or run two sessions; the capture-policy tests pin the rule itself.
 */

#include "suite/arena_store.hh"
#include "suite/fanout.hh"
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
    // telemetry series live generation does.
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

/**
 * Acquires every trace a sweep of (@p suite, @p size) under
 * @p options reads: attempt 0, every thread of every well-formed pair.
 * A one-session sweep is one read of each trace and never captures,
 * so pre-warming is what makes it replay.
 */
void
prewarm(TraceArenaStore &store, const RunnerOptions &options,
        const std::vector<workloads::WorkloadProfile> &suite,
        InputSize size)
{
    const workloads::BuildOptions build = attemptBuildOptions(options, 0);
    for (const auto &pair : workloads::enumeratePairs(suite, size)) {
        if (!pair.profile->validationError().empty())
            continue;
        for (unsigned t = 0; t < pair.profile->numThreads; ++t)
            store.acquire(workloads::buildTraceParams(pair, build, t));
    }
}

/**
 * Sweeps (@p suite, @p size) as two journal-less sessions, @p a and
 * @p b, through the sweep engine: every row has two cells, so the
 * engine acquires each of its traces once, both cells replay it, and
 * the row releases it when it ends.
 */
std::vector<std::vector<PairResult>>
twoSessionSweep(const RunnerOptions &a, const RunnerOptions &b,
                const std::vector<workloads::WorkloadProfile> &suite,
                InputSize size)
{
    const SuiteRunner runner_a(a), runner_b(b);
    ResultCache journal_a(""), journal_b("");
    return runFanoutSweep(
        {{runner_a, journal_a, {}}, {runner_b, journal_b, {}}}, suite,
        size);
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
            // Two sessions, each publishing to its own sink. The store
            // starts with as many of the sweep's traces as the budget
            // holds (evicting under small budgets); every row finds or
            // recaptures its trace mid-sweep (evicting again), both
            // sessions' cells replay it, and the row releases it.
            telemetry::MemorySink sink_a, sink_b;
            RunnerOptions options = laneOptions(jobs, batch, &store);
            options.telemetrySink = &sink_a;
            RunnerOptions options_b = options;
            options_b.telemetrySink = &sink_b;
            prewarm(store, options, suite, InputSize::Test);
            EXPECT_LE(store.stats().residentBytes, budget);
            const std::uint64_t captured = store.stats().captures;
            const auto results = twoSessionSweep(options, options_b,
                                                 suite, InputSize::Test);

            expectResultsIdentical(golden, results[0]);
            expectResultsIdentical(golden, results[1]);
            expectSameTelemetry(ref_sink, sink_a);
            expectSameTelemetry(ref_sink, sink_b);
            // Every row released its traces. Everything fits the full
            // budget, so there the sweep is served from residency
            // without a single capture.
            EXPECT_EQ(store.stats().entries, 0u);
            if (budget == 512 * kMiB) {
                EXPECT_EQ(store.stats().captures, captured);
            }
        }
        // Both sweeps replayed through the store: every pair was
        // captured (pre-warm or row) and each sweep was served from
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
    // everything-resident budget, each store pre-warmed once so the
    // jobs=1 and jobs=8 sweeps both replay whatever it retained.
    Rng rng(0x5411e);
    for (const std::uint64_t budget : {std::uint64_t(1), 512 * kMiB}) {
        TraceArenaStore store(budget);
        const std::uint64_t batch = 1 + rng.nextBounded(4096);
        prewarm(store, laneOptions(1, batch, &store), suite,
                InputSize::Test);
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
        // The full-budget store serves both sweeps from residency:
        // replay-of-a-replayed-capture is still identical.
        if (budget > kMiB) {
            EXPECT_GT(store.stats().hits, 0u);
        }
    }
    ref_cache.invalidate();
}

TEST(ArenaReplayProperty, RunOrLoadCellsMatchLiveGeneration)
{
    // runOrLoad is the sweep engine's one-session call: its
    // single-threaded pairs run as lone lockstep cells that replay
    // what the store holds, sampled or not. Both must match the live
    // sweep's results and journal bytes at any job count.
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

    // Pre-warmed: a one-session sweep replays only what the store
    // already holds.
    TraceArenaStore store(512 * kMiB);
    prewarm(store, live, suite, InputSize::Test);
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

/** Sum of numThreads over the well-formed pairs of (@p suite,
 *  @p size) -- the traces a sweep of it reads -- or, with
 *  @p threaded_only, over its threaded pairs alone. */
std::uint64_t
traceCount(const std::vector<workloads::WorkloadProfile> &suite,
           InputSize size, bool threaded_only)
{
    std::uint64_t count = 0;
    for (const auto &pair : workloads::enumeratePairs(suite, size)) {
        const auto &profile = *pair.profile;
        if (profile.validationError().empty()
            && (!threaded_only || profile.numThreads > 1))
            count += profile.numThreads;
    }
    return count;
}

// cpu2017 `test` is the substrate of the capture-policy tests: unlike
// cpu2006 it has four-thread pairs, whose cells run through runPair.

TEST(ArenaCapturePolicy, OneSessionSweepCapturesNothing)
{
    // Each trace of a one-session sweep has exactly one reader, so the
    // sweep generates live and leaves a cold store cold, with journal
    // bytes equal to the store-less sweep's.
    const auto &suite = workloads::cpu2017Suite();
    const std::string dir(::testing::TempDir());
    RunnerOptions live = laneOptions(1, 0, nullptr);
    live.sampleIntervalOps = 0;
    const std::string ref_base = dir + "/spec17_capture_policy_ref";
    ResultCache ref_cache(ref_base);
    ref_cache.invalidate();
    const auto golden =
        ref_cache.runOrLoad(SuiteRunner(live), suite, InputSize::Test);
    const std::string ref_bytes =
        fileBytes(ref_base + ".cpu2017.test.csv");
    ASSERT_FALSE(ref_bytes.empty());

    for (const unsigned jobs : {1u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "jobs=" << jobs);
        TraceArenaStore store(512 * kMiB);
        RunnerOptions options = laneOptions(jobs, 0, &store);
        options.sampleIntervalOps = 0;
        const std::string base = dir + "/spec17_capture_policy_j"
            + std::to_string(jobs);
        ResultCache cache(base);
        cache.invalidate();
        expectResultsIdentical(
            golden,
            cache.runOrLoad(SuiteRunner(options), suite, InputSize::Test));
        EXPECT_EQ(fileBytes(base + ".cpu2017.test.csv"), ref_bytes);
        cache.invalidate();
        EXPECT_EQ(store.stats().captures, 0u);
        EXPECT_EQ(store.stats().entries, 0u);
    }
    ref_cache.invalidate();
}

TEST(ArenaCapturePolicy, TwoSessionSweepCapturesEachTraceOnce)
{
    // Every row has a second reader, so each trace -- every thread's
    // of a threaded pair -- is captured exactly once, up front, and
    // released when its row ends. The threaded pairs' runPair cells
    // of both sessions find their thread traces instead of generating
    // them. The sessions differ in batch size only, so each lockstep
    // cell leads its own clone group and prefills itself, and both
    // must match the store-less sweep.
    const auto &suite = workloads::cpu2017Suite();
    RunnerOptions live = laneOptions(1, 0, nullptr);
    live.sampleIntervalOps = 0;
    const auto golden = ResultCache("").runOrLoad(SuiteRunner(live), suite,
                                                  InputSize::Test);

    for (const unsigned jobs : {1u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "jobs=" << jobs);
        TraceArenaStore store(512 * kMiB);
        RunnerOptions options = laneOptions(jobs, 0, &store);
        options.sampleIntervalOps = 0;
        RunnerOptions rebatched = options;
        rebatched.batchOps = 777;
        const auto results =
            twoSessionSweep(options, rebatched, suite, InputSize::Test);
        expectResultsIdentical(golden, results[0]);
        expectResultsIdentical(golden, results[1]);

        const TraceArenaStore::Stats stats = store.stats();
        EXPECT_EQ(stats.captures,
                  traceCount(suite, InputSize::Test, false));
        ASSERT_EQ(stats.evictions, 0u);
        EXPECT_EQ(stats.hits,
                  2 * traceCount(suite, InputSize::Test, true));
        EXPECT_EQ(stats.entries, 0u);
    }
}

} // namespace
} // namespace suite
} // namespace spec17
