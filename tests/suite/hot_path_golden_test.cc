/**
 * @file
 * Batched-hot-path golden identity at suite scope: the acceptance bar
 * for the fast lane is that per-pair results, result-cache journal
 * bytes and telemetry series are byte-identical to the per-op
 * reference lane at ANY batch size and ANY job count, including under
 * fault injection that fires mid-batch. These tests pin that contract
 * end to end, and pin that neither lane knob is part of the config
 * key (switching lanes must never invalidate a cached sweep).
 */

#include "suite/result_cache.hh"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "telemetry/sink.hh"

namespace spec17 {
namespace suite {
namespace {

using workloads::InputSize;

RunnerOptions
fastOptions(unsigned jobs, std::uint64_t batch_ops,
            bool unbatched = false)
{
    RunnerOptions options;
    options.sampleOps = 60000;
    options.warmupOps = 20000;
    options.jobs = jobs;
    options.batchOps = batch_ops;
    options.unbatchedStepping = unbatched;
    return options;
}

RunnerOptions
referenceOptions()
{
    return fastOptions(1, 0, /*unbatched=*/true);
}

std::string
tempBase(const char *tag)
{
    return std::string(::testing::TempDir()) + "/spec17_hp_" + tag;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::vector<std::string>
pairNames(InputSize size)
{
    std::vector<std::string> names;
    for (const auto &pair :
         enumeratePairs(workloads::cpu2006Suite(), size))
        names.push_back(pair.displayName());
    return names;
}

void
expectResultsIdentical(const std::vector<PairResult> &a,
                       const std::vector<PairResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].errored, b[i].errored) << a[i].name;
        EXPECT_EQ(a[i].attempts, b[i].attempts) << a[i].name;
        EXPECT_DOUBLE_EQ(a[i].wallCycles, b[i].wallCycles) << a[i].name;
        EXPECT_DOUBLE_EQ(a[i].seconds, b[i].seconds) << a[i].name;
        for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
            const auto event = static_cast<counters::PerfEvent>(e);
            EXPECT_EQ(a[i].counters.get(event), b[i].counters.get(event))
                << a[i].name << " " << perfEventName(event);
        }
    }
}

TEST(HotPathGolden, ResultsMatchReferenceLaneAtAnyBatchSize)
{
    const auto golden = ResultCache("").runOrLoad(
        SuiteRunner(referenceOptions()), workloads::cpu2006Suite(),
        InputSize::Test);
    // 1 = degenerate, 7 = never divides a sampling interval, 64/256/
    // 1024 and the simulator default cover the production sizes.
    for (const std::uint64_t batch :
         {1ull, 7ull, 64ull, 256ull, 1024ull, 0ull}) {
        SCOPED_TRACE(::testing::Message() << "batchOps=" << batch);
        const auto batched = ResultCache("").runOrLoad(
            SuiteRunner(fastOptions(1, batch)), workloads::cpu2006Suite(),
            InputSize::Test);
        expectResultsIdentical(golden, batched);
    }
}

TEST(HotPathGolden, ResultsMatchReferenceLaneOnWorkerPool)
{
    const auto golden = ResultCache("").runOrLoad(
        SuiteRunner(referenceOptions()), workloads::cpu2006Suite(),
        InputSize::Test);
    const auto batched = ResultCache("").runOrLoad(
        SuiteRunner(fastOptions(8, 64)), workloads::cpu2006Suite(),
        InputSize::Test);
    expectResultsIdentical(golden, batched);
}

TEST(HotPathGolden, ConfigKeyIgnoresLaneKnobs)
{
    // The lane is an execution strategy, not a configuration: a
    // journal written unbatched replays on the fast lane and vice
    // versa, at any batch size.
    const std::string reference = SuiteRunner(referenceOptions())
                                      .configKey();
    EXPECT_EQ(SuiteRunner(fastOptions(1, 0)).configKey(), reference);
    EXPECT_EQ(SuiteRunner(fastOptions(8, 7)).configKey(), reference);
    EXPECT_EQ(SuiteRunner(fastOptions(1, 4096)).configKey(), reference);
}

TEST(HotPathGolden, JournalBytesIdenticalAcrossLanes)
{
    const auto &suite = workloads::cpu2006Suite();

    const std::string ref_base = tempBase("ref");
    ResultCache ref_cache(ref_base);
    ref_cache.invalidate();
    ref_cache.runOrLoad(SuiteRunner(referenceOptions()), suite,
                        InputSize::Test);
    const std::string ref_bytes =
        fileBytes(ref_base + ".cpu2006.test.csv");
    ASSERT_FALSE(ref_bytes.empty());

    for (const std::uint64_t batch : {7ull, 64ull}) {
        SCOPED_TRACE(::testing::Message() << "batchOps=" << batch);
        const std::string base =
            tempBase(batch == 7 ? "b7" : "b64");
        ResultCache cache(base);
        cache.invalidate();
        cache.runOrLoad(SuiteRunner(fastOptions(8, batch)), suite,
                        InputSize::Test);
        EXPECT_EQ(fileBytes(base + ".cpu2006.test.csv"), ref_bytes);
        cache.invalidate();
    }
    ref_cache.invalidate();
}

TEST(HotPathGolden, TelemetrySeriesIdenticalAcrossLanes)
{
    // sampleIntervalOps = 20000 with batch sizes 7 and 4096: neither
    // divides the interval, so the step() clamp is what keeps every
    // sample boundary exact. The reference series doubles as proof.
    const auto &suite = workloads::cpu2006Suite();

    telemetry::MemorySink ref_sink;
    RunnerOptions ref_options = referenceOptions();
    ref_options.sampleIntervalOps = 20000;
    ref_options.telemetrySink = &ref_sink;
    ResultCache("").runOrLoad(SuiteRunner(ref_options), suite,
                              InputSize::Test);
    ASSERT_FALSE(ref_sink.all().empty());

    for (const std::uint64_t batch : {7ull, 4096ull}) {
        SCOPED_TRACE(::testing::Message() << "batchOps=" << batch);
        telemetry::MemorySink sink;
        RunnerOptions options = fastOptions(1, batch);
        options.sampleIntervalOps = 20000;
        options.telemetrySink = &sink;
        ResultCache("").runOrLoad(SuiteRunner(options), suite,
                                  InputSize::Test);

        ASSERT_EQ(sink.all().size(), ref_sink.all().size());
        for (const auto &[name, series] : ref_sink.all()) {
            const telemetry::TimeSeries *other = sink.find(name);
            ASSERT_NE(other, nullptr) << name;
            std::ostringstream ref_csv, csv;
            telemetry::renderSeriesCsv(series, ref_csv);
            telemetry::renderSeriesCsv(*other, csv);
            EXPECT_EQ(csv.str(), ref_csv.str()) << name;
        }
    }
}

TEST(HotPathGolden, InjectedFaultsFireIdenticallyMidBatch)
{
    // A watchdog op-deadline trips at a chunk boundary; the batched
    // lane's internal batches are clamped to the same chunk sizes, so
    // the failure must land at the identical op count. An injected
    // throw on another pair checks exception containment too.
    const auto names = pairNames(InputSize::Test);
    const std::string &stalled = names[1];
    const std::string &thrown = names[names.size() / 2];

    const auto sweep = [&](RunnerOptions options) {
        ScriptedFaultInjector injector;
        injector.set(stalled, 0, FaultInjector::Action::Stall);
        injector.set(thrown, 0, FaultInjector::Action::Throw);
        options.faultInjector = &injector;
        options.pairDeadlineOps = 200000; // > warmup + sample
        return ResultCache("").runOrLoad(SuiteRunner(options),
                                         workloads::cpu2006Suite(),
                                         InputSize::Test);
    };

    const auto golden = sweep(referenceOptions());
    const auto batched = sweep(fastOptions(4, 7));
    expectResultsIdentical(golden, batched);

    for (const auto &results : {golden, batched}) {
        for (const auto &result : results) {
            if (result.name == stalled) {
                EXPECT_TRUE(result.errored);
                ASSERT_NE(result.finalFailure(), nullptr);
                EXPECT_EQ(result.finalFailure()->category,
                          FailureCategory::Deadline);
            } else if (result.name == thrown) {
                EXPECT_TRUE(result.errored);
                ASSERT_NE(result.finalFailure(), nullptr);
                EXPECT_EQ(result.finalFailure()->category,
                          FailureCategory::Injected);
            } else {
                EXPECT_FALSE(result.errored) << result.name;
            }
        }
    }

    // Failure metadata (not just the verdict) must match: the op
    // count at which the watchdog fired is part of the record.
    for (std::size_t i = 0; i < golden.size(); ++i) {
        ASSERT_EQ(golden[i].failures.size(), batched[i].failures.size());
        for (std::size_t f = 0; f < golden[i].failures.size(); ++f) {
            EXPECT_EQ(golden[i].failures[f].category,
                      batched[i].failures[f].category);
            EXPECT_EQ(golden[i].failures[f].message,
                      batched[i].failures[f].message)
                << golden[i].name;
        }
    }
}

TEST(HotPathGolden, RetriesRecoverIdenticallyAcrossLanes)
{
    // A transient fault on attempt 0 recovers on attempt 1 with the
    // perturbed seed; the recovered counters must not depend on the
    // lane either.
    const auto names = pairNames(InputSize::Test);
    const std::string &flaky = names[2];

    const auto sweep = [&](RunnerOptions options) {
        ScriptedFaultInjector injector;
        injector.set(flaky, 0, FaultInjector::Action::Throw);
        options.faultInjector = &injector;
        options.maxRetries = 1;
        return ResultCache("").runOrLoad(SuiteRunner(options),
                                         workloads::cpu2006Suite(),
                                         InputSize::Test);
    };

    const auto golden = sweep(referenceOptions());
    const auto batched = sweep(fastOptions(1, 64));
    expectResultsIdentical(golden, batched);
    for (const auto &result : golden) {
        if (result.name == flaky) {
            EXPECT_TRUE(result.recovered());
        }
    }
}

} // namespace
} // namespace suite
} // namespace spec17
