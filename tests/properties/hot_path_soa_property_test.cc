/**
 * @file
 * Property sweep over the SoA fast lane's batch-size space: for a
 * spread of deterministically drawn batch sizes -- the degenerate 1,
 * a prime 7, sizes that straddle telemetry sampling intervals, sizes
 * clamped by the watchdog op budget, and random draws in between --
 * a suite sweep on the batched SoA lane must be byte-identical to the
 * per-op reference lane on results, result-cache journal bytes, and
 * telemetry series, at jobs 1 and jobs 8. This generalizes the
 * hand-picked golden cases in hot_path_golden_test.cc to arbitrary
 * points of the knob space.
 */

#include "suite/result_cache.hh"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/sink.hh"
#include "util/random.hh"

namespace spec17 {
namespace suite {
namespace {

using workloads::InputSize;

constexpr std::uint64_t kSampleOps = 60000;
constexpr std::uint64_t kWarmupOps = 20000;
constexpr std::uint64_t kIntervalOps = 17000;
constexpr std::uint64_t kDeadlineOps = 130000;

RunnerOptions
laneOptions(unsigned jobs, std::uint64_t batch_ops, bool unbatched)
{
    RunnerOptions options;
    options.sampleOps = kSampleOps;
    options.warmupOps = kWarmupOps;
    options.jobs = jobs;
    options.batchOps = batch_ops;
    options.unbatchedStepping = unbatched;
    // Interval sampling and a (generous) deterministic watchdog are
    // both on, so every swept batch size exercises the step() clamp
    // against interval boundaries AND the per-attempt op budget.
    options.sampleIntervalOps = kIntervalOps;
    options.pairDeadlineOps = kDeadlineOps;
    return options;
}

/** Deterministic batch-size population: the required edge cases plus
 *  random draws across the space (same sequence every run). */
std::vector<std::uint64_t>
batchSizePopulation()
{
    std::vector<std::uint64_t> sizes = {
        1,                  // degenerate: one op per pull
        7,                  // prime, never divides an interval
        kIntervalOps - 1,   // straddles every sampling interval
        kIntervalOps + 1,   // immediately clamped at each interval
        kDeadlineOps,       // watchdog-clamped: budget < one batch
    };
    Rng rng(0xb47c4);
    for (int draw = 0; draw < 3; ++draw)
        sizes.push_back(1 + rng.nextBounded(8192));
    return sizes;
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

TEST(HotPathSoaProperty, RandomBatchSizesMatchReferenceLane)
{
    const auto &suite = workloads::cpu2006Suite();

    // Reference: per-op lane, jobs 1, with the same telemetry and
    // watchdog configuration as every swept point.
    telemetry::MemorySink ref_sink;
    RunnerOptions ref_options = laneOptions(1, 0, /*unbatched=*/true);
    ref_options.telemetrySink = &ref_sink;
    const auto golden = ResultCache("").runOrLoad(
        SuiteRunner(ref_options), suite, InputSize::Test);
    ASSERT_FALSE(ref_sink.all().empty());

    for (const std::uint64_t batch : batchSizePopulation()) {
        for (const unsigned jobs : {1u, 8u}) {
            SCOPED_TRACE(::testing::Message()
                         << "batchOps=" << batch << " jobs=" << jobs);
            telemetry::MemorySink sink;
            RunnerOptions options =
                laneOptions(jobs, batch, /*unbatched=*/false);
            options.telemetrySink = &sink;
            const auto results = ResultCache("").runOrLoad(
                SuiteRunner(options), suite, InputSize::Test);

            expectResultsIdentical(golden, results);

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
}

TEST(HotPathSoaProperty, JournalBytesMatchReferenceLane)
{
    const auto &suite = workloads::cpu2006Suite();
    const std::string dir(::testing::TempDir());

    const std::string ref_base = dir + "/spec17_soa_prop_ref";
    ResultCache ref_cache(ref_base);
    ref_cache.invalidate();
    ref_cache.runOrLoad(SuiteRunner(laneOptions(1, 0, true)), suite,
                        InputSize::Test);
    const std::string ref_bytes =
        fileBytes(ref_base + ".cpu2006.test.csv");
    ASSERT_FALSE(ref_bytes.empty());

    // A small journal-focused subset of the population (the journal
    // content depends on results only, pinned exhaustively above).
    Rng rng(0x50a50a);
    const std::vector<std::uint64_t> sizes = {
        7, kIntervalOps - 1, 1 + rng.nextBounded(8192)};
    for (const std::uint64_t batch : sizes) {
        for (const unsigned jobs : {1u, 8u}) {
            SCOPED_TRACE(::testing::Message()
                         << "batchOps=" << batch << " jobs=" << jobs);
            const std::string base = dir + "/spec17_soa_prop_b"
                + std::to_string(batch) + "_j" + std::to_string(jobs);
            ResultCache cache(base);
            cache.invalidate();
            cache.runOrLoad(
                SuiteRunner(laneOptions(jobs, batch, false)), suite,
                InputSize::Test);
            EXPECT_EQ(fileBytes(base + ".cpu2006.test.csv"), ref_bytes);
            cache.invalidate();
        }
    }
    ref_cache.invalidate();
}

} // namespace
} // namespace suite
} // namespace spec17
