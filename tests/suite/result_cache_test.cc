#include "suite/result_cache.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace spec17 {
namespace suite {
namespace {

using workloads::InputSize;

RunnerOptions
fastOptions()
{
    RunnerOptions options;
    options.sampleOps = 60000;
    options.warmupOps = 20000;
    return options;
}

/** Temp path unique per test to avoid cross-test pollution. */
std::string
tempBase(const char *tag)
{
    return std::string(::testing::TempDir()) + "/spec17_cache_" + tag;
}

TEST(ResultCache, RoundTripsExactCounters)
{
    const std::string base = tempBase("roundtrip");
    SuiteRunner runner(fastOptions());
    const auto &suite = workloads::cpu2006Suite();

    ResultCache cache(base);
    cache.invalidate();
    const auto fresh = cache.runOrLoad(runner, suite, InputSize::Test);
    const auto reloaded = cache.runOrLoad(runner, suite, InputSize::Test);

    ASSERT_EQ(fresh.size(), reloaded.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(fresh[i].name, reloaded[i].name);
        EXPECT_EQ(fresh[i].errored, reloaded[i].errored);
        EXPECT_DOUBLE_EQ(fresh[i].wallCycles, reloaded[i].wallCycles);
        EXPECT_DOUBLE_EQ(fresh[i].seconds, reloaded[i].seconds);
        EXPECT_EQ(fresh[i].profile, reloaded[i].profile);
        for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
            const auto event = static_cast<counters::PerfEvent>(e);
            EXPECT_EQ(fresh[i].counters.get(event),
                      reloaded[i].counters.get(event));
        }
    }
    cache.invalidate();
}

TEST(ResultCache, ConfigChangeInvalidates)
{
    const std::string base = tempBase("config");
    const auto &suite = workloads::cpu2006Suite();

    SuiteRunner runner_a(fastOptions());
    ResultCache cache(base);
    cache.invalidate();
    cache.runOrLoad(runner_a, suite, InputSize::Test);

    // A different configuration must not read runner_a's results:
    // the sweep reruns (detectable via differing sample counts).
    RunnerOptions other = fastOptions();
    other.sampleOps = 90000;
    SuiteRunner runner_b(other);
    const auto results = cache.runOrLoad(runner_b, suite,
                                         InputSize::Test);
    const auto instr = results.front().counters.get(
        counters::PerfEvent::InstRetiredAny);
    EXPECT_NEAR(double(instr), 90000.0, 2000.0);
    cache.invalidate();
}

TEST(ResultCache, CorruptFileFallsBackToRun)
{
    const std::string base = tempBase("corrupt");
    SuiteRunner runner(fastOptions());
    const auto &suite = workloads::cpu2006Suite();
    ResultCache cache(base);
    cache.invalidate();
    cache.runOrLoad(runner, suite, InputSize::Test);

    // Truncate the cache file.
    const std::string file = base + ".cpu2006.test.csv";
    {
        std::ofstream out(file, std::ios::trunc);
        out << "garbage\n";
    }
    const auto results = cache.runOrLoad(runner, suite, InputSize::Test);
    EXPECT_EQ(results.size(), 29u);

    // A hash-valid record whose cells no writer emits is damaged too:
    // resuming replays the rows before it and simulates its pair
    // again, rather than load a wrapped, widened or defaulted number.
    const auto read_lines = [&file] {
        std::ifstream in(file);
        std::vector<std::string> lines;
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
        return lines;
    };
    const auto split = [](const std::string &payload) {
        std::vector<std::string> cells;
        std::istringstream stream(payload);
        for (std::string cell; std::getline(stream, cell, ',');)
            cells.push_back(cell);
        return cells;
    };
    constexpr std::size_t kFirstCounter = 8;
    const std::vector<std::pair<std::size_t, const char *>> damage = {
        {kFirstCounter, "-1"},
        {kFirstCounter, "+5"},
        {kFirstCounter, " 5"},
        {kFirstCounter, "18446744073709551616"},
        {1, "4294967296"},
        {2, "2"},
        {4, "deadline@@@x"},
        {4, "deadline@4294967296@5@x"},
        {4, "deadline@-1@-1@x"},
        {5, " 1.5"},
        {5, "+1.5"},
        {6, "0x1p3"},
        {6, "inf"},
        {7, "nan"},
        {7, "1e309"},
    };
    // Rewrites the last record with @p text in @p column, re-hashed.
    const auto rewrite_last = [&](std::size_t column,
                                  const std::string &text) {
        std::vector<std::string> lines = read_lines();
        ASSERT_EQ(lines.size(), 2u + results.size());
        std::string reason;
        const auto header = JournalHeader::parse(lines[0], reason);
        ASSERT_TRUE(header.has_value()) << reason;
        std::string &last = lines.back();
        std::vector<std::string> cells =
            split(last.substr(0, last.rfind(',')));
        cells[column] = text;
        std::string payload = cells[0];
        for (std::size_t c = 1; c < cells.size(); ++c)
            payload += "," + cells[c];
        last = payload + ","
            + recordHash(header->configFingerprint, payload);
        std::ofstream out(file, std::ios::trunc | std::ios::binary);
        for (const std::string &line : lines)
            out << line << "\n";
    };
    const auto event = static_cast<counters::PerfEvent>(0);
    for (const auto &[column, bad] : damage) {
        SCOPED_TRACE(::testing::Message()
                     << "cell " << column << " = '" << bad << "'");
        rewrite_last(column, bad);
        const auto reread = ResultCache(base, /*resume=*/true)
                                .runOrLoad(runner, suite, InputSize::Test);
        ASSERT_EQ(reread.size(), results.size());
        EXPECT_TRUE(reread.front().replayed);
        EXPECT_FALSE(reread.back().replayed);
        EXPECT_EQ(reread.back().inputIndex, results.back().inputIndex);
        EXPECT_EQ(reread.back().errored, results.back().errored);
        EXPECT_TRUE(reread.back().failures.empty());
        EXPECT_EQ(reread.back().counters.get(event),
                  results.back().counters.get(event));
    }

    // A subnormal double is a cell the 17-digit writer emits (for
    // 1e-310), so a hash-valid row holding one loads as written.
    rewrite_last(7, "9.9999999999999694e-311");
    const auto reread = ResultCache(base, /*resume=*/true)
                            .runOrLoad(runner, suite, InputSize::Test);
    ASSERT_EQ(reread.size(), results.size());
    EXPECT_TRUE(reread.back().replayed);
    EXPECT_EQ(reread.back().seconds, 1e-310);
    cache.invalidate();
}

TEST(ResultCache, EmptyPathDisablesPersistence)
{
    SuiteRunner runner(fastOptions());
    ResultCache cache("");
    const auto results = cache.runOrLoad(
        runner, workloads::cpu2006Suite(), InputSize::Test);
    EXPECT_EQ(results.size(), 29u);
}

TEST(ResultCache, DefaultPathHonorsEnvironment)
{
    ::setenv("SPEC17_CACHE", "/tmp/custom_cache_loc", 1);
    EXPECT_EQ(ResultCache::defaultPath(), "/tmp/custom_cache_loc");
    ::unsetenv("SPEC17_CACHE");
    EXPECT_EQ(ResultCache::defaultPath(), "spec17_results");
}

} // namespace
} // namespace suite
} // namespace spec17
