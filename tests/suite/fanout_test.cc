/**
 * @file
 * The sweep engine's rows (suite/fanout.hh): a row steps its clone
 * groups one after another, each in its own runLockstep() call, and
 * each worker hands its dead group leader to the next group's leader.
 * Whatever mix of groups a row holds, every session must equal its own
 * store-less single-session sweep, journal bytes included.
 */

#include "suite/fanout.hh"

#include <gtest/gtest.h>

#include <deque>
#include <fstream>
#include <sstream>

#include "suite/arena_store.hh"
#include "util/units.hh"

namespace spec17 {
namespace suite {
namespace {

using workloads::InputSize;

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(FanoutSweep, RowsOfMixedCloneGroupsMatchTheirSingleSessionSweeps)
{
    // Five sessions, in this order, give every row three clone groups,
    // with a one-cell reference-lane group between a leader and its
    // lane-importing sibling:
    //  - A, batched, leads {A, A'};
    //  - B, A's system on the unbatched reference lane, leads {B};
    //  - A', A with another branch predictor, imports A's lanes;
    //  - C, another L1D way predictor, leads {C, C'};
    //  - C', C with another branch predictor, imports C's lanes.
    // A's leader is B's donor and B's is C's, so within one row a donor
    // passes between differently configured leaders.
    const auto &suite = workloads::cpu2006Suite();
    RunnerOptions a;
    a.sampleOps = 30000;
    a.warmupOps = 8000;
    RunnerOptions b = a;
    b.unbatchedStepping = true;
    RunnerOptions a2 = a;
    a2.system.branchPredictor = "gshare";
    RunnerOptions c = a;
    c.system.hierarchy.l1d.wayPredictor = sim::WayPredictor::Mru;
    RunnerOptions c2 = c;
    c2.system.branchPredictor = "gshare";
    const std::vector<RunnerOptions> points = {a, b, a2, c, c2};

    const std::string base =
        std::string(::testing::TempDir()) + "/spec17_fanout_mixed";
    const auto journal = [&base](const char *tag, std::size_t s) {
        return base + "_" + tag + std::to_string(s);
    };
    std::vector<std::vector<PairResult>> alone;
    std::vector<std::string> alone_bytes;
    for (std::size_t s = 0; s < points.size(); ++s) {
        ResultCache cache(journal("alone", s));
        cache.invalidate();
        alone.push_back(cache.runOrLoad(SuiteRunner(points[s]), suite,
                                        InputSize::Test));
        alone_bytes.push_back(
            fileBytes(cache.journalFile(suite, InputSize::Test)));
        ASSERT_FALSE(alone_bytes.back().empty());
        cache.invalidate();
    }

    for (const unsigned jobs : {1u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "jobs=" << jobs);
        TraceArenaStore store(512 * kMiB);
        std::deque<SuiteRunner> runners;
        std::deque<ResultCache> caches;
        std::vector<FanoutSession> sessions;
        for (std::size_t s = 0; s < points.size(); ++s) {
            RunnerOptions options = points[s];
            options.arenaStore = &store;
            options.jobs = jobs;
            runners.emplace_back(options);
            caches.emplace_back(journal("row", s));
            caches.back().invalidate();
            sessions.push_back({runners.back(), caches.back(), {}});
        }
        const auto results =
            runFanoutSweep(sessions, suite, InputSize::Test);
        ASSERT_EQ(results.size(), points.size());
        for (std::size_t s = 0; s < points.size(); ++s) {
            SCOPED_TRACE(::testing::Message() << "session " << s);
            ASSERT_EQ(results[s].size(), alone[s].size());
            for (std::size_t i = 0; i < alone[s].size(); ++i) {
                const PairResult &got = results[s][i];
                const PairResult &want = alone[s][i];
                SCOPED_TRACE(want.name);
                EXPECT_EQ(got.name, want.name);
                EXPECT_FALSE(got.errored);
                EXPECT_EQ(got.errored, want.errored);
                EXPECT_EQ(got.attempts, want.attempts);
                EXPECT_EQ(got.wallCycles, want.wallCycles);
                EXPECT_EQ(got.seconds, want.seconds);
                for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
                    const auto event = static_cast<counters::PerfEvent>(e);
                    EXPECT_EQ(got.counters.get(event),
                              want.counters.get(event))
                        << perfEventName(event);
                }
            }
            EXPECT_EQ(fileBytes(caches[s].journalFile(suite,
                                                      InputSize::Test)),
                      alone_bytes[s]);
            caches[s].invalidate();
        }

        // Each row captured its trace once, no cell read the store
        // again, and every row released its arena when it ended.
        const TraceArenaStore::Stats stats = store.stats();
        EXPECT_EQ(stats.captures, alone[0].size());
        EXPECT_EQ(stats.hits, 0u);
        EXPECT_EQ(stats.entries, 0u);
    }
}

} // namespace
} // namespace suite
} // namespace spec17
