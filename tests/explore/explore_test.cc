/**
 * @file
 * Design-space explorer tests: axis planning and storage-cost models,
 * Pareto dominance/knee marking on synthetic points, and the golden
 * determinism guarantees -- the scored table is identical at any job
 * count and across a mid-sweep resume.
 */

#include "explore/plan.hh"
#include "explore/runner.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "suite/arena_store.hh"
#include "telemetry/progress.hh"
#include "util/units.hh"

namespace spec17 {
namespace explore {
namespace {

using sim::SystemConfig;
using workloads::InputSize;
using workloads::SuiteGeneration;

TEST(Plan, AxisNamesRoundTrip)
{
    const std::vector<std::string> expected = {
        "predictor", "prefetcher", "l2-prefetcher", "way-predictor"};
    EXPECT_EQ(axisNames(), expected);
    for (const std::string &axis : axisNames())
        EXPECT_TRUE(isAxis(axis)) << axis;
    EXPECT_FALSE(isAxis("voltage"));
    EXPECT_FALSE(isAxis(""));
}

TEST(Plan, EachPointChangesExactlyItsOwnKnob)
{
    const SystemConfig base = SystemConfig::haswellXeonE52650Lv3();
    for (const std::string &axis : axisNames()) {
        const auto points = planAxis(axis, base);
        ASSERT_GE(points.size(), 3u) << axis;
        for (const auto &point : points) {
            EXPECT_EQ(point.axis, axis);
            EXPECT_GE(point.costBits, 0.0) << point.label;
        }
        // The axis always contains the baseline setting, and that
        // point's config is byte-for-byte the baseline config.
        bool found_base = false;
        for (const auto &point : points)
            found_base |= point.system.describe() == base.describe();
        EXPECT_TRUE(found_base) << axis;
    }
}

TEST(Plan, PointLabelsAreUniquePerAxis)
{
    const SystemConfig base = SystemConfig::haswellXeonE52650Lv3();
    for (const std::string &axis : axisNames()) {
        const auto points = planAxis(axis, base);
        for (std::size_t i = 0; i < points.size(); ++i)
            for (std::size_t j = i + 1; j < points.size(); ++j)
                EXPECT_NE(points[i].label, points[j].label) << axis;
    }
}

TEST(Plan, StorageCostModels)
{
    const sim::TageConfig tage;
    EXPECT_DOUBLE_EQ(predictorStorageBits("static-taken", tage), 0.0);
    EXPECT_DOUBLE_EQ(predictorStorageBits("bimodal", tage),
                     double(1u << 14) * 2.0);
    EXPECT_DOUBLE_EQ(predictorStorageBits("gshare", tage),
                     double(1u << 14) * 2.0 + 12.0);
    // TAGE default geometry: 4 tables x 2^10 entries x (9-bit tag +
    // 3-bit ctr + 2-bit useful + valid) + 2^12 x 2-bit base + 64-bit
    // history.
    EXPECT_DOUBLE_EQ(predictorStorageBits("tage", tage),
                     4.0 * 1024.0 * 15.0 + 4096.0 * 2.0 + 64.0);

    const sim::StreamConfig stream;
    EXPECT_DOUBLE_EQ(prefetcherStorageBits("none", stream), 0.0);
    EXPECT_DOUBLE_EQ(prefetcherStorageBits("next-line", stream), 58.0);
    // 8 streams x (two 58-bit line addresses + 3-bit LRU pointer +
    // 2-bit dir + 2-bit confidence + valid).
    EXPECT_DOUBLE_EQ(prefetcherStorageBits("stream", stream),
                     8.0 * (116.0 + 3.0 + 5.0));

    sim::CacheConfig l1d{"l1d", 32 * 1024, 8, 64,
                         sim::ReplacementPolicy::Lru, 4};
    // 64 sets: MRU keeps a 3-bit way pointer per set, utag an 8-bit
    // partial tag per way.
    EXPECT_DOUBLE_EQ(
        wayPredictorStorageBits(sim::WayPredictor::None, l1d), 0.0);
    EXPECT_DOUBLE_EQ(
        wayPredictorStorageBits(sim::WayPredictor::Mru, l1d),
        64.0 * 3.0);
    EXPECT_DOUBLE_EQ(
        wayPredictorStorageBits(sim::WayPredictor::Utag, l1d),
        64.0 * 8.0 * 8.0);
}

PointResult
syntheticPoint(const char *label, double sse, double cost)
{
    PointResult result;
    result.point.axis = "synthetic";
    result.point.label = label;
    result.point.costBits = cost;
    result.sse = sse;
    return result;
}

TEST(Plan, CrossProductIsRowMajorWithSummedCosts)
{
    const SystemConfig base = SystemConfig::haswellXeonE52650Lv3();
    const std::vector<std::string> axes = {"way-predictor",
                                           "predictor"};
    const auto way = planAxis("way-predictor", base);
    const auto pred = planAxis("predictor", base);
    const auto cross = planCross(axes, base);
    ASSERT_EQ(cross.size(), way.size() * pred.size());
    for (std::size_t i = 0; i < cross.size(); ++i) {
        const auto &outer = way[i / pred.size()];
        const auto &inner = pred[i % pred.size()];
        EXPECT_EQ(cross[i].axis, "way-predictor+predictor");
        // Row-major in the given axis order, labels joined with ','.
        EXPECT_EQ(cross[i].label, outer.label + "," + inner.label);
        EXPECT_DOUBLE_EQ(cross[i].costBits,
                         outer.costBits + inner.costBits)
            << cross[i].label;
        // Both knobs land on the combined config.
        EXPECT_EQ(cross[i].system.hierarchy.l1d.wayPredictor,
                  outer.system.hierarchy.l1d.wayPredictor);
        EXPECT_EQ(cross[i].system.branchPredictor,
                  inner.system.branchPredictor);
    }
}

TEST(Plan, GeometryAxesGateOnTheirMechanism)
{
    SystemConfig base = SystemConfig::haswellXeonE52650Lv3();
    ASSERT_NE(base.branchPredictor, "tage");
    EXPECT_FALSE(axisPlanError("tage-geometry", base).empty());
    EXPECT_FALSE(axisPlanError("stream-geometry", base).empty());
    // Mechanism axes always plan.
    for (const std::string &axis : axisNames())
        EXPECT_EQ(axisPlanError(axis, base), "") << axis;

    base.branchPredictor = "tage";
    EXPECT_EQ(axisPlanError("tage-geometry", base), "");
    base.hierarchy.l2Prefetcher = "stream";
    EXPECT_EQ(axisPlanError("stream-geometry", base), "");

    // The grids themselves: every point varies only its own geometry.
    const auto tables = planAnyAxis("tage-geometry", base);
    ASSERT_GE(tables.size(), 3u);
    for (const auto &point : tables) {
        EXPECT_EQ(point.system.branchPredictor, "tage");
        EXPECT_GT(point.costBits, 0.0) << point.label;
    }
    const auto streams = planAnyAxis("stream-geometry", base);
    for (const auto &point : streams) {
        EXPECT_LE(point.system.hierarchy.streamDegree,
                  point.system.hierarchy.streamDistance)
            << point.label;
    }
}

TEST(Pareto, MarksDominatedPointsAndTheKnee)
{
    std::vector<PointResult> points = {
        syntheticPoint("cheap", 10.0, 0.0),
        syntheticPoint("balanced", 5.0, 100.0),
        syntheticPoint("wasteful", 7.0, 200.0), // dominated by balanced
        syntheticPoint("accurate", 4.0, 1000.0),
    };
    markPareto(points);
    EXPECT_FALSE(points[0].dominated);
    EXPECT_FALSE(points[1].dominated);
    EXPECT_TRUE(points[2].dominated);
    EXPECT_FALSE(points[3].dominated);
    // Exactly one knee, and never a dominated point.
    int knees = 0;
    for (const auto &point : points) {
        knees += point.knee;
        if (point.knee) {
            EXPECT_FALSE(point.dominated) << point.point.label;
        }
    }
    EXPECT_EQ(knees, 1);
}

TEST(Pareto, EqualPointsDominateNeither)
{
    std::vector<PointResult> points = {
        syntheticPoint("a", 5.0, 100.0),
        syntheticPoint("b", 5.0, 100.0),
    };
    markPareto(points);
    EXPECT_FALSE(points[0].dominated);
    EXPECT_FALSE(points[1].dominated);
}

/** Tiny-sweep options: cpu2006/test keeps the sweep fast. */
ExploreOptions
tinyOptions()
{
    ExploreOptions options;
    options.runner.sampleOps = 2000;
    options.runner.warmupOps = 500;
    options.generation = SuiteGeneration::Cpu2006;
    options.size = InputSize::Test;
    options.cachePath.clear(); // no journals unless a test opts in
    return options;
}

void
expectSameTable(const std::vector<PointResult> &a,
                const std::vector<PointResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].point.label, b[i].point.label);
        // Bit-exact, not approximately equal: the Pareto table is a
        // deterministic artifact.
        EXPECT_EQ(a[i].sse, b[i].sse) << a[i].point.label;
        EXPECT_EQ(a[i].meanIpc, b[i].meanIpc) << a[i].point.label;
        EXPECT_EQ(a[i].pairs, b[i].pairs) << a[i].point.label;
        EXPECT_EQ(a[i].errored, b[i].errored) << a[i].point.label;
        EXPECT_EQ(a[i].dominated, b[i].dominated) << a[i].point.label;
        EXPECT_EQ(a[i].knee, b[i].knee) << a[i].point.label;
    }
}

TEST(ExploreGolden, TableIsIdenticalAtAnyJobCount)
{
    ExploreOptions serial = tinyOptions();
    serial.runner.jobs = 1;
    const auto baseline =
        ExploreRunner(serial).runAxis("way-predictor");
    ASSERT_EQ(baseline.size(), 3u);
    for (const auto &point : baseline)
        EXPECT_GT(point.pairs, 0u) << point.point.label;

    ExploreOptions parallel_opts = tinyOptions();
    parallel_opts.runner.jobs = 8;
    expectSameTable(baseline,
                    ExploreRunner(parallel_opts).runAxis("way-predictor"));
}

TEST(ExploreGolden, TableIsIdenticalAcrossMidSweepResume)
{
    const std::string base =
        std::string(::testing::TempDir()) + "/explore_resume";

    ExploreOptions plain = tinyOptions();
    const auto baseline = ExploreRunner(plain).runAxis("way-predictor");

    // Full journaled sweep, then forget one point's journal: the
    // resumed run replays two points from disk and re-runs the third.
    ExploreOptions journaled = tinyOptions();
    journaled.cachePath = base;
    journaled.runner.jobs = 4;
    ExploreRunner first(journaled);
    expectSameTable(baseline, first.runAxis("way-predictor"));

    const auto points =
        planAxis("way-predictor", journaled.runner.system);
    std::vector<std::string> journals;
    for (const auto &point : points)
        journals.push_back(first.pointCachePath(point)
                           + ".cpu2006.test.csv");
    ASSERT_EQ(std::remove(journals[1].c_str()), 0)
        << "expected a journal at " << journals[1];

    ExploreOptions resumed = tinyOptions();
    resumed.cachePath = base;
    resumed.resume = true;
    resumed.runner.jobs = 2;
    expectSameTable(baseline,
                    ExploreRunner(resumed).runAxis("way-predictor"));

    for (const std::string &journal : journals)
        std::remove(journal.c_str());
}

TEST(ExploreGolden, CrossTableIdenticalAcrossFanoutAndJobs)
{
    // Two plans: in way-predictor x l2-prefetcher every point has its
    // own hierarchy; in predictor x way-predictor, 12 of the 15 points
    // differ from a way-predictor leader only in the branch predictor,
    // so the fan-out engine runs them as lane-importing siblings.
    const std::vector<std::pair<std::vector<std::string>, std::size_t>>
        plans = {
            {{"way-predictor", "l2-prefetcher"}, 12u},
            {{"predictor", "way-predictor"}, 15u},
        };
    const std::size_t pairs = workloads::enumeratePairs(
                                  workloads::cpu2006Suite(), InputSize::Test)
                                  .size();
    for (const auto &[axes, points] : plans) {
        SCOPED_TRACE(::testing::Message()
                     << axes.front() << "," << axes.back());
        // Reference: per-point sessions (no arena store), jobs 1.
        ExploreOptions per_point = tinyOptions();
        const auto baseline = ExploreRunner(per_point).runCross(axes);
        ASSERT_EQ(baseline.size(), points);

        // The shared-arena fan-out engine must score the bit-identical
        // table, at any job count: one capture per pair feeding every
        // point is an execution strategy, never semantics.
        for (const unsigned jobs : {1u, 8u}) {
            SCOPED_TRACE(::testing::Message() << "jobs=" << jobs);
            suite::TraceArenaStore store(512 * kMiB);
            ExploreOptions fanout = tinyOptions();
            fanout.runner.jobs = jobs;
            fanout.runner.arenaStore = &store;
            expectSameTable(baseline,
                            ExploreRunner(fanout).runCross(axes));
            // The engine captured each pair's trace once; the points
            // replayed it rather than re-acquiring through the store,
            // and the pair's row released it once they had run.
            EXPECT_EQ(store.stats().captures, pairs);
            EXPECT_EQ(store.stats().entries, 0u);
        }
    }
}

TEST(ExploreGolden, DescentFoldsEachStagesKneeIntoTheBase)
{
    ExploreOptions options = tinyOptions();
    suite::TraceArenaStore store(512 * kMiB);
    options.runner.arenaStore = &store;
    const auto steps = ExploreRunner(options).runDescent(
        {"way-predictor", "l2-prefetcher"});
    ASSERT_EQ(steps.size(), 2u);
    // Each stage captured every pair's trace once and released it with
    // the pair's row, so stage 2 recaptured what stage 1 had read.
    EXPECT_EQ(store.stats().captures,
              2 * workloads::enumeratePairs(workloads::cpu2006Suite(),
                                            InputSize::Test)
                      .size());
    EXPECT_EQ(store.stats().entries, 0u);
    EXPECT_EQ(steps[0].axis, "way-predictor");
    EXPECT_EQ(steps[1].axis, "l2-prefetcher");
    for (const auto &step : steps) {
        ASSERT_LT(step.chosen, step.points.size());
        EXPECT_TRUE(step.points[step.chosen].knee);
    }
    // Stage 2 swept from stage 1's winner: every stage-2 point
    // carries the folded way-predictor pick.
    const auto picked = steps[0]
                            .points[steps[0].chosen]
                            .point.system.hierarchy.l1d.wayPredictor;
    for (const auto &point : steps[1].points) {
        EXPECT_EQ(point.point.system.hierarchy.l1d.wayPredictor,
                  picked)
            << point.point.label;
    }

    // A geometry axis whose mechanism the base disables is skipped,
    // not swept: the descent yields no stage for it.
    const auto skipped =
        ExploreRunner(options).runDescent({"tage-geometry"});
    EXPECT_TRUE(skipped.empty());
}

TEST(ExploreGolden, IneligibleSessionsFallBackToRunPair)
{
    // Sampled cells run in their row's lockstep, each leading its own
    // clone group (its registry reads the cache hierarchy a lane
    // importer lacks), and must score the bit-identical table. Every
    // row has a cell per point, so each pair's trace is captured
    // exactly once, for the row, and every cell replays it.
    const auto baseline =
        ExploreRunner(tinyOptions()).runAxis("way-predictor");
    const std::size_t pairs = workloads::enumeratePairs(
                                  workloads::cpu2006Suite(), InputSize::Test)
                                  .size();
    for (const unsigned jobs : {1u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "jobs=" << jobs);
        suite::TraceArenaStore store(512 * kMiB);
        ExploreOptions sampled = tinyOptions();
        sampled.runner.jobs = jobs;
        sampled.runner.arenaStore = &store;
        sampled.runner.sampleIntervalOps = 1000;
        expectSameTable(baseline,
                        ExploreRunner(sampled).runAxis("way-predictor"));
        EXPECT_EQ(store.stats().captures, pairs);
    }
}

TEST(ExploreGolden, ObservedSessionsShareTheirRow)
{
    // Sampled, deadline-armed and reference-lane sessions step their
    // cells in the row's lockstep and replay the row's arena directly,
    // never looking it up in the store. Each must score the store-less
    // per-point table bit-identically, in the cross where unobserved
    // points import a leader's lanes.
    const std::vector<std::string> axes = {"predictor", "way-predictor"};
    const auto baseline = ExploreRunner(tinyOptions()).runCross(axes);
    ASSERT_EQ(baseline.size(), 15u);
    const std::size_t pairs = workloads::enumeratePairs(
                                  workloads::cpu2006Suite(), InputSize::Test)
                                  .size();
    using Observe = void (*)(suite::RunnerOptions &);
    const std::vector<std::pair<const char *, Observe>> observers = {
        {"sampled",
         [](suite::RunnerOptions &o) { o.sampleIntervalOps = 1000; }},
        {"deadline",
         [](suite::RunnerOptions &o) { o.pairDeadlineOps = 1'000'000; }},
        {"unbatched",
         [](suite::RunnerOptions &o) { o.unbatchedStepping = true; }},
    };
    for (const auto &[label, observe] : observers) {
        for (const unsigned jobs : {1u, 8u}) {
            SCOPED_TRACE(::testing::Message()
                         << label << " jobs=" << jobs);
            suite::TraceArenaStore store(512 * kMiB);
            ExploreOptions observed = tinyOptions();
            observed.runner.jobs = jobs;
            observed.runner.arenaStore = &store;
            observe(observed.runner);
            expectSameTable(baseline,
                            ExploreRunner(observed).runCross(axes));
            EXPECT_EQ(store.stats().captures, pairs);
            EXPECT_EQ(store.stats().entries, 0u);
            EXPECT_EQ(store.stats().hits, 0u);
        }
    }
}

/** `done=` fields of every progress event in @p text, in order. */
std::vector<std::string>
progressCounts(const std::string &text)
{
    std::vector<std::string> counts;
    for (std::size_t at = text.find("done="); at != std::string::npos;
         at = text.find("done=", at + 1))
        counts.push_back(text.substr(at, text.find(' ', at) - at));
    return counts;
}

TEST(ExploreProgress, ReportsAgainstTheWholeCampaign)
{
    // One reporter sees every point's pairs: the count runs to 3N of
    // 3N, and the final event fires once, at the true end.
    const std::size_t n = workloads::enumeratePairs(
                              workloads::cpu2006Suite(), InputSize::Test)
                              .size();
    const std::string last = "done=" + std::to_string(3 * n) + "/"
        + std::to_string(3 * n);
    for (const bool arena : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "arena=" << arena);
        std::ostringstream stream;
        telemetry::ProgressReporter::Options progress_options;
        progress_options.minIntervalMs = 0;
        progress_options.stream = &stream;
        telemetry::ProgressReporter progress(progress_options);
        suite::TraceArenaStore store(512 * kMiB);
        ExploreOptions options = tinyOptions();
        options.runner.arenaStore = arena ? &store : nullptr;
        options.pairObserver = [&progress](const suite::PairResult &r,
                                           std::size_t index,
                                           std::size_t total) {
            progress.onItemDone(r.name, index, total, 0, r.attempts,
                                r.errored, r.replayed);
        };
        ASSERT_EQ(ExploreRunner(options).runAxis("way-predictor").size(),
                  3u);
        const auto counts = progressCounts(stream.str());
        ASSERT_EQ(counts.size(), 3 * n);
        EXPECT_EQ(counts.back(), last);
        EXPECT_EQ(std::count(counts.begin(), counts.end(), last), 1);
    }
}

TEST(ExploreProgress, EachDescentStageReportsItsOwnTotal)
{
    const std::size_t n = workloads::enumeratePairs(
                              workloads::cpu2006Suite(), InputSize::Test)
                              .size();
    std::ostringstream stream;
    telemetry::ProgressReporter::Options progress_options;
    progress_options.minIntervalMs = 0;
    progress_options.stream = &stream;
    telemetry::ProgressReporter progress(progress_options);
    ExploreOptions options = tinyOptions();
    options.pairObserver = [&progress](const suite::PairResult &r,
                                       std::size_t index,
                                       std::size_t total) {
        progress.onItemDone(r.name, index, total, 0, r.attempts,
                            r.errored, r.replayed);
    };
    const auto steps = ExploreRunner(options).runDescent(
        {"way-predictor", "l2-prefetcher"});
    ASSERT_EQ(steps.size(), 2u);

    // Each stage counts from 1 to its own M*N and closes exactly once.
    std::vector<std::string> expected;
    for (const auto &step : steps) {
        const std::size_t total = step.points.size() * n;
        for (std::size_t k = 1; k <= total; ++k)
            expected.push_back("done=" + std::to_string(k) + "/"
                               + std::to_string(total));
    }
    EXPECT_EQ(progressCounts(stream.str()), expected);
}

} // namespace
} // namespace explore
} // namespace spec17
