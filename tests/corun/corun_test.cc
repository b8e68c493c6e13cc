/**
 * @file
 * Co-run interference engine: planner enumeration and mask legality,
 * runner determinism (byte-identical journals at any --jobs count, and
 * rows byte-identical with or without a trace arena store), journal
 * resume and damage recovery, row serialization, and the
 * analysis artifacts (slowdown matrix, sensitivity/aggressiveness
 * scores, Pareto table).
 */

#include "corun/analysis.hh"
#include "corun/plan.hh"
#include "corun/runner.hh"
#include "corun/store.hh"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "suite/arena_store.hh"
#include "util/units.hh"

namespace spec17 {
namespace corun {
namespace {

using workloads::InputSize;

/** Two short rate apps keep a full campaign under a second. */
CorunOptions
fastOptions(unsigned jobs = 1)
{
    CorunOptions options;
    options.sampleOps = 20000;
    options.warmupOps = 5000;
    options.chunkOps = 2000;
    options.size = InputSize::Test;
    options.jobs = jobs;
    return options;
}

PlanOptions
fastPlan()
{
    PlanOptions plan;
    plan.apps = {"505.mcf_r", "541.leela_r"};
    return plan;
}

std::string
tempBase(const char *tag)
{
    return std::string(::testing::TempDir()) + "/spec17_corun_" + tag;
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
groupNames(const std::vector<CorunGroup> &groups)
{
    std::vector<std::string> names;
    for (const CorunGroup &group : groups)
        names.push_back(group.name());
    return names;
}

TEST(CorunPlan, PairEnumerationIsCanonical)
{
    PlanOptions plan;
    plan.apps = {"505.mcf_r", "519.lbm_r", "541.leela_r"};
    const auto groups = planGroups(workloads::cpu2017Suite(), plan);
    EXPECT_EQ(groupNames(groups),
              (std::vector<std::string>{
                  "505.mcf_r+505.mcf_r", "505.mcf_r+519.lbm_r",
                  "505.mcf_r+541.leela_r", "519.lbm_r+519.lbm_r",
                  "519.lbm_r+541.leela_r", "541.leela_r+541.leela_r"}));

    plan.includeSelf = false;
    const auto strict = planGroups(workloads::cpu2017Suite(), plan);
    EXPECT_EQ(groupNames(strict),
              (std::vector<std::string>{
                  "505.mcf_r+519.lbm_r", "505.mcf_r+541.leela_r",
                  "519.lbm_r+541.leela_r"}));
}

TEST(CorunPlan, QuartetsAreStrictCombinations)
{
    PlanOptions plan;
    plan.apps = {"505.mcf_r", "519.lbm_r", "541.leela_r",
                 "548.exchange2_r", "557.xz_r"};
    plan.groupSize = 4;
    const auto groups = planGroups(workloads::cpu2017Suite(), plan);
    EXPECT_EQ(groups.size(), 5u); // C(5, 4)
    EXPECT_EQ(groups.front().name(),
              "505.mcf_r+519.lbm_r+541.leela_r+548.exchange2_r");
    for (const CorunGroup &group : groups)
        EXPECT_TRUE(group.masks.empty());
}

TEST(CorunPlan, PartitionSweepExpandsEachPair)
{
    PlanOptions plan = fastPlan();
    plan.includeSelf = false;
    plan.partitionSweep = true;
    plan.l3Ways = 4;
    const auto groups = planGroups(workloads::cpu2017Suite(), plan);
    // The unpartitioned pair plus every contiguous k | 4-k split.
    EXPECT_EQ(groupNames(groups),
              (std::vector<std::string>{
                  "505.mcf_r+541.leela_r",
                  "505.mcf_r+541.leela_r@0x1+0xe",
                  "505.mcf_r+541.leela_r@0x3+0xc",
                  "505.mcf_r+541.leela_r@0x7+0x8"}));
}

TEST(CorunPlan, MaskHelpersAndValidation)
{
    EXPECT_EQ(contiguousMask(0, 4), 0xfu);
    EXPECT_EQ(contiguousMask(4, 16), 0xffff0u);
    EXPECT_EQ(maskSetLabel({0xf, 0xffff0}), "0xf+0xffff0");

    EXPECT_EQ(validateMasks({0xf, 0xffff0}, 20), "");
    EXPECT_NE(validateMasks({0xf, 0x0}, 20).find("empty"),
              std::string::npos);
    EXPECT_NE(validateMasks({0xf, 0x100000}, 20).find("beyond"),
              std::string::npos);
}

TEST(CorunPlan, GroupSetDigestTracksEnumeration)
{
    const auto groups = planGroups(workloads::cpu2017Suite(), fastPlan());
    const std::string digest = groupSetDigest(groups);
    EXPECT_EQ(digest.size(), 16u);
    EXPECT_EQ(groupSetDigest(groups), digest);

    auto fewer = groups;
    fewer.pop_back();
    EXPECT_NE(groupSetDigest(fewer), digest);
}

TEST(CorunRunner, ConfigKeyExcludesJobsButKeepsChunk)
{
    EXPECT_EQ(CorunRunner(fastOptions(1)).configKey(),
              CorunRunner(fastOptions(8)).configKey());

    CorunOptions other = fastOptions();
    other.chunkOps = 4000;
    // The interleave granularity shapes contention -- changing it
    // must invalidate journals.
    EXPECT_NE(CorunRunner(other).configKey(),
              CorunRunner(fastOptions()).configKey());
}

void
expectResultsIdentical(const std::vector<CorunResult> &a,
                       const std::vector<CorunResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        ASSERT_EQ(a[i].members.size(), b[i].members.size());
        for (std::size_t m = 0; m < a[i].members.size(); ++m) {
            const MemberResult &x = a[i].members[m];
            const MemberResult &y = b[i].members[m];
            EXPECT_EQ(x.name, y.name) << a[i].name;
            EXPECT_DOUBLE_EQ(x.cycles, y.cycles) << a[i].name;
            EXPECT_DOUBLE_EQ(x.soloCycles, y.soloCycles) << a[i].name;
            EXPECT_EQ(x.instructions, y.instructions) << a[i].name;
            EXPECT_EQ(x.l3Misses, y.l3Misses) << a[i].name;
            EXPECT_EQ(x.evictionsSuffered, y.evictionsSuffered)
                << a[i].name;
        }
    }
}

TEST(CorunRunner, SweepIsByteIdenticalAcrossJobCounts)
{
    const auto groups =
        planGroups(workloads::cpu2017Suite(), fastPlan());

    CorunRunner sequential(fastOptions(1));
    CorunRunner parallel(fastOptions(8));
    const auto golden = CorunStore("").runOrLoad(sequential, groups);
    std::vector<std::size_t> seen;
    const auto pooled = CorunStore("").runOrLoad(
        parallel, groups,
        [&](const CorunResult &, std::size_t index, std::size_t) {
            seen.push_back(index);
        });
    expectResultsIdentical(golden, pooled);
    // The ordered-commit drain delivers observer calls canonically
    // even at jobs=8.
    ASSERT_EQ(seen.size(), groups.size());
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i);

    // And the journal bytes match record for record.
    const std::string seq_base = tempBase("jobs_seq");
    CorunStore seq_store(seq_base);
    seq_store.invalidate();
    seq_store.runOrLoad(sequential, groups);

    const std::string par_base = tempBase("jobs_par");
    CorunStore par_store(par_base);
    par_store.invalidate();
    par_store.runOrLoad(parallel, groups);

    const std::string seq_bytes =
        fileBytes(seq_store.journalFile(sequential));
    ASSERT_FALSE(seq_bytes.empty());
    EXPECT_EQ(fileBytes(par_store.journalFile(parallel)), seq_bytes);
    seq_store.invalidate();
    par_store.invalidate();
}

TEST(CorunRunner, ArenaStoreLeavesRowsByteIdentical)
{
    // bench/e2e's corun_quartets apps: 15 quartets, 6 distinct apps.
    PlanOptions plan;
    plan.apps = {"505.mcf_r",       "519.lbm_r",  "541.leela_r",
                 "548.exchange2_r", "525.x264_r", "520.omnetpp_r"};
    plan.groupSize = 4;
    const auto groups = planGroups(workloads::cpu2017Suite(), plan);
    ASSERT_EQ(groups.size(), 15u);

    const auto rows = [&](suite::TraceArenaStore *store,
                          unsigned jobs) {
        CorunOptions options = fastOptions(jobs);
        options.arenaStore = store;
        std::vector<std::string> serialized;
        for (const CorunResult &result :
             CorunStore("").runOrLoad(CorunRunner(options), groups))
            serialized.push_back(serializeCorunRow(result));
        return serialized;
    };
    const std::vector<std::string> live = rows(nullptr, 1);

    // Each app is captured once, at context 0; every other context
    // replays that arena shifted to its own address space.
    suite::TraceArenaStore store(512 * kMiB);
    EXPECT_EQ(rows(&store, 1), live);
    EXPECT_EQ(store.stats().captures, 6u);
    EXPECT_EQ(store.stats().entries, 6u);

    suite::TraceArenaStore pooled(512 * kMiB);
    EXPECT_EQ(rows(&pooled, 2), live);

    // A 1-byte budget retains nothing, so every read recaptures.
    suite::TraceArenaStore uncached(1);
    EXPECT_EQ(rows(&uncached, 1), live);
}

TEST(CorunRunner, MembersNeverBeatTheirSoloBaseline)
{
    const auto groups =
        planGroups(workloads::cpu2017Suite(), fastPlan());
    const auto results =
        CorunStore("").runOrLoad(CorunRunner(fastOptions()), groups);
    for (const CorunResult &result : results) {
        for (const MemberResult &member : result.members) {
            // Contention only adds latency: co-run cycles cannot
            // drop below the solo run of the identical trace.
            EXPECT_GE(member.slowdown(), 0.999)
                << result.name << " " << member.name;
            EXPECT_GT(member.instructions, 0u);
        }
        EXPECT_GT(result.throughput(), 0.0);
        EXPECT_GE(result.worstSlowdown(), 0.999);
    }
}

TEST(CorunStore, RowSerializationRoundTrips)
{
    CorunResult result;
    result.name = "a+b@0x3+0xc";
    result.masks = {0x3, 0xc};
    for (int m = 0; m < 2; ++m) {
        MemberResult member;
        member.name = m == 0 ? "a" : "b";
        member.cycles = 12345.625 + m;
        member.soloCycles = 10000.125;
        member.instructions = 20000 + m;
        member.l3Hits = 17;
        member.l3Misses = 4242;
        member.evictionsInflicted = 7;
        member.evictionsSuffered = 9;
        member.occupancyLines = 1024;
        result.members.push_back(member);
    }

    std::string reason;
    const CorunResult parsed =
        parseCorunRow(serializeCorunRow(result), reason);
    EXPECT_EQ(reason, "");
    EXPECT_EQ(parsed.name, result.name);
    EXPECT_EQ(parsed.masks, result.masks);
    ASSERT_EQ(parsed.members.size(), 2u);
    for (std::size_t m = 0; m < 2; ++m) {
        EXPECT_EQ(parsed.members[m].name, result.members[m].name);
        EXPECT_DOUBLE_EQ(parsed.members[m].cycles,
                         result.members[m].cycles);
        EXPECT_DOUBLE_EQ(parsed.members[m].soloCycles,
                         result.members[m].soloCycles);
        EXPECT_EQ(parsed.members[m].instructions,
                  result.members[m].instructions);
        EXPECT_EQ(parsed.members[m].l3Hits, result.members[m].l3Hits);
        EXPECT_EQ(parsed.members[m].occupancyLines,
                  result.members[m].occupancyLines);
    }

    const CorunResult damaged = parseCorunRow("a+b,-", reason);
    EXPECT_TRUE(damaged.name.empty());
    EXPECT_NE(reason, "");

    // Numbers no writer emits are damage, never a wrapped or widened
    // value: a second `0x`, signs, blanks, uppercase hex digits,
    // values past the field's width, hex floats, non-finite doubles
    // and doubles that overflow.
    const auto row = [](const std::string &masks,
                        const std::string &member) {
        return "a+b@0x1f," + masks + "," + member;
    };
    const std::string member = "a:1.5:1.25:7:0:0:0:0:0";
    for (const std::string &bad :
         {row("0x0x1f", member), row("0x-1", member), row("0x+1f", member),
          row("0x 1f", member), row("0x1F", member),
          row("0x100000000", member),
          row("-", "a:1.5:1.25:-1:0:0:0:0:0"),
          row("-", "a:1.5:1.25: 7:0:0:0:0:0"),
          row("-", "a:1.5:1.25:+7:0:0:0:0:0"),
          row("-", "a:1.5:1.25:18446744073709551616:0:0:0:0:0"),
          row("-", "a: 1.5:1.25:7:0:0:0:0:0"),
          row("-", "a:+1.5:1.25:7:0:0:0:0:0"),
          row("-", "a:0x1p3:1.25:7:0:0:0:0:0"),
          row("-", "a:1.5:inf:7:0:0:0:0:0"),
          row("-", "a:1.5:nan:7:0:0:0:0:0"),
          row("-", "a:1.5:1e309:7:0:0:0:0:0")}) {
        reason.clear();
        EXPECT_TRUE(parseCorunRow(bad, reason).name.empty()) << bad;
        EXPECT_NE(reason, "") << bad;
    }
    reason.clear();
    const CorunResult widest = parseCorunRow(
        row("0xffffffff", "a:1.5:1.25:18446744073709551615:0:0:0:0:0"),
        reason);
    EXPECT_EQ(reason, "");
    EXPECT_EQ(widest.masks, std::vector<std::uint32_t>{0xffffffffu});
    ASSERT_EQ(widest.members.size(), 1u);
    EXPECT_EQ(widest.members[0].instructions, 18446744073709551615u);

    // A subnormal cycle count is what the 17-digit writer emits for
    // 1e-310, and it reads back exactly.
    CorunResult tiny = result;
    tiny.members[0].cycles = 1e-310;
    reason.clear();
    const CorunResult reread = parseCorunRow(serializeCorunRow(tiny), reason);
    EXPECT_EQ(reason, "");
    ASSERT_EQ(reread.members.size(), 2u);
    EXPECT_EQ(reread.members[0].cycles, 1e-310);
}

/** Truncates @p file to its 2 header lines + @p keep_rows records. */
void
truncateJournal(const std::string &file, std::size_t keep_rows)
{
    std::ifstream in(file);
    ASSERT_TRUE(in.good());
    std::string line, kept;
    for (std::size_t i = 0; i < keep_rows + 2; ++i) {
        ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
        kept += line + "\n";
    }
    in.close();
    std::ofstream out(file, std::ios::trunc);
    out << kept;
}

TEST(CorunStore, ResumeReplaysPrefixAndRestoresIdenticalBytes)
{
    const std::string base = tempBase("resume");
    const auto groups =
        planGroups(workloads::cpu2017Suite(), fastPlan());
    CorunRunner runner(fastOptions(4));

    CorunStore store(base);
    store.invalidate();
    const auto golden = store.runOrLoad(runner, groups);
    const std::string file = store.journalFile(runner);
    const std::string golden_bytes = fileBytes(file);
    ASSERT_FALSE(golden_bytes.empty());

    truncateJournal(file, 1);
    CorunStore resumed(base, /*resume=*/true);
    const auto results = resumed.runOrLoad(runner, groups);

    expectResultsIdentical(golden, results);
    ASSERT_EQ(results.size(), groups.size());
    EXPECT_TRUE(results[0].replayed);
    for (std::size_t i = 1; i < results.size(); ++i)
        EXPECT_FALSE(results[i].replayed) << results[i].name;
    EXPECT_EQ(fileBytes(file), golden_bytes);

    // A complete journal replays wholesale on the next load.
    const auto reloaded = resumed.runOrLoad(runner, groups);
    expectResultsIdentical(golden, reloaded);
    for (const CorunResult &result : reloaded)
        EXPECT_TRUE(result.replayed) << result.name;
    resumed.invalidate();
}

/** Offset just past the @p n-th newline of @p text. */
std::size_t
afterNewline(const std::string &text, std::size_t n)
{
    std::size_t at = 0;
    for (std::size_t i = 0; i < n; ++i)
        at = text.find('\n', at) + 1;
    return at;
}

TEST(CorunStore, DamagedJournalResumesToTheCleanBytes)
{
    const std::string base = tempBase("damage");
    const auto groups =
        planGroups(workloads::cpu2017Suite(), fastPlan());
    CorunRunner runner(fastOptions(2));

    CorunStore store(base);
    store.invalidate();
    const auto golden = store.runOrLoad(runner, groups);
    const std::string file = store.journalFile(runner);
    const std::string clean = fileBytes(file);
    ASSERT_EQ(groups.size(), 3u);
    ASSERT_FALSE(clean.empty());

    // Lines 0-1 are the campaign and column headers; records follow.
    std::string flipped = clean;
    flipped[afterNewline(clean, 3) + 10] ^= 0x01;
    const std::vector<std::pair<std::string, std::string>> damage = {
        // A crash mid-append: the last record is cut off mid-line.
        {"torn mid-record tail", clean.substr(0, clean.size() - 30)},
        // Media bit-rot inside the middle record.
        {"mid-file bit flip", flipped},
        // A stray record after a complete journal.
        {"trailing junk", clean + "junk\n"},
    };
    for (const auto &[name, bytes] : damage) {
        SCOPED_TRACE(name);
        {
            std::ofstream out(file, std::ios::trunc | std::ios::binary);
            out << bytes;
        }
        CorunStore resumed(base, /*resume=*/true);
        expectResultsIdentical(golden, resumed.runOrLoad(runner, groups));
        EXPECT_TRUE(suite::scanJournal(file).clean());
        EXPECT_EQ(fileBytes(file), clean);
    }
    store.invalidate();
}

TEST(CorunStore, ResumeRefusesForeignConfig)
{
    const std::string base = tempBase("mismatch");
    const auto groups =
        planGroups(workloads::cpu2017Suite(), fastPlan());
    CorunStore store(base, /*resume=*/true);
    store.invalidate();
    store.runOrLoad(CorunRunner(fastOptions()), groups);

    CorunOptions other = fastOptions();
    other.chunkOps = 4000;
    EXPECT_THROW(store.runOrLoad(CorunRunner(other), groups),
                 suite::JournalConfigMismatchError);
    store.invalidate();
}

/** Synthesizes an unpartitioned pair result from cycle counts. */
CorunResult
makePair(const std::string &a, double cycles_a, double solo_a,
         const std::string &b, double cycles_b, double solo_b,
         std::vector<std::uint32_t> masks = {})
{
    CorunResult result;
    result.name = a + "+" + b;
    if (!masks.empty())
        result.name += "@" + maskSetLabel(masks);
    result.masks = std::move(masks);
    MemberResult first;
    first.name = a;
    first.cycles = cycles_a;
    first.soloCycles = solo_a;
    MemberResult second;
    second.name = b;
    second.cycles = cycles_b;
    second.soloCycles = solo_b;
    result.members = {first, second};
    return result;
}

TEST(CorunAnalysis, MatrixAndScoresFollowTheDefinitions)
{
    const std::vector<CorunResult> results = {
        makePair("a", 150.0, 100.0, "b", 110.0, 100.0),
        makePair("a", 130.0, 100.0, "c", 120.0, 100.0),
        makePair("b", 100.0, 100.0, "b", 105.0, 100.0),
        // Partitioned rows stay out of the matrix.
        makePair("a", 500.0, 100.0, "b", 100.0, 100.0, {0x1, 0xe}),
    };
    const SlowdownMatrix matrix = buildMatrix(results);
    ASSERT_EQ(matrix.apps,
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_DOUBLE_EQ(matrix.slowdown[0][1], 1.5); // a victim of b
    EXPECT_DOUBLE_EQ(matrix.slowdown[1][0], 1.1); // b victim of a
    EXPECT_DOUBLE_EQ(matrix.slowdown[0][2], 1.3);
    EXPECT_DOUBLE_EQ(matrix.slowdown[2][0], 1.2);
    // The self-pair diagonal keeps the worse of the two copies.
    EXPECT_DOUBLE_EQ(matrix.slowdown[1][1], 1.05);
    EXPECT_DOUBLE_EQ(matrix.slowdown[2][2], 0.0); // c+c not run

    const auto scores = scoreApps(matrix);
    ASSERT_EQ(scores.size(), 3u);
    // a suffers (1.5 + 1.3) / 2 and inflicts (1.1 + 1.2) / 2.
    EXPECT_DOUBLE_EQ(scores[0].sensitivity, 1.4);
    EXPECT_DOUBLE_EQ(scores[0].aggressiveness, 1.15);
    // c's only filled row/column entries are the pair with a.
    EXPECT_DOUBLE_EQ(scores[2].sensitivity, 1.2);
    EXPECT_DOUBLE_EQ(scores[2].aggressiveness, 1.3);
}

TEST(CorunAnalysis, ParetoDominanceIsPerPair)
{
    const std::vector<CorunResult> results = {
        // Free-for-all: throughput 100/150 + 100/110 ~ 1.576, worst 1.5.
        makePair("a", 150.0, 100.0, "b", 110.0, 100.0),
        // A fair split: better on both axes -> dominates the above.
        makePair("a", 120.0, 100.0, "b", 105.0, 100.0, {0x3, 0xc}),
        // A starving split: worse on both axes -> dominated.
        makePair("a", 400.0, 100.0, "b", 100.0, 100.0, {0x1, 0xe}),
        // A different pair never competes with a+b.
        makePair("a", 500.0, 100.0, "c", 500.0, 100.0),
    };
    const auto table = paretoTable(results);
    ASSERT_EQ(table.size(), 4u);
    EXPECT_EQ(table[0].pair, "a+b");
    EXPECT_EQ(table[0].partition, "free-for-all");
    EXPECT_TRUE(table[0].dominated);
    EXPECT_EQ(table[1].partition, "0x3+0xc");
    EXPECT_FALSE(table[1].dominated);
    EXPECT_TRUE(table[2].dominated);
    // Terrible numbers, but unchallenged within its own pair.
    EXPECT_EQ(table[3].pair, "a+c");
    EXPECT_FALSE(table[3].dominated);
    EXPECT_DOUBLE_EQ(table[0].worstSlowdown, 1.5);
}

} // namespace
} // namespace corun
} // namespace spec17
