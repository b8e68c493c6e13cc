#include "core/redundancy.hh"

#include <gtest/gtest.h>

#include "core/subset.hh"
#include "suite/result_cache.hh"

namespace spec17 {
namespace core {
namespace {

using workloads::InputSize;

suite::RunnerOptions
fastOptions()
{
    suite::RunnerOptions options;
    options.sampleOps = 120000;
    options.warmupOps = 40000;
    return options;
}

/** One shared sweep over the CPU2017 ref pairs (expensive-ish). */
const std::vector<suite::PairResult> &
refResults()
{
    static const std::vector<suite::PairResult> results =
        suite::ResultCache("").runOrLoad(suite::SuiteRunner(fastOptions()),
                                         workloads::cpu2017Suite(),
                                         InputSize::Ref);
    return results;
}

TEST(PcaFeatures, TwentyNamedCharacteristics)
{
    const auto &names = pcaFeatureNames();
    ASSERT_EQ(names.size(), kNumPcaFeatures);
    EXPECT_EQ(names.front(), "inst_retired.any");
    EXPECT_EQ(names.back(), "vsz");
    const auto vec = pcaFeatureVector(refResults().front());
    EXPECT_EQ(vec.size(), kNumPcaFeatures);
}

TEST(PcaFeatures, PercentagesAreConsistent)
{
    for (const auto &result : refResults()) {
        if (result.errored)
            continue;
        const auto v = pcaFeatureVector(result);
        // total_mem% == load% + store%.
        EXPECT_NEAR(v[5], v[3] + v[4], 1e-9) << result.name;
        // Branch-kind percentages sum to ~100.
        EXPECT_NEAR(v[13] + v[14] + v[15] + v[16] + v[17], 100.0, 1e-6)
            << result.name;
        // Absolute counts are extrapolated to paper scale (hundreds
        // of billions of instructions and up).
        EXPECT_GT(v[0], 1e11) << result.name;
    }
}

TEST(PcaFeatures, MatrixSkipsErroredPairs)
{
    std::vector<std::size_t> kept;
    const auto m = pcaFeatureMatrix(refResults(), kept);
    EXPECT_EQ(m.rows(), 63u); // 64 ref pairs - cam4_s
    EXPECT_EQ(m.cols(), kNumPcaFeatures);
    for (std::size_t index : kept)
        EXPECT_FALSE(refResults()[index].errored);
}

TEST(Redundancy, KeepsEnoughComponentsForVarianceTarget)
{
    const RedundancyAnalysis analysis = analyzeRedundancy(refResults());
    EXPECT_GE(analysis.numComponents, 2u);
    EXPECT_LE(analysis.numComponents, kNumPcaFeatures);
    EXPECT_GE(
        analysis.pca.cumulativeVariance[analysis.numComponents - 1],
        0.76);
    EXPECT_EQ(analysis.pcScores.rows(), 63u);
    EXPECT_EQ(analysis.pcScores.cols(), analysis.numComponents);
    EXPECT_EQ(analysis.pairNames.size(), 63u);
    EXPECT_EQ(analysis.factors.size(), analysis.numComponents);
}

TEST(Redundancy, SameInputsOfOneAppSitCloseInPcSpace)
{
    // The paper's Table IX check: 603.bwaves_s-in1/-in2 cluster
    // together and far from 607.cactuBSSN_s.
    const RedundancyAnalysis analysis = analyzeRedundancy(refResults());
    auto row_of = [&](const std::string &name) {
        for (std::size_t i = 0; i < analysis.pairNames.size(); ++i) {
            if (analysis.pairNames[i] == name)
                return i;
        }
        ADD_FAILURE() << name << " not analyzed";
        return std::size_t(0);
    };
    const std::size_t in1 = row_of("603.bwaves_s-in1");
    const std::size_t in2 = row_of("603.bwaves_s-in2");
    const std::size_t cactu = row_of("607.cactuBSSN_s");
    const double twin_dist =
        cluster::euclidean(analysis.pcScores, in1, in2);
    const double cross_dist =
        cluster::euclidean(analysis.pcScores, in1, cactu);
    EXPECT_LT(twin_dist * 3.0, cross_dist);
}

TEST(Redundancy, DendrogramCoversAllPairs)
{
    const RedundancyAnalysis analysis = analyzeRedundancy(refResults());
    EXPECT_EQ(analysis.dendrogram.numLeaves(),
              analysis.pairNames.size());
    const auto labels = analysis.dendrogram.cut(10);
    EXPECT_EQ(labels.size(), analysis.pairNames.size());
}

TEST(Subset, ShortestMemberRepresentsEachCluster)
{
    const RedundancyAnalysis analysis = analyzeRedundancy(refResults());
    const SubsetSuggestion subset = suggestSubset(analysis, 12);
    EXPECT_EQ(subset.numClusters(), 12u);
    // Every representative is no slower than the members it covers.
    for (const auto &rep : subset.representatives) {
        auto seconds_of = [&](const std::string &name) {
            for (std::size_t i = 0; i < analysis.pairNames.size(); ++i)
                if (analysis.pairNames[i] == name)
                    return analysis.pairSeconds[i];
            return -1.0;
        };
        for (const auto &covered : rep.covers)
            EXPECT_LE(rep.seconds, seconds_of(covered)) << rep.name;
    }
    // Subset time = sum of representative times, < full time.
    double sum = 0.0;
    for (const auto &rep : subset.representatives)
        sum += rep.seconds;
    EXPECT_DOUBLE_EQ(sum, subset.subsetSeconds);
    EXPECT_LT(subset.subsetSeconds, subset.fullSeconds);
    EXPECT_GT(subset.savingPct(), 0.0);
    EXPECT_LT(subset.savingPct(), 100.0);
}

TEST(Subset, ParetoKneeGivesNontrivialClusterCount)
{
    const RedundancyAnalysis analysis = analyzeRedundancy(refResults());
    const SubsetSuggestion subset = suggestSubset(analysis);
    EXPECT_GT(subset.numClusters(), 1u);
    EXPECT_LT(subset.numClusters(), analysis.pairNames.size());
    // The paper saves 57-62% at its knees; ours should be the same
    // order of magnitude.
    EXPECT_GT(subset.savingPct(), 25.0);
}

TEST(Subset, SweepCoversEveryClusterCount)
{
    const RedundancyAnalysis analysis = analyzeRedundancy(refResults());
    const SubsetSuggestion subset = suggestSubset(analysis);
    EXPECT_EQ(subset.sweep.size(), analysis.pairNames.size());
    // SSE decreases (non-strictly) with more clusters.
    for (std::size_t i = 1; i < subset.sweep.size(); ++i)
        EXPECT_LE(subset.sweep[i].sse, subset.sweep[i - 1].sse + 1e-9);
}

TEST(SubsetDeathTest, ForcedCountMustBeInRange)
{
    const RedundancyAnalysis analysis = analyzeRedundancy(refResults());
    EXPECT_DEATH(suggestSubset(analysis, 1000), "exceeds pair count");
}

} // namespace
} // namespace core
} // namespace spec17
