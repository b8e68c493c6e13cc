#include "core/phase.hh"

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "trace/phased.hh"
#include "trace/synthetic.hh"
#include "workloads/builder.hh"

namespace spec17 {
namespace core {
namespace {

/** A compute-bound synthetic segment. */
std::shared_ptr<trace::TraceSource>
computePhase(std::uint64_t ops, std::uint64_t seed)
{
    trace::SyntheticTraceParams params;
    params.numOps = ops;
    params.seed = seed;
    params.loadFrac = 0.10;
    params.storeFrac = 0.05;
    params.branchFrac = 0.10;
    // Fully predictable branches: phase signatures must reflect the
    // planted structure, not predictor warmup drift.
    params.hardBranchFrac = 0.0;
    params.easyTakenBias = 0.9995;
    params.indirectSwitchProb = 0.0;
    params.numBranchSites = 64;            // warms within one interval
    params.codeFootprintBytes = 16 * 1024; // no cold-code warmup
    params.regions = {
        {trace::AccessPattern::Random, 16 * 1024, 64, 1.0, 1.0},
    };
    return std::make_shared<trace::SyntheticTraceGenerator>(params);
}

/** A memory-thrashing synthetic segment. */
std::shared_ptr<trace::TraceSource>
memoryPhase(std::uint64_t ops, std::uint64_t seed)
{
    trace::SyntheticTraceParams params;
    params.numOps = ops;
    params.seed = seed;
    params.loadFrac = 0.45;
    params.storeFrac = 0.05;
    params.branchFrac = 0.10;
    params.hardBranchFrac = 0.0;
    params.easyTakenBias = 0.9995;
    params.indirectSwitchProb = 0.0;
    params.numBranchSites = 64;            // warms within one interval
    params.codeFootprintBytes = 16 * 1024; // no cold-code warmup
    params.regions = {
        {trace::AccessPattern::Random, 64 * 1024 * 1024, 64, 1.0, 1.0},
    };
    return std::make_shared<trace::SyntheticTraceGenerator>(params);
}

sim::SystemConfig
machine()
{
    return sim::SystemConfig::haswellXeonE52650Lv3();
}

TEST(PhaseAnalysis, RecoversPlantedTwoPhaseStructure)
{
    trace::PhasedTrace program({
        computePhase(450000, 1), // +50k consumed as warmup
        memoryPhase(400000, 2),
    });
    PhaseOptions options;
    options.intervalOps = 50000;
    options.warmupOps = 50000;
    const PhaseAnalysis analysis =
        analyzePhases(program, machine(), options);

    ASSERT_EQ(analysis.intervals.size(), 16u);
    EXPECT_EQ(analysis.phases.size(), 2u);
    // The first 8 intervals are one phase, the last 8 the other.
    const std::size_t first_label = analysis.labels[0];
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(analysis.labels[i], first_label) << i;
    for (int i = 8; i < 16; ++i)
        EXPECT_NE(analysis.labels[i], first_label) << i;
    // Weights are about half and half.
    for (const Phase &phase : analysis.phases)
        EXPECT_NEAR(phase.weight, 0.5, 0.01);
}

TEST(PhaseAnalysis, PhaseIpcsReflectBehaviour)
{
    trace::PhasedTrace program({
        computePhase(350000, 3), // +50k consumed as warmup
        memoryPhase(300000, 4),
    });
    PhaseOptions options;
    options.intervalOps = 50000;
    options.warmupOps = 50000;
    const PhaseAnalysis analysis =
        analyzePhases(program, machine(), options);
    ASSERT_EQ(analysis.phases.size(), 2u);
    const double fast = std::max(analysis.phases[0].meanIpc,
                                 analysis.phases[1].meanIpc);
    const double slow = std::min(analysis.phases[0].meanIpc,
                                 analysis.phases[1].meanIpc);
    EXPECT_GT(fast, 2.0 * slow);
}

TEST(PhaseAnalysis, UniformWorkloadIsOnePhase)
{
    auto uniform = computePhase(450000, 5);
    PhaseOptions options;
    options.intervalOps = 50000;
    options.warmupOps = 50000;
    const PhaseAnalysis analysis =
        analyzePhases(*uniform, machine(), options);
    EXPECT_EQ(analysis.phases.size(), 1u);
    EXPECT_NEAR(analysis.phases[0].weight, 1.0, 1e-12);
}

TEST(PhaseAnalysis, SampledIpcApproximatesFullRun)
{
    trace::PhasedTrace program({
        computePhase(350000, 6), // +50k consumed as warmup
        memoryPhase(200000, 7),
        computePhase(100000, 8),
    });
    PhaseOptions options;
    options.intervalOps = 50000;
    options.warmupOps = 50000;
    const PhaseAnalysis analysis =
        analyzePhases(program, machine(), options);
    // Simulating only the representatives must estimate whole-run
    // IPC within 15% -- the entire point of simulation points.
    EXPECT_NEAR(analysis.sampledIpcEstimate(), analysis.fullIpc(),
                analysis.fullIpc() * 0.15);
}

TEST(PhaseAnalysis, RepresentativeBelongsToItsPhase)
{
    trace::PhasedTrace program({
        computePhase(250000, 9), // +50k consumed as warmup
        memoryPhase(200000, 10),
    });
    PhaseOptions options;
    options.intervalOps = 50000;
    options.warmupOps = 50000;
    const PhaseAnalysis analysis =
        analyzePhases(program, machine(), options);
    for (const Phase &phase : analysis.phases) {
        const std::set<std::size_t> members(phase.intervals.begin(),
                                            phase.intervals.end());
        EXPECT_TRUE(members.count(phase.representative));
        EXPECT_EQ(analysis.labels[phase.representative], phase.id);
    }
}

TEST(PhaseAnalysis, MaxPhasesBoundsDetection)
{
    trace::PhasedTrace program({
        computePhase(200000, 11), // +50k consumed as warmup
        memoryPhase(150000, 12),
        computePhase(150000, 13),
        memoryPhase(150000, 14),
    });
    PhaseOptions options;
    options.intervalOps = 50000;
    options.warmupOps = 50000;
    options.maxPhases = 2;
    const PhaseAnalysis analysis =
        analyzePhases(program, machine(), options);
    EXPECT_LE(analysis.phases.size(), 2u);
    // The alternating structure still maps to two recurring phases.
    EXPECT_EQ(analysis.phases.size(), 2u);
}

TEST(PhaseAnalysis, ShortTraceDegeneratesToOneInterval)
{
    auto tiny = computePhase(20000, 15);
    PhaseOptions options;
    options.intervalOps = 50000;
    const PhaseAnalysis analysis =
        analyzePhases(*tiny, machine(), options);
    EXPECT_EQ(analysis.intervals.size(), 1u);
    EXPECT_EQ(analysis.phases.size(), 1u);
    EXPECT_DOUBLE_EQ(analysis.fullIpc(),
                     analysis.sampledIpcEstimate());
}

/** One interval of a pinned analysis, every double at full precision. */
struct GoldenInterval
{
    std::uint64_t firstOp;
    std::uint64_t numOps;
    double ipc;
    std::array<double, kPhaseSignatureDims> signature;
};

/** A pinned analysis: its intervals, labels and both IPC summaries. */
struct Golden
{
    std::vector<GoldenInterval> intervals;
    std::vector<std::size_t> labels;
    double sampledIpcEstimate;
    double fullIpc;
};

/** Bit-exact comparison: a change to how intervals are stepped or
 *  sampled that moves one ulp of one signature fails here. */
void
expectMatchesGolden(const PhaseAnalysis &analysis, const Golden &golden)
{
    ASSERT_EQ(analysis.intervals.size(), golden.intervals.size());
    for (std::size_t i = 0; i < golden.intervals.size(); ++i) {
        const IntervalRecord &got = analysis.intervals[i];
        const GoldenInterval &want = golden.intervals[i];
        EXPECT_EQ(got.firstOp, want.firstOp) << "interval " << i;
        EXPECT_EQ(got.numOps, want.numOps) << "interval " << i;
        EXPECT_EQ(got.ipc, want.ipc) << "interval " << i;
        ASSERT_EQ(got.signature.size(), kPhaseSignatureDims);
        for (std::size_t d = 0; d < kPhaseSignatureDims; ++d)
            EXPECT_EQ(got.signature[d], want.signature[d])
                << "interval " << i << " " << phaseSignatureNames()[d];
    }
    EXPECT_EQ(analysis.labels, golden.labels);
    EXPECT_EQ(analysis.sampledIpcEstimate(), golden.sampledIpcEstimate);
    EXPECT_EQ(analysis.fullIpc(), golden.fullIpc);
}

TEST(PhaseAnalysis, GoldenPhasedTraceEndingOnABoundary)
{
    // 450k ops: 50k of warmup, then eight full intervals and no
    // partial one.
    trace::PhasedTrace program({
        computePhase(200000, 31),
        memoryPhase(150000, 32),
        computePhase(100000, 33),
    });
    PhaseOptions options;
    options.intervalOps = 50000;
    options.warmupOps = 50000;
    const Golden golden{
        {
            {50000, 50000, 0x1.f1aacca407f67p+1,
             {0x1.f1aacca407f67p+1, 0x1.97b7414a4d2b3p-4,
              0x1.9945b6c3760bfp-5, 0x1.a027525460aa6p-4, 0x0p+0,
              0x0p+0, 0x0p+0, 0x1.83060c183060cp-9}},
            {100000, 50000, 0x1.f92e1901a44f5p+1,
             {0x1.f92e1901a44f5p+1, 0x1.9945b6c3760bfp-4,
              0x1.930be0ded288dp-5, 0x1.9c38b04ab606bp-4, 0x0p+0,
              0x0p+0, 0x0p+0, 0x1.047a193bd40b6p-10}},
            {150000, 50000, 0x1.fe72bfaefb4ddp+1,
             {0x1.fe72bfaefb4ddp+1, 0x1.9a6b50b0f27bbp-4,
              0x1.90c0ad03d9a95p-5, 0x1.9a5657fb69985p-4, 0x0p+0,
              0x0p+0, 0x0p+0, 0x1.a2ad4192527dp-13}},
            {200000, 50000, 0x1.b249124e7ee88p-4,
             {0x1.b249124e7ee88p-4, 0x1.ce368f08461fap-2,
              0x1.9945b6c3760bfp-5, 0x1.99ae924f227dp-4,
              0x1.ffc5ec8342d82p-1, 0x1.fea932f0f6c06p-1,
              0x1.fb78bdb0b83aap-1, 0x1.4e2ab1380d83ap-6}},
            {250000, 50000, 0x1.bf5d5fbc6e166p-4,
             {0x1.bf5d5fbc6e166p-4, 0x1.cbeb5b2d4d402p-2,
              0x1.94d940789613dp-5, 0x1.97b7414a4d2b3p-4,
              0x1.ffd14eb0f1abbp-1, 0x1.fe55c72fe8191p-1,
              0x1.eef40290101bdp-1, 0x1.075afdc9c92b2p-8}},
            {300000, 50000, 0x1.c81dd9283869ap-4,
             {0x1.c81dd9283869ap-4, 0x1.ca9bcfd4bf099p-2,
              0x1.950331e3a7daap-5, 0x1.97785729b280fp-4,
              0x1.ffbf9d39ed3a8p-1, 0x1.fe3738b55b6fp-1,
              0x1.e51e7c24ba952p-1, 0x1.a59f725c6f94fp-12}},
            {350000, 50000, 0x1.a7eb134d0e3d5p+1,
             {0x1.a7eb134d0e3d5p+1, 0x1.a8c154c985f07p-4,
              0x1.8d25edd052935p-5, 0x1.9d5e4a3832767p-4,
              0x1.11547a3f7e71ep-5, 0x1.fd0a5bbee3e26p-1, 0x0p+0,
              0x1.7f2335790caefp-6}},
            {400000, 50000, 0x1.efa4cd324ecebp+1,
             {0x1.efa4cd324ecebp+1, 0x1.9210385c67dfep-4,
              0x1.a5119ce075f7p-5, 0x1.916872b020c4ap-4, 0x0p+0,
              0x0p+0, 0x0p+0, 0x1.c6bd55e3ff2ap-9}},
        },
        {0, 0, 0, 1, 1, 1, 0, 0},
        0x1.3b05185ea68b7p+1,
        0x1.35553505b3b95p+1,
    };
    expectMatchesGolden(analyzePhases(program, machine(), options),
                        golden);
}

TEST(PhaseAnalysis, GoldenCpu2017PairWithPartialLastInterval)
{
    // 330k ops: 20k of warmup, six full intervals and a last one of
    // 10k ops.
    const auto &profile =
        workloads::findProfile(workloads::cpu2017Suite(), "505.mcf_r");
    const workloads::AppInputPair pair{&profile,
                                       workloads::InputSize::Ref, 0};
    workloads::BuildOptions build;
    build.sampleOps = 330000;
    trace::SyntheticTraceGenerator source(
        workloads::buildTraceParams(pair, build, 0));
    PhaseOptions options;
    options.intervalOps = 50000;
    options.warmupOps = 20000;
    const Golden golden{
        {
            {20000, 50000, 0x1.f119752c2c6a7p-2,
             {0x1.f119752c2c6a7p-2, 0x1.1ba0a5269596p-2,
              0x1.7079e59f2ba9dp-4, 0x1.432ca57a786c2p-2,
              0x1.83be445b9cb2bp-4, 0x1.af8c6652677e5p-1,
              0x1.ff8961ff8962p-1, 0x1.ccfea323a0381p-5}},
            {70000, 50000, 0x1.05872e3a75434p-1,
             {0x1.05872e3a75434p-1, 0x1.197a24894c448p-2,
              0x1.6be37de939eaep-4, 0x1.4980b242070b9p-2,
              0x1.8832114903dfdp-4, 0x1.78ff38cd6c287p-1,
              0x1.f5f5f5f5f5f5fp-1, 0x1.bd8593b4d5884p-5}},
            {120000, 50000, 0x1.f7f4a2c3db25fp-2,
             {0x1.f7f4a2c3db25fp-2, 0x1.1873ffac1d29ep-2,
              0x1.6d71f36262cbap-4, 0x1.4a9bcfd4bf099p-2,
              0x1.86a2f08ef961ep-4, 0x1.5f43d286139a1p-1,
              0x1.e924924924925p-1, 0x1.a6b7cc1c9bba7p-5}},
            {170000, 50000, 0x1.16853d71969b4p-1,
             {0x1.16853d71969b4p-1, 0x1.1590c0ad03d9bp-2,
              0x1.74bc6a7ef9db2p-4, 0x1.4ba732df505d1p-2,
              0x1.8712e85ebf0aap-4, 0x1.524cc2abb8c77p-1,
              0x1.d27d27d27d27dp-1, 0x1.9c47f5a1369a2p-5}},
            {220000, 50000, 0x1.139baf245f962p-1,
             {0x1.139baf245f962p-1, 0x1.1b13165d3997p-2,
              0x1.6f0068db8bac7p-4, 0x1.49ca18bd66278p-2,
              0x1.7ccbbbb19e484p-4, 0x1.649b649b649b6p-1,
              0x1.aec4381004939p-1, 0x1.b06a93f1909fp-5}},
            {270000, 50000, 0x1.1da13b1b5787ap-1,
             {0x1.1da13b1b5787ap-1, 0x1.192b7fe08aefbp-2,
              0x1.75e2046c764aep-4, 0x1.49df1172ef0aep-2,
              0x1.7c17f13b5a31ap-4, 0x1.55330a0c0e77cp-1,
              0x1.a01cf26e5c44cp-1, 0x1.cac18db9666f6p-5}},
            {320000, 10000, 0x1.150e682c5439ap-1,
             {0x1.150e682c5439ap-1, 0x1.18e219652bd3cp-2,
              0x1.71758e219652cp-4, 0x1.44ea4a8c154cap-2,
              0x1.82c0d10e477d5p-4, 0x1.61da70adf61dap-1,
              0x1.9907269d5185p-1, 0x1.c8f9c99f05912p-5}},
        },
        {0, 0, 0, 0, 0, 0, 0},
        0x1.16853d71969b4p-1,
        0x1.0b4b5d78bfadfp-1,
    };
    expectMatchesGolden(analyzePhases(source, machine(), options),
                        golden);
}

TEST(PhaseAnalysis, SignatureNamesExported)
{
    EXPECT_EQ(phaseSignatureNames().size(), kPhaseSignatureDims);
}

TEST(PhaseAnalysisDeathTest, RejectsDegenerateOptions)
{
    auto source = computePhase(10000, 16);
    PhaseOptions options;
    options.intervalOps = 10;
    EXPECT_DEATH(analyzePhases(*source, machine(), options),
                 "too small");
}

} // namespace
} // namespace core
} // namespace spec17
