#include "trace/synthetic.hh"

#include <gtest/gtest.h>

#include <map>

namespace spec17 {
namespace trace {
namespace {

SyntheticTraceParams
baseParams()
{
    SyntheticTraceParams params;
    params.numOps = 200000;
    params.seed = 42;
    params.loadFrac = 0.25;
    params.storeFrac = 0.10;
    params.branchFrac = 0.15;
    params.regions = {
        {AccessPattern::Sequential, 256 * 1024, 64, 1.0, 1.0},
        {AccessPattern::Random, 4 * 1024 * 1024, 64, 1.0, 1.0},
    };
    return params;
}

struct MixCounts
{
    std::uint64_t total = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t conditional = 0;
    std::uint64_t fp = 0;
    std::uint64_t depLoads = 0;
};

MixCounts
countMix(TraceSource &source)
{
    MixCounts mix;
    isa::MicroOp op;
    while (source.next(op)) {
        ++mix.total;
        mix.loads += op.isLoad();
        mix.stores += op.isStore();
        mix.branches += op.isBranch();
        mix.conditional += op.isConditionalBranch();
        mix.fp += (op.cls == isa::UopClass::FpAdd
                   || op.cls == isa::UopClass::FpMul
                   || op.cls == isa::UopClass::FpDiv);
        mix.depLoads += (op.isLoad() && op.depOnLoad);
    }
    return mix;
}

TEST(Synthetic, EmitsExactlyRequestedOps)
{
    SyntheticTraceGenerator gen(baseParams());
    const MixCounts mix = countMix(gen);
    EXPECT_EQ(mix.total, baseParams().numOps);
}

TEST(Synthetic, InstructionMixMatchesParams)
{
    SyntheticTraceGenerator gen(baseParams());
    const MixCounts mix = countMix(gen);
    const double n = static_cast<double>(mix.total);
    EXPECT_NEAR(mix.loads / n, 0.25, 0.01);
    EXPECT_NEAR(mix.stores / n, 0.10, 0.01);
    EXPECT_NEAR(mix.branches / n, 0.15, 0.01);
}

TEST(Synthetic, ConditionalShareOfBranchesMatches)
{
    SyntheticTraceParams params = baseParams();
    params.condFrac = 0.787; // the paper's 78.7% conditional share
    SyntheticTraceGenerator gen(params);
    const MixCounts mix = countMix(gen);
    EXPECT_NEAR(mix.conditional / double(mix.branches), 0.787, 0.02);
}

TEST(Synthetic, FpFractionControlsComputeClasses)
{
    SyntheticTraceParams params = baseParams();
    params.fpFrac = 1.0;
    SyntheticTraceGenerator gen(params);
    const MixCounts mix = countMix(gen);
    const std::uint64_t compute =
        mix.total - mix.loads - mix.stores - mix.branches;
    EXPECT_EQ(mix.fp, compute);
}

TEST(Synthetic, DeterministicAndResettable)
{
    SyntheticTraceGenerator a(baseParams());
    SyntheticTraceGenerator b(baseParams());
    isa::MicroOp oa, ob;
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(a.next(oa));
        ASSERT_TRUE(b.next(ob));
        ASSERT_EQ(oa.pc, ob.pc) << "op " << i;
        ASSERT_EQ(oa.cls, ob.cls) << "op " << i;
        ASSERT_EQ(oa.effAddr, ob.effAddr) << "op " << i;
        ASSERT_EQ(oa.taken, ob.taken) << "op " << i;
        first.push_back(oa.effAddr);
    }
    // A second pass builds a second generator; the first one's
    // consumption does not leak into it.
    SyntheticTraceGenerator c(baseParams());
    isa::MicroOp oc;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(c.next(oc));
        ASSERT_EQ(oc.effAddr, first[i]) << "op " << i;
    }
}

TEST(Synthetic, DifferentSeedsGiveDifferentStreams)
{
    SyntheticTraceParams params = baseParams();
    SyntheticTraceGenerator a(params);
    params.seed = 43;
    SyntheticTraceGenerator b(params);
    isa::MicroOp oa, ob;
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        a.next(oa);
        b.next(ob);
        same += (oa.cls == ob.cls && oa.effAddr == ob.effAddr);
    }
    EXPECT_LT(same, 900);
}

TEST(Synthetic, AddressesStayInsideRegions)
{
    SyntheticTraceParams params = baseParams();
    SyntheticTraceGenerator gen(params);
    const std::uint64_t base0 = gen.regionBase(0);
    const std::uint64_t base1 = gen.regionBase(1);
    EXPECT_GT(base1, base0 + params.regions[0].sizeBytes);

    isa::MicroOp op;
    while (gen.next(op)) {
        if (!op.isMemory())
            continue;
        const bool in0 = op.effAddr >= base0
            && op.effAddr < base0 + params.regions[0].sizeBytes;
        const bool in1 = op.effAddr >= base1
            && op.effAddr < base1 + params.regions[1].sizeBytes;
        ASSERT_TRUE(in0 || in1) << std::hex << op.effAddr;
    }
}

TEST(Synthetic, PointerChaseRegionsMarkDependentLoads)
{
    SyntheticTraceParams params = baseParams();
    params.regions = {
        {AccessPattern::PointerChase, 1024 * 1024, 64, 1.0, 1.0},
    };
    SyntheticTraceGenerator gen(params);
    const MixCounts mix = countMix(gen);
    EXPECT_EQ(mix.depLoads, mix.loads);
}

TEST(Synthetic, LoadStoreRegionWeightsRouteTraffic)
{
    SyntheticTraceParams params = baseParams();
    // Region 0 takes all loads, region 1 all stores.
    params.regions[0].loadWeight = 1.0;
    params.regions[0].storeWeight = 0.0;
    params.regions[1].loadWeight = 0.0;
    params.regions[1].storeWeight = 1.0;
    SyntheticTraceGenerator gen(params);
    const std::uint64_t base0 = gen.regionBase(0);
    const std::uint64_t split = gen.regionBase(1);
    isa::MicroOp op;
    while (gen.next(op)) {
        if (op.isLoad()) {
            ASSERT_GE(op.effAddr, base0);
            ASSERT_LT(op.effAddr, base0 + params.regions[0].sizeBytes);
        } else if (op.isStore()) {
            ASSERT_GE(op.effAddr, split);
        }
    }
}

TEST(Synthetic, StridedRegionUsesConfiguredStride)
{
    SyntheticTraceParams params = baseParams();
    params.loadFrac = 1.0;
    params.storeFrac = 0.0;
    params.branchFrac = 0.0;
    params.numOps = 100;
    params.regions = {
        {AccessPattern::Strided, 1024 * 1024, 256, 1.0, 0.0},
    };
    SyntheticTraceGenerator gen(params);
    isa::MicroOp op;
    std::uint64_t prev = 0;
    bool first = true;
    while (gen.next(op)) {
        if (!first) {
            EXPECT_EQ(op.effAddr - prev, 256u);
        }
        prev = op.effAddr;
        first = false;
    }
}

TEST(Synthetic, VirtualReserveCoversRegionsCodeAndSlack)
{
    SyntheticTraceParams params = baseParams();
    params.extraVirtualBytes = 1024 * 1024;
    SyntheticTraceGenerator gen(params);
    std::uint64_t floor = params.extraVirtualBytes
        + params.codeFootprintBytes;
    for (const auto &region : params.regions)
        floor += region.sizeBytes;
    EXPECT_GE(gen.virtualReserveBytes(), floor);
}

TEST(Synthetic, TakenBranchRedirectsInstructionStream)
{
    SyntheticTraceParams params = baseParams();
    params.branchFrac = 0.5;
    SyntheticTraceGenerator gen(params);
    isa::MicroOp op;
    bool pending_target = false;
    std::uint64_t target = 0;
    int checked = 0;
    while (gen.next(op) && checked < 200) {
        if (pending_target) {
            // Next fetch continues right after the branch target.
            EXPECT_EQ(op.pc == target + 4 || op.isConditionalBranch(),
                      true);
            pending_target = false;
            ++checked;
        }
        if (op.isBranch() && op.taken
            && op.branch != isa::BranchKind::Conditional) {
            pending_target = true;
            target = op.target;
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(SyntheticDeathTest, ValidationCatchesBadParams)
{
    SyntheticTraceParams params = baseParams();
    params.loadFrac = 0.9;
    params.storeFrac = 0.3;
    EXPECT_DEATH(SyntheticTraceGenerator{params}, "exceeds 100%");

    params = baseParams();
    params.regions.clear();
    EXPECT_DEATH(SyntheticTraceGenerator{params}, "at least one region");

    params = baseParams();
    params.hardBranchFrac = 1.5;
    EXPECT_DEATH(SyntheticTraceGenerator{params}, "hardBranchFrac");

    params = baseParams();
    params.regions[0].loadWeight = -1.0;
    EXPECT_DEATH(SyntheticTraceGenerator{params}, "non-negative");
}

TEST(Synthetic, AccessPatternNames)
{
    EXPECT_STREQ(accessPatternName(AccessPattern::Sequential),
                 "sequential");
    EXPECT_STREQ(accessPatternName(AccessPattern::PointerChase),
                 "pointer_chase");
}

} // namespace
} // namespace trace
} // namespace spec17
