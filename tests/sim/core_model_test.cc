#include "sim/core_model.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "trace/synthetic.hh"

namespace spec17 {
namespace sim {
namespace {

using isa::makeAlu;
using isa::makeBranch;
using isa::makeLoad;
using isa::makeStore;

CoreParams
defaults()
{
    return CoreParams{};
}

/** Retires @p n independent single-cycle ALU ops. */
double
runIndependentAlus(CoreModel &core, int n)
{
    for (int i = 0; i < n; ++i)
        core.retire(makeAlu(0x1000 + 4 * i), 0, false, 0, false);
    return core.cycles();
}

TEST(CoreModel, IndependentAluIpcApproachesWidth)
{
    CoreModel core(defaults());
    const double cycles = runIndependentAlus(core, 100000);
    const double ipc = 100000 / cycles;
    EXPECT_NEAR(ipc, defaults().dispatchWidth, 0.1);
}

TEST(CoreModel, SerialDependencyChainLimitsIpcToOne)
{
    CoreModel core(defaults());
    for (int i = 0; i < 50000; ++i) {
        isa::MicroOp op = makeAlu(0x1000);
        op.depOnPrev = true;
        core.retire(op, 0, false, 0, false);
    }
    const double ipc = 50000 / core.cycles();
    EXPECT_NEAR(ipc, 1.0, 0.05);
}

TEST(CoreModel, FpChainLimitedByFpLatency)
{
    CoreModel core(defaults());
    for (int i = 0; i < 50000; ++i) {
        isa::MicroOp op = makeAlu(0x1000, isa::UopClass::FpAdd);
        op.depOnPrev = true;
        core.retire(op, 0, false, 0, false);
    }
    const double ipc = 50000 / core.cycles();
    EXPECT_NEAR(ipc, 1.0 / defaults().fpAddLatency, 0.02);
}

TEST(CoreModel, DependentMissChainIsLatencyBound)
{
    CoreModel core(defaults());
    const unsigned mem_latency = 210;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        // Pointer chase: every load depends on the previous one.
        core.retire(makeLoad(0x1000, 0x100000 + i * 64, 8, true),
                    mem_latency, true, 0, false);
    }
    const double cpi = core.cycles() / n;
    EXPECT_NEAR(cpi, mem_latency, mem_latency * 0.05);
}

TEST(CoreModel, IndependentMissesOverlapUpToMshrs)
{
    CoreModel core(defaults());
    const unsigned mem_latency = 210;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        // Independent misses: MLP should hide most latency.
        core.retire(makeLoad(0x1000, 0x100000 + i * 64, 8, false),
                    mem_latency, true, 0, false);
    }
    const double cpi = core.cycles() / n;
    // With 10 MSHRs the effective latency per miss is bounded by
    // roughly mem_latency / numMshrs (plus dispatch).
    EXPECT_LT(cpi, mem_latency / 5.0);
    // But MSHRs are finite: it cannot beat latency/MSHRs.
    EXPECT_GT(cpi, mem_latency / (defaults().numMshrs + 1.0));
}

TEST(CoreModel, RobLimitsRunaheadPastBlockingMiss)
{
    // One very long dependent miss followed by many ALUs: dispatch
    // can run ahead only ROB entries deep, so total time is dominated
    // by the miss latency, not hidden by it.
    CoreModel core(defaults());
    core.retire(makeLoad(0x1000, 0x100000, 8, true), 10000, true, 0,
                false);
    for (int i = 0; i < 150; ++i) // fewer than ROB entries
        core.retire(makeAlu(0x2000 + 4 * i), 0, false, 0, false);
    EXPECT_GE(core.cycles(), 10000.0);
    const double c_before = core.cycles();

    // Beyond the ROB window, dispatch stalls against the load's
    // completion; the next op cannot have dispatched earlier.
    CoreModel core2(defaults());
    core2.retire(makeLoad(0x1000, 0x100000, 8, true), 10000, true, 0,
                 false);
    for (int i = 0; i < 500; ++i)
        core2.retire(makeAlu(0x2000 + 4 * i), 0, false, 0, false);
    EXPECT_GT(core2.cycles(), c_before);
}

TEST(CoreModel, MispredictsAddResolvePlusRefill)
{
    const CoreParams params = defaults();
    CoreModel base(params);
    CoreModel mispredicting(params);
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        base.retire(makeBranch(0x1000, isa::BranchKind::Conditional,
                               true, 0x2000),
                    0, false, 0, false);
        mispredicting.retire(
            makeBranch(0x1000, isa::BranchKind::Conditional, true,
                       0x2000),
            0, false, 0, true);
    }
    const double per_branch =
        (mispredicting.cycles() - base.cycles()) / n;
    // Every branch mispredicts: cost ~= resolve + refill per branch.
    EXPECT_NEAR(per_branch,
                params.branchResolveLatency + params.mispredictPenalty,
                3.0);
}

TEST(CoreModel, LoadDependentBranchResolvesLate)
{
    const CoreParams params = defaults();
    // Mispredicted branch fed by a 210-cycle load costs far more
    // than one fed by a register.
    CoreModel fast(params);
    fast.retire(makeLoad(0x1000, 0x100000, 8, false), 4, false, 0,
                false);
    fast.retire(makeBranch(0x1004, isa::BranchKind::Conditional, true,
                           0x2000),
                0, false, 0, true);
    CoreModel slow(params);
    slow.retire(makeLoad(0x1000, 0x100000, 8, false), 210, true, 0,
                false);
    isa::MicroOp branch = makeBranch(
        0x1004, isa::BranchKind::Conditional, true, 0x2000, true);
    slow.retire(branch, 0, false, 0, true);
    EXPECT_GT(slow.cycles(), fast.cycles() + 150.0);
}

TEST(CoreModel, StoresDoNotStall)
{
    CoreModel core(defaults());
    for (int i = 0; i < 10000; ++i)
        core.retire(makeStore(0x1000, 0x100000 + i * 64), 0, false, 0,
                    false);
    const double ipc = 10000 / core.cycles();
    EXPECT_NEAR(ipc, defaults().dispatchWidth, 0.1);
}

TEST(CoreModel, DramTransfersOccupyTheBus)
{
    // An 8-cycle latency leaves the private DRAM channel (4 cycles a
    // line) as the only limit, so every bound below is exact.
    const CoreParams params = defaults();
    const double first_dispatch = 1.0 / params.dispatchWidth;
    const double per_line = MemoryBus{}.cyclesPerLine;
    const unsigned latency = 8;
    const int n = 1000;

    // Code 1, one line per load: each fill starts when the previous
    // one's transfer ends. The same misses served on chip overlap
    // across the MSHRs instead.
    CoreModel dram(params);
    CoreModel on_chip(params);
    for (int i = 0; i < n; ++i) {
        const isa::MicroOp op =
            makeLoad(0x1000, 0x100000 + i * 64, 8, false);
        dram.retire(op, latency, true, 0, false, 1);
        on_chip.retire(op, latency, true, 0, false, 0);
    }
    EXPECT_DOUBLE_EQ(dram.cycles(),
                     first_dispatch + (n - 1) * per_line + latency);
    EXPECT_LT(on_chip.cycles(), n * per_line / 2);

    // Code 2, a store miss's RFO read plus its writeback: each store
    // holds the channel for two lines. Stores never stall, so a load
    // behind n of them waits for all 2n transfers.
    CoreModel stores(params);
    for (int i = 0; i < n; ++i)
        stores.retire(makeStore(0x1000, 0x100000 + i * 64), 0, false, 0,
                      false, 2);
    EXPECT_LT(stores.cycles(), n * per_line / 2);
    stores.retire(makeLoad(0x2000, 0x200000, 8, false), latency, true, 0,
                  false, 1);
    EXPECT_DOUBLE_EQ(stores.cycles(),
                     first_dispatch + 2 * n * per_line + latency);
}

TEST(CoreModel, FetchStallsAddFrontendCycles)
{
    CoreModel stalled(defaults());
    CoreModel smooth(defaults());
    for (int i = 0; i < 1000; ++i) {
        stalled.retire(makeAlu(0x1000), 0, false, 12, false);
        smooth.retire(makeAlu(0x1000), 0, false, 0, false);
    }
    EXPECT_NEAR(stalled.cycles() - smooth.cycles(), 12000.0, 100.0);
}

TEST(CoreModel, SecondsUsesConfiguredClock)
{
    CoreParams params = defaults();
    params.frequencyGHz = 2.0;
    CoreModel core(params);
    EXPECT_DOUBLE_EQ(core.secondsFor(2e9), 1.0);
}

TEST(CoreModel, RetiredCountTracksOps)
{
    CoreModel core(defaults());
    runIndependentAlus(core, 123);
    EXPECT_EQ(core.retired(), 123u);
}

/** One op stream's retire lanes, as a clone group's leader records
 *  them, plus one mispredict lane per core. */
struct GroupLanes
{
    trace::MicroOpBatch ops;
    std::vector<unsigned> memLatency;
    std::vector<unsigned> fetchStall;
    std::vector<std::uint8_t> l1Miss;
    std::vector<std::uint8_t> dram;
    std::vector<std::vector<std::uint8_t>> mispredicted;
};

/** @p n generator ops with L1 misses, DRAM codes 1 (load fills) and 2
 *  (store RFO plus writeback), fetch stalls, and @p cores mispredict
 *  lanes that differ from one another. */
GroupLanes
groupLanes(std::size_t n, std::size_t cores)
{
    trace::SyntheticTraceParams params;
    params.numOps = n;
    params.fpFrac = 0.3;
    params.divFrac = 0.05;
    params.regions = {
        {trace::AccessPattern::Random, 1 << 20, 64, 1.0, 1.0},
    };
    trace::SyntheticTraceGenerator gen(params);
    GroupLanes lanes;
    gen.nextBatchSoA(lanes.ops, 0, n);
    lanes.memLatency.assign(n, 0);
    lanes.fetchStall.assign(n, 0);
    lanes.l1Miss.assign(n, 0);
    lanes.dram.assign(n, 0);
    lanes.mispredicted.assign(cores, std::vector<std::uint8_t>(n, 0));
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 97 == 0)
            lanes.fetchStall[i] = 14;
        switch (lanes.ops.cls[i]) {
          case isa::UopClass::Load:
            lanes.memLatency[i] = i % 5 == 0 ? 230 : i % 3 == 0 ? 12 : 4;
            lanes.l1Miss[i] = i % 3 == 0 || i % 5 == 0;
            lanes.dram[i] = i % 5 == 0;
            break;
          case isa::UopClass::Store:
            lanes.dram[i] = i % 4 == 0 ? 2 : 0;
            break;
          case isa::UopClass::Branch:
            for (std::size_t k = 0; k < cores; ++k)
                lanes.mispredicted[k][i] = (i / 3 + k) % (4 + k) == 0;
            break;
          default:
            break;
        }
    }
    return lanes;
}

/** Retires ops [from, to) of @p lanes on @p core alone, in batches of
 *  @p batch ops, reading mispredict lane @p k. */
void
retireAlone(CoreModel &core, const GroupLanes &lanes, std::size_t k,
            std::size_t from, std::size_t to, std::size_t batch)
{
    for (std::size_t at = from; at < to; at += batch) {
        const std::size_t n = std::min(batch, to - at);
        core.retireBatch(lanes.ops.cls.data() + at,
                         lanes.ops.flags.data() + at,
                         lanes.memLatency.data() + at,
                         lanes.l1Miss.data() + at,
                         lanes.fetchStall.data() + at,
                         lanes.mispredicted[k].data() + at,
                         lanes.dram.data() + at, n);
    }
}

/** Whether two doubles hold the same bits. */
::testing::AssertionResult
sameBits(double a, double b)
{
    if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << ::testing::PrintToString(a) << " vs "
           << ::testing::PrintToString(b);
}

/** Every result @p core exposes equals @p alone's, bit for bit. */
void
expectSameCore(const CoreModel &core, const CoreModel &alone)
{
    EXPECT_TRUE(sameBits(core.cycles(), alone.cycles()));
    const CpiStack &got = core.cpiStack();
    const CpiStack &want = alone.cpiStack();
    EXPECT_TRUE(sameBits(got.base, want.base)) << "base";
    EXPECT_TRUE(sameBits(got.frontend, want.frontend)) << "frontend";
    EXPECT_TRUE(sameBits(got.branch, want.branch)) << "branch";
    EXPECT_TRUE(sameBits(got.memory, want.memory)) << "memory";
    EXPECT_TRUE(sameBits(got.compute, want.compute)) << "compute";
    EXPECT_EQ(core.retired(), alone.retired());
}

TEST(CoreModel, GroupRetireMatchesSeparateRetires)
{
    // A clone group's cores retire one op stream and differ only in
    // their mispredict lanes. The op-major group retire must leave
    // each core exactly where its own retireBatch() calls over the
    // same lanes leave it, at any batch size -- and with the ROB
    // ring, the MSHRs and the bus in the same state, which one more
    // retireBatch() per core then reads.
    constexpr std::size_t kOps = 40000;
    constexpr std::size_t kTail = 5000;
    constexpr std::size_t kMaxCores = 5;
    const GroupLanes lanes = groupLanes(kOps + kTail, kMaxCores);
    const auto has_flag = [&](std::uint8_t flag) {
        return std::any_of(lanes.ops.flags.begin(), lanes.ops.flags.end(),
                           [&](std::uint8_t f) { return (f & flag) != 0; });
    };
    ASSERT_TRUE(has_flag(trace::kFlagDepOnLoad));
    ASSERT_TRUE(has_flag(trace::kFlagDepOnPrev));

    for (const std::size_t cores : {1u, 2u, 5u}) {
        for (const std::size_t batch : {1u, 7u, 256u, 16384u}) {
            SCOPED_TRACE(::testing::Message()
                         << "cores=" << cores << " batch=" << batch);
            std::vector<CoreModel> grouped;
            std::vector<CoreModel> alone;
            grouped.reserve(cores);
            alone.reserve(cores);
            std::vector<CoreModel *> group;
            for (std::size_t k = 0; k < cores; ++k) {
                group.push_back(&grouped.emplace_back(defaults()));
                alone.emplace_back(defaults());
            }
            for (std::size_t at = 0; at < kOps; at += batch) {
                const std::size_t n = std::min(batch, kOps - at);
                std::vector<const std::uint8_t *> mispredicted;
                for (std::size_t k = 0; k < cores; ++k)
                    mispredicted.push_back(lanes.mispredicted[k].data()
                                           + at);
                CoreModel::retireGroup(
                    group, mispredicted, lanes.ops.cls.data() + at,
                    lanes.ops.flags.data() + at,
                    lanes.memLatency.data() + at, lanes.l1Miss.data() + at,
                    lanes.fetchStall.data() + at, lanes.dram.data() + at,
                    n);
            }
            for (std::size_t k = 0; k < cores; ++k)
                retireAlone(alone[k], lanes, k, 0, kOps, batch);
            for (std::size_t k = 0; k < cores; ++k) {
                SCOPED_TRACE(::testing::Message() << "core " << k);
                expectSameCore(grouped[k], alone[k]);
                retireAlone(grouped[k], lanes, k, kOps, kOps + kTail, 256);
                retireAlone(alone[k], lanes, k, kOps, kOps + kTail, 256);
                expectSameCore(grouped[k], alone[k]);
            }
            if (cores > 1) {
                // The lanes do tell the cores apart.
                EXPECT_FALSE(sameBits(grouped[0].cycles(),
                                      grouped[1].cycles()));
            }
        }
    }
}

TEST(CoreModelDeathTest, RejectsDegenerateParams)
{
    CoreParams params = defaults();
    params.dispatchWidth = 0;
    EXPECT_DEATH(CoreModel{params}, "width");
    params = defaults();
    params.numMshrs = 0;
    EXPECT_DEATH(CoreModel{params}, "MSHR");
}

} // namespace
} // namespace sim
} // namespace spec17
