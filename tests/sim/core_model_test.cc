#include "sim/core_model.hh"

#include <gtest/gtest.h>

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
