#include "sim/tlb.hh"

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "trace/kernels.hh"
#include "util/random.hh"

namespace spec17 {
namespace sim {
namespace {

TEST(Tlb, ColdWalkThenL1Hit)
{
    Tlb tlb;
    const TlbOutcome first = tlb.access(0x10000);
    EXPECT_FALSE(first.l1Hit);
    EXPECT_FALSE(first.l2Hit);
    EXPECT_EQ(first.extraLatency, tlb.config().walkLatency);
    const TlbOutcome second = tlb.access(0x10008); // same page
    EXPECT_TRUE(second.l1Hit);
    EXPECT_EQ(second.extraLatency, 0u);
    EXPECT_EQ(tlb.stats().accesses, 2u);
    EXPECT_EQ(tlb.stats().walks, 1u);
}

TEST(Tlb, L2BacksL1Evictions)
{
    TlbConfig config;
    config.l1Entries = 4;
    config.l2Entries = 64;
    Tlb tlb(config);
    // Touch 8 pages: all walk. Then the first page: out of L1 (4
    // entries) but still in L2.
    for (std::uint64_t p = 0; p < 8; ++p)
        tlb.access(p * 4096);
    const TlbOutcome revisit = tlb.access(0);
    EXPECT_FALSE(revisit.l1Hit);
    EXPECT_TRUE(revisit.l2Hit);
    EXPECT_EQ(revisit.extraLatency, config.l2HitLatency);
}

TEST(Tlb, LruKeepsHotPagesResident)
{
    TlbConfig config;
    config.l1Entries = 2;
    config.l2Entries = 4;
    Tlb tlb(config);
    tlb.access(0 * 4096);
    tlb.access(1 * 4096);
    tlb.access(0 * 4096); // touch page 0 -> page 1 is LRU in L1
    tlb.access(2 * 4096); // evicts page 1 from L1
    EXPECT_TRUE(tlb.access(0 * 4096).l1Hit);
    const TlbOutcome page1 = tlb.access(1 * 4096);
    EXPECT_FALSE(page1.l1Hit);
    EXPECT_TRUE(page1.l2Hit);
}

TEST(Tlb, WorkingSetWithinL1NeverWalksAfterWarmup)
{
    Tlb tlb;
    Rng rng(3);
    // 32 pages <= 64-entry L1 TLB.
    for (int i = 0; i < 10000; ++i)
        tlb.access(rng.nextBounded(32) * 4096 + rng.nextBounded(4096));
    EXPECT_EQ(tlb.stats().walks, 32u);
    EXPECT_EQ(tlb.stats().l1Misses, 32u);
}

TEST(Tlb, HugeWorkingSetThrashes)
{
    Tlb tlb;
    Rng rng(5);
    // 64k pages >> 1024-entry L2.
    for (int i = 0; i < 20000; ++i)
        tlb.access(rng.nextBounded(65536) * 4096);
    const TlbStats &stats = tlb.stats();
    EXPECT_GT(double(stats.walks) / double(stats.accesses), 0.9);
}

TEST(Tlb, FlushForgetsEverything)
{
    Tlb tlb;
    tlb.access(0x4000);
    tlb.flushAll();
    const TlbOutcome outcome = tlb.access(0x4000);
    EXPECT_FALSE(outcome.l1Hit);
    EXPECT_FALSE(outcome.l2Hit);
}

TEST(TlbDeathTest, RejectsDegenerateGeometry)
{
    TlbConfig config;
    config.l1Entries = 0;
    EXPECT_DEATH(Tlb{config}, "needs entries");
    config = TlbConfig();
    config.l2Entries = 1;
    EXPECT_DEATH(Tlb{config}, "smaller than L1");
    config = TlbConfig();
    config.pageBytes = 100;
    EXPECT_DEATH(Tlb{config}, "power of two");
}

TEST(TlbIntegration, DisabledByDefaultEnabledCostsLatency)
{
    // Random pointer chase over 512 MiB: far more pages than the TLB
    // covers -> every access walks when the TLB is enabled.
    auto run = [](bool enable) {
        trace::PointerChaseKernel chase(512ull << 20, 20000);
        SystemConfig config = SystemConfig::haswellXeonE52650Lv3();
        config.enableTlb = enable;
        CpuSimulator simulator(config);
        return simulator.run(chase);
    };
    const SimResult off = run(false);
    const SimResult on = run(true);
    EXPECT_EQ(off.counters.get(
                  counters::PerfEvent::DtlbLoadMissesWalk),
              0u);
    EXPECT_GT(on.counters.get(counters::PerfEvent::DtlbLoadMissesWalk),
              15000u);
    EXPECT_GT(on.cycles, off.cycles * 1.05);
}

TEST(TlbIntegration, CacheResidentCodeBarelyWalks)
{
    trace::StreamKernel stream(16 * 1024, 50000);
    SystemConfig config = SystemConfig::haswellXeonE52650Lv3();
    config.enableTlb = true;
    CpuSimulator simulator(config);
    simulator.run(stream);
    for (const Tlb *tlb : {&simulator.itlb(), &simulator.dtlb()}) {
        const TlbStats &stats = tlb->stats();
        EXPECT_LT(double(stats.walks) / double(stats.accesses), 0.001);
    }
}

} // namespace
} // namespace sim
} // namespace spec17
