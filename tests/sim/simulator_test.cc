#include "sim/simulator.hh"

#include <gtest/gtest.h>

#include "sim/multicore.hh"
#include "trace/kernels.hh"
#include "trace/synthetic.hh"

namespace spec17 {
namespace sim {
namespace {

using counters::PerfEvent;

SystemConfig
machine()
{
    return SystemConfig::haswellXeonE52650Lv3();
}

TEST(Simulator, CountsEveryRetiredOp)
{
    trace::StreamKernel kernel(64 * 1024, 1000, true);
    CpuSimulator sim(machine());
    const SimResult result = sim.run(kernel);
    EXPECT_EQ(result.counters.get(PerfEvent::InstRetiredAny), 4000u);
    EXPECT_EQ(result.counters.get(PerfEvent::UopsRetiredAll), 4000u);
    EXPECT_EQ(result.counters.get(PerfEvent::MemUopsRetiredAllLoads),
              1000u);
    EXPECT_EQ(result.counters.get(PerfEvent::MemUopsRetiredAllStores),
              1000u);
    EXPECT_EQ(result.counters.get(PerfEvent::BrInstExecAllBranches),
              1000u);
    EXPECT_EQ(result.counters.get(PerfEvent::BrInstExecAllConditional),
              1000u);
}

TEST(Simulator, LoadHitMissCountersArePartition)
{
    trace::SyntheticTraceParams params;
    params.numOps = 100000;
    params.regions = {
        {trace::AccessPattern::Random, 8 * 1024 * 1024, 64, 1.0, 1.0},
    };
    trace::SyntheticTraceGenerator gen(params);
    CpuSimulator sim(machine());
    const SimResult result = sim.run(gen);

    const auto loads =
        result.counters.get(PerfEvent::MemUopsRetiredAllLoads);
    const auto l1h =
        result.counters.get(PerfEvent::MemLoadUopsRetiredL1Hit);
    const auto l1m =
        result.counters.get(PerfEvent::MemLoadUopsRetiredL1Miss);
    const auto l2h =
        result.counters.get(PerfEvent::MemLoadUopsRetiredL2Hit);
    const auto l2m =
        result.counters.get(PerfEvent::MemLoadUopsRetiredL2Miss);
    const auto l3h =
        result.counters.get(PerfEvent::MemLoadUopsRetiredL3Hit);
    const auto l3m =
        result.counters.get(PerfEvent::MemLoadUopsRetiredL3Miss);

    EXPECT_EQ(l1h + l1m, loads);
    EXPECT_EQ(l2h + l2m, l1m);
    EXPECT_EQ(l3h + l3m, l2m);
    EXPECT_GT(l1m, 0u);
}

TEST(Simulator, CacheResidentWorkloadHasHighHitRate)
{
    // 16 KiB working set inside a 32 KiB L1: after warmup, near-zero
    // miss rate.
    trace::StreamKernel kernel(16 * 1024, 50000);
    CpuSimulator sim(machine());
    const SimResult result = sim.run(kernel);
    const double l1_miss_rate =
        double(result.counters.get(PerfEvent::MemLoadUopsRetiredL1Miss))
        / double(result.counters.get(PerfEvent::MemUopsRetiredAllLoads));
    EXPECT_LT(l1_miss_rate, 0.01);
}

TEST(Simulator, StreamingMissRateMatchesLineGeometry)
{
    // Sequential 8 B loads over a >L3 array: one compulsory miss per
    // 64 B line -> L1 miss rate ~= 1/8.
    trace::StreamKernel kernel(64 * 1024 * 1024, 300000);
    CpuSimulator sim(machine());
    const SimResult result = sim.run(kernel);
    const double l1_miss_rate =
        double(result.counters.get(PerfEvent::MemLoadUopsRetiredL1Miss))
        / double(result.counters.get(PerfEvent::MemUopsRetiredAllLoads));
    EXPECT_NEAR(l1_miss_rate, 1.0 / 8.0, 0.01);
}

TEST(Simulator, PointerChaseIpcIsFarBelowStreaming)
{
    trace::StreamKernel stream(64 * 1024 * 1024, 200000);
    trace::PointerChaseKernel chase(64 * 1024 * 1024, 50000);
    CpuSimulator sim_stream(machine());
    CpuSimulator sim_chase(machine());
    const double stream_ipc = sim_stream.run(stream).ipc();
    const double chase_ipc = sim_chase.run(chase).ipc();
    EXPECT_GT(stream_ipc, 4 * chase_ipc);
    EXPECT_LT(chase_ipc, 0.25);
}

TEST(Simulator, RssTracksTouchedPagesVszTracksReserve)
{
    trace::SyntheticTraceParams params;
    params.numOps = 50000;
    params.extraVirtualBytes = 64 * 1024 * 1024;
    params.regions = {
        {trace::AccessPattern::Sequential, 1024 * 1024, 64, 1.0, 1.0},
    };
    trace::SyntheticTraceGenerator gen(params);
    CpuSimulator sim(machine());
    const SimResult result = sim.run(gen);
    const auto rss = result.counters.get(PerfEvent::RssBytes);
    const auto vsz = result.counters.get(PerfEvent::VszBytes);
    EXPECT_GT(rss, 0u);
    EXPECT_GE(vsz, rss);
    EXPECT_GE(vsz, params.extraVirtualBytes);
    // Sequential sweep of 50k ops touches ~ loads*8B of the region.
    EXPECT_LT(rss, 2 * 1024 * 1024u);
}

TEST(Simulator, MispredictCounterMatchesBranchUnit)
{
    trace::SyntheticTraceParams params;
    params.numOps = 100000;
    params.hardBranchFrac = 0.5;
    params.regions = {
        {trace::AccessPattern::Sequential, 64 * 1024, 64, 1.0, 1.0},
    };
    trace::SyntheticTraceGenerator gen(params);
    CpuSimulator sim(machine());
    const SimResult result = sim.run(gen);
    EXPECT_EQ(result.counters.get(PerfEvent::BrMispExecAllBranches),
              sim.branchUnit().totals().mispredicted);
    EXPECT_GT(result.counters.get(PerfEvent::BrMispExecAllBranches), 0u);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    trace::SyntheticTraceParams params;
    params.numOps = 50000;
    params.regions = {
        {trace::AccessPattern::Random, 2 * 1024 * 1024, 64, 1.0, 1.0},
    };
    trace::SyntheticTraceGenerator gen1(params);
    trace::SyntheticTraceGenerator gen2(params);
    CpuSimulator sim1(machine(), 7);
    CpuSimulator sim2(machine(), 7);
    const SimResult r1 = sim1.run(gen1);
    const SimResult r2 = sim2.run(gen2);
    EXPECT_DOUBLE_EQ(r1.cycles, r2.cycles);
    for (std::size_t i = 0; i < counters::kNumPerfEvents; ++i) {
        const auto event = static_cast<PerfEvent>(i);
        EXPECT_EQ(r1.counters.get(event), r2.counters.get(event))
            << counters::perfEventName(event);
    }
}

TEST(Simulator, ImportingSiblingMatchesItsOwnRun)
{
    // A clone-group sibling differs from its leader only in the branch
    // predictor, so it imports the leader's memory-side lanes and new
    // footprint pages instead of running those passes, and is built
    // -- as the sweep engine builds it -- in the lane-importer form,
    // with no cache hierarchy. After every chunk it must read exactly
    // what the same configuration reads when it simulates the stream
    // itself -- the RSS gauge included, which random accesses over
    // 64 MiB keep growing.
    trace::SyntheticTraceParams params;
    params.numOps = 40000;
    params.regions = {
        {trace::AccessPattern::Random, 64 * 1024 * 1024, 64, 1.0, 1.0},
    };
    SystemConfig sibling_config = machine();
    sibling_config.branchPredictor = "tage";
    ASSERT_NE(machine().branchPredictor, sibling_config.branchPredictor);
    constexpr std::uint64_t kChunk = 5000;
    for (const std::size_t batch : {1u, 7u, 256u}) {
        SCOPED_TRACE(::testing::Message() << "batch=" << batch);
        trace::SyntheticTraceGenerator leader_gen(params);
        trace::SyntheticTraceGenerator sibling_gen(params);
        trace::SyntheticTraceGenerator own_gen(params);
        CpuSimulator leader(machine());
        CpuSimulator sibling(CpuSimulator::LaneImporter{},
                             sibling_config);
        CpuSimulator own(sibling_config);
        for (CpuSimulator *sim : {&leader, &sibling, &own})
            sim->setBatchOps(batch);

        MemoryLaneLog log;
        for (std::uint64_t done = 0; done < params.numOps;
             done += kChunk) {
            SCOPED_TRACE(::testing::Message() << "ops=" << done + kChunk);
            log.clear();
            ASSERT_EQ(leader.stepRecording(leader_gen, kChunk, log),
                      kChunk);
            std::size_t cursor = 0;
            ASSERT_EQ(sibling.stepImporting(sibling_gen, kChunk, log,
                                            cursor),
                      kChunk);
            EXPECT_EQ(cursor, log.batches.size());
            ASSERT_EQ(own.step(own_gen, kChunk), kChunk);

            const counters::CounterSet imported = sibling.snapshot();
            const counters::CounterSet simulated = own.snapshot();
            for (std::size_t i = 0; i < counters::kNumPerfEvents; ++i) {
                const auto event = static_cast<PerfEvent>(i);
                EXPECT_EQ(imported.get(event), simulated.get(event))
                    << counters::perfEventName(event);
            }
            EXPECT_EQ(sibling.core().cycles(), own.core().cycles());
        }
        EXPECT_GT(own.snapshot().get(PerfEvent::RssBytes), 0u);
        // The sibling ran its own predictor, not the leader's.
        EXPECT_NE(sibling.snapshot().get(PerfEvent::BrMispExecAllBranches),
                  leader.snapshot().get(PerfEvent::BrMispExecAllBranches));
    }
}

TEST(Simulator, LaneImporterOnlyImports)
{
    // The lane-importer form builds no cache hierarchy, so every entry
    // point that needs one refuses it by name instead of touching it.
    CpuSimulator importer(CpuSimulator::LaneImporter{}, machine());
    trace::StreamKernel kernel(64 * 1024, 1000);
    EXPECT_DEATH(importer.step(kernel, 100),
                 "step\\(\\) on a lane importer");
    EXPECT_DEATH(importer.prefillData(0, 4096, HitLevel::L2),
                 "prefillData\\(\\) on a lane importer");
    EXPECT_DEATH(importer.hierarchy(),
                 "hierarchy\\(\\) on a lane importer");
}

TEST(Simulator, IpcHelperMatchesCounters)
{
    trace::StreamKernel kernel(16 * 1024, 10000);
    CpuSimulator sim(machine());
    const SimResult result = sim.run(kernel);
    const double expect =
        double(result.counters.get(PerfEvent::InstRetiredAny))
        / double(result.counters.get(PerfEvent::CpuClkUnhaltedRefTsc));
    EXPECT_DOUBLE_EQ(result.ipc(), expect);
    EXPECT_GT(result.seconds, 0.0);
}

TEST(Multicore, AggregatesCountersAcrossCores)
{
    trace::SyntheticTraceParams params;
    params.numOps = 20000;
    params.regions = {
        {trace::AccessPattern::Sequential, 256 * 1024, 64, 1.0, 1.0},
    };
    std::vector<std::shared_ptr<trace::TraceSource>> sources;
    for (int t = 0; t < 4; ++t) {
        auto thread_params = params;
        thread_params.seed = 100 + t;
        sources.push_back(std::make_shared<trace::SyntheticTraceGenerator>(
            thread_params));
    }
    MulticoreSimulator multicore(machine(), 4);
    const SimResult result = multicore.run(sources);
    EXPECT_EQ(result.counters.get(PerfEvent::InstRetiredAny), 80000u);
    EXPECT_GT(result.cycles, 0.0);
}

TEST(Multicore, SharedL3ContentionLowersIpc)
{
    // Shrink the L3 to 4 MiB so one thread's 3 MiB heap fits (and can
    // be warmed within the test) while four private heaps thrash it.
    SystemConfig config = machine();
    config.hierarchy.l3.sizeBytes = 4 * 1024 * 1024;
    config.hierarchy.l3.assoc = 16;

    auto make_sources = [](int n) {
        std::vector<std::shared_ptr<trace::TraceSource>> sources;
        for (int t = 0; t < n; ++t) {
            trace::SyntheticTraceParams params;
            params.numOps = 400000;
            params.seed = 50 + t;
            params.loadFrac = 0.4;
            params.addressOffset =
                std::uint64_t(t) * 64 * 1024 * 1024;
            params.regions = {{trace::AccessPattern::Random,
                               3 * 1024 * 1024, 64, 1.0, 1.0}};
            sources.push_back(
                std::make_shared<trace::SyntheticTraceGenerator>(params));
        }
        return sources;
    };

    MulticoreSimulator solo(config, 1);
    const double solo_ipc = solo.run(make_sources(1)).ipc();
    MulticoreSimulator quad(config, 4);
    const double quad_ipc = quad.run(make_sources(4)).ipc();
    // Aggregate IPC per the paper's counting (instr / summed cycles)
    // must drop under shared-L3 contention.
    EXPECT_LT(quad_ipc, solo_ipc * 0.8);
}

TEST(MulticoreDeathTest, SourceCountMustMatchCores)
{
    MulticoreSimulator multicore(machine(), 2);
    std::vector<std::shared_ptr<trace::TraceSource>> one = {
        std::make_shared<trace::StreamKernel>(1024, 10),
    };
    EXPECT_DEATH(multicore.run(one), "one trace per core");
}

} // namespace
} // namespace sim
} // namespace spec17
