#include "sim/simulator.hh"

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

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
    // Clone-group siblings differ from their leader only in the branch
    // predictor, so in a group step each imports the leader's new
    // footprint pages and counter deltas instead of running the cache,
    // TLB and footprint passes, and the group retire feeds every
    // cell's core from the leader's recorded lanes and the cell's own
    // mispredict lane. Each sibling is built -- as the sweep engine
    // builds it -- in the lane-importer form, with no cache hierarchy.
    // After every chunk each cell must read exactly what the same
    // configuration reads when it simulates the stream itself -- the
    // RSS gauge included, which random accesses over 64 MiB keep
    // growing.
    trace::SyntheticTraceParams params;
    params.numOps = 40000;
    params.regions = {
        {trace::AccessPattern::Random, 64 * 1024 * 1024, 64, 1.0, 1.0},
    };
    std::vector<SystemConfig> configs(3, machine());
    configs[1].branchPredictor = "tage";
    configs[2].branchPredictor = "gshare";
    ASSERT_NE(configs[0].branchPredictor, configs[1].branchPredictor);
    ASSERT_NE(configs[0].branchPredictor, configs[2].branchPredictor);
    constexpr std::uint64_t kChunk = 5000;
    for (const std::size_t batch : {1u, 7u, 256u}) {
        SCOPED_TRACE(::testing::Message() << "batch=" << batch);
        std::vector<std::unique_ptr<trace::SyntheticTraceGenerator>> gens;
        std::vector<std::unique_ptr<trace::SyntheticTraceGenerator>>
            own_gens;
        std::vector<std::unique_ptr<CpuSimulator>> cells;
        std::vector<std::unique_ptr<CpuSimulator>> owns;
        std::vector<GroupCell> group;
        for (std::size_t c = 0; c < configs.size(); ++c) {
            gens.push_back(
                std::make_unique<trace::SyntheticTraceGenerator>(params));
            own_gens.push_back(
                std::make_unique<trace::SyntheticTraceGenerator>(params));
            cells.push_back(
                c == 0 ? std::make_unique<CpuSimulator>(configs[c])
                       : std::make_unique<CpuSimulator>(
                             CpuSimulator::LaneImporter{}, configs[c]));
            owns.push_back(std::make_unique<CpuSimulator>(configs[c]));
            cells.back()->setBatchOps(batch);
            owns.back()->setBatchOps(batch);
            group.emplace_back(*cells.back(), *gens.back());
        }

        MemoryLaneLog log;
        for (std::uint64_t done = 0; done < params.numOps;
             done += kChunk) {
            SCOPED_TRACE(::testing::Message() << "ops=" << done + kChunk);
            CpuSimulator::stepGroup(group, kChunk, log);
            for (std::size_t c = 0; c < configs.size(); ++c) {
                SCOPED_TRACE(::testing::Message() << "cell " << c);
                ASSERT_FALSE(group[c].error);
                ASSERT_EQ(group[c].got, kChunk);
                ASSERT_EQ(owns[c]->step(*own_gens[c], kChunk), kChunk);

                const counters::CounterSet stepped = cells[c]->snapshot();
                const counters::CounterSet simulated = owns[c]->snapshot();
                for (std::size_t i = 0; i < counters::kNumPerfEvents;
                     ++i) {
                    const auto event = static_cast<PerfEvent>(i);
                    EXPECT_EQ(stepped.get(event), simulated.get(event))
                        << counters::perfEventName(event);
                }
                EXPECT_EQ(std::bit_cast<std::uint64_t>(
                              cells[c]->core().cycles()),
                          std::bit_cast<std::uint64_t>(
                              owns[c]->core().cycles()));
            }
        }
        EXPECT_GT(owns[0]->snapshot().get(PerfEvent::RssBytes), 0u);
        // Each sibling ran its own predictor, not the leader's.
        for (std::size_t c = 1; c < configs.size(); ++c)
            EXPECT_NE(
                cells[c]->snapshot().get(PerfEvent::BrMispExecAllBranches),
                cells[0]->snapshot().get(PerfEvent::BrMispExecAllBranches));
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
