/**
 * @file
 * Google-benchmark micro-benchmarks of the framework's hot paths:
 * cache access, branch prediction, full-simulator throughput, the
 * core model's retire pass, PCA, and agglomerative clustering at the
 * study's problem sizes. These guard the "fast enough to sweep 194
 * pairs" property the result cache and benches rely on.
 */

#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "cluster/hierarchical.hh"
#include "sim/simulator.hh"
#include "stats/pca.hh"
#include "trace/synthetic.hh"
#include "util/random.hh"

using namespace spec17;

namespace {

void
BM_CacheAccessL1Resident(benchmark::State &state)
{
    sim::CacheConfig config;
    config.sizeBytes = 32 * 1024;
    config.assoc = 8;
    sim::SetAssocCache cache(config);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.nextBounded(16 * 1024), false));
    }
}
BENCHMARK(BM_CacheAccessL1Resident);

void
BM_CacheAccessThrashing(benchmark::State &state)
{
    sim::CacheConfig config;
    config.sizeBytes = 32 * 1024;
    config.assoc = 8;
    sim::SetAssocCache cache(config);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.nextBounded(64 * 1024 * 1024), false));
    }
}
BENCHMARK(BM_CacheAccessThrashing);

void
BM_TournamentPredictor(benchmark::State &state)
{
    sim::TournamentPredictor predictor;
    Rng rng(2);
    std::uint64_t pc = 0x400000;
    for (auto _ : state) {
        const bool taken = rng.nextBernoulli(0.7);
        benchmark::DoNotOptimize(predictor.predict(pc));
        predictor.update(pc, taken);
        pc = 0x400000 + rng.nextBounded(4096) * 4;
    }
}
BENCHMARK(BM_TournamentPredictor);

void
BM_SyntheticTraceGeneration(benchmark::State &state)
{
    trace::SyntheticTraceParams params;
    params.numOps = ~std::uint64_t(0) >> 1;
    params.regions = {
        {trace::AccessPattern::Random, 1 << 20, 64, 1.0, 1.0},
    };
    trace::SyntheticTraceGenerator gen(params);
    isa::MicroOp op;
    for (auto _ : state) {
        gen.next(op);
        benchmark::DoNotOptimize(op);
    }
}
BENCHMARK(BM_SyntheticTraceGeneration);

void
BM_SimulatorThroughput(benchmark::State &state)
{
    trace::SyntheticTraceParams params;
    params.numOps = ~std::uint64_t(0) >> 1;
    params.regions = {
        {trace::AccessPattern::Random, 16 * 1024, 64, 0.9, 0.9},
        {trace::AccessPattern::Random, 8 << 20, 64, 0.1, 0.1},
    };
    trace::SyntheticTraceGenerator gen(params);
    sim::CpuSimulator simulator(
        sim::SystemConfig::haswellXeonE52650Lv3());
    for (auto _ : state)
        simulator.step(gen, 1024);
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SimulatorThroughput);

void
BM_RetireBatch(benchmark::State &state)
{
    // The retire pass alone: 4096 ops of real generator lanes (class
    // and flags) with fixed memory-side and mispredict
    // lanes. Loads hit L1 in 4 cycles; every 8th misses to L2, every
    // 64th goes to DRAM; every 16th op's branch mispredicts.
    constexpr std::size_t kOps = 4096;
    trace::SyntheticTraceParams params;
    params.numOps = kOps;
    params.regions = {
        {trace::AccessPattern::Random, 1 << 20, 64, 1.0, 1.0},
    };
    trace::SyntheticTraceGenerator gen(params);
    trace::MicroOpBatch lanes;
    gen.nextBatchSoA(lanes, 0, kOps);
    std::vector<unsigned> mem_latency(kOps, 0);
    std::vector<unsigned> fetch_stall(kOps, 0);
    std::vector<std::uint8_t> l1_miss(kOps, 0);
    std::vector<std::uint8_t> mispredicted(kOps, 0);
    std::vector<std::uint8_t> dram(kOps, 0);
    for (std::size_t i = 0; i < kOps; ++i) {
        if (lanes.cls[i] == isa::UopClass::Load) {
            mem_latency[i] = i % 64 == 0 ? 200 : i % 8 == 0 ? 12 : 4;
            l1_miss[i] = i % 8 == 0;
            dram[i] = i % 64 == 0;
        } else if (lanes.cls[i] == isa::UopClass::Branch) {
            mispredicted[i] = i % 16 == 0;
        }
    }
    sim::CoreModel core{sim::CoreParams{}};
    for (auto _ : state) {
        core.retireBatch(lanes.cls.data(), lanes.flags.data(),
                         mem_latency.data(), l1_miss.data(),
                         fetch_stall.data(), mispredicted.data(),
                         dram.data(), kOps);
        benchmark::DoNotOptimize(core.cycles());
    }
    state.SetItemsProcessed(state.iterations() * kOps);
}
BENCHMARK(BM_RetireBatch);

void
BM_PcaStudySized(benchmark::State &state)
{
    // The study's PCA: 194 observations x 20 characteristics.
    Rng rng(3);
    stats::Matrix data(194, 20);
    for (std::size_t r = 0; r < data.rows(); ++r)
        for (std::size_t c = 0; c < data.cols(); ++c)
            data.at(r, c) = rng.nextGaussian();
    for (auto _ : state) {
        const auto pca = stats::computePca(data);
        benchmark::DoNotOptimize(pca.eigenvalues.front());
    }
}
BENCHMARK(BM_PcaStudySized);

void
BM_AgglomerativeClustering(benchmark::State &state)
{
    // Speed-set sized clustering: ~64 points in 4-D PC space.
    Rng rng(4);
    stats::Matrix points(64, 4);
    for (std::size_t r = 0; r < points.rows(); ++r)
        for (std::size_t c = 0; c < points.cols(); ++c)
            points.at(r, c) = rng.nextGaussian();
    for (auto _ : state) {
        const auto dendrogram =
            cluster::agglomerate(points, cluster::Linkage::Average);
        benchmark::DoNotOptimize(dendrogram.steps().back().distance);
    }
}
BENCHMARK(BM_AgglomerativeClustering);

} // namespace

BENCHMARK_MAIN();
