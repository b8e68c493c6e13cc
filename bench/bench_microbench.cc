/**
 * @file
 * Google-benchmark micro-benchmarks of the framework's hot paths:
 * cache access, branch prediction, trace generation and read-ahead,
 * full-simulator throughput, the core model's retire pass, PCA, and
 * agglomerative clustering at the study's problem sizes. These guard
 * the "fast enough to sweep 194 pairs" property the result cache and
 * benches rely on.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "cluster/hierarchical.hh"
#include "sim/simulator.hh"
#include "stats/pca.hh"
#include "trace/read_ahead.hh"
#include "trace/synthetic.hh"
#include "util/random.hh"
#include "workloads/builder.hh"

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

/**
 * The consumer thread's wall time per op, pulling one ref pair's
 * 1.3 M-op trace (ref17_sweep's sample plus warmup) in 256-op pulls
 * the way the simulator's batched lane does: from the bare generator
 * (arg 0) or read a block ahead on a helper thread (arg 1). Per op the
 * consumer folds a fixed chain of dependent multiplies over the op's
 * lanes, standing in for simulation, so the helper has time to run
 * ahead; the difference between the two is the generation the
 * consumer no longer pays. The generator's construction is untimed.
 */
void
BM_ReadAheadPull(benchmark::State &state)
{
    const auto &suite = workloads::cpu2017Suite();
    const workloads::AppInputPair pair{
        &workloads::findProfile(suite, "505.mcf_r"),
        workloads::InputSize::Ref, 0};
    workloads::BuildOptions build;
    build.sampleOps = 1'300'000;
    const trace::SyntheticTraceParams params =
        workloads::buildTraceParams(pair, build);
    constexpr std::size_t kPull = 256;
    trace::MicroOpBatch staging;
    staging.ensure(kPull);
    std::uint64_t ops = 0;
    std::uint64_t fold = 0;
    for (auto _ : state) {
        state.PauseTiming();
        std::shared_ptr<trace::TraceSource> source =
            std::make_shared<trace::SyntheticTraceGenerator>(params);
        if (state.range(0) != 0)
            source = std::make_shared<trace::ReadAheadSource>(source);
        state.ResumeTiming();
        while (true) {
            std::size_t at = 0;
            std::size_t got = 0;
            const trace::MicroOpBatch *lanes =
                source->nextLanes(kPull, at, got);
            if (lanes == nullptr) {
                at = 0;
                got = source->nextBatchSoA(staging, 0, kPull);
                lanes = &staging;
            }
            for (std::size_t i = at; i < at + got; ++i) {
                std::uint64_t x = lanes->pc[i] ^ lanes->operand[i]
                    ^ static_cast<std::uint64_t>(lanes->cls[i]);
                for (int round = 0; round < 24; ++round)
                    x = x * 0x9e3779b97f4a7c15ULL + fold;
                fold ^= x;
            }
            ops += got;
            if (got < kPull)
                break;
        }
        state.PauseTiming();
        source.reset();
        state.ResumeTiming();
    }
    benchmark::DoNotOptimize(fold);
    state.counters["ns_per_op"] = benchmark::Counter(
        static_cast<double>(ops) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ReadAheadPull)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

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

/**
 * The retire pass's inputs: 4096 ops of real generator lanes (class
 * and flags) with fixed memory-side lanes and @p cores mispredict
 * lanes. Loads hit L1 in 4 cycles; every 8th misses to L2, every 64th
 * goes to DRAM; every 16th op's branch mispredicts, core k's lane
 * shifted by k ops.
 */
struct RetireLanes
{
    static constexpr std::size_t kOps = 4096;

    explicit RetireLanes(std::size_t cores)
        : memLatency(kOps, 0), fetchStall(kOps, 0), l1Miss(kOps, 0),
          dram(kOps, 0),
          mispredicted(cores, std::vector<std::uint8_t>(kOps, 0))
    {
        trace::SyntheticTraceParams params;
        params.numOps = kOps;
        params.regions = {
            {trace::AccessPattern::Random, 1 << 20, 64, 1.0, 1.0},
        };
        trace::SyntheticTraceGenerator gen(params);
        gen.nextBatchSoA(lanes, 0, kOps);
        for (std::size_t i = 0; i < kOps; ++i) {
            if (lanes.cls[i] == isa::UopClass::Load) {
                memLatency[i] = i % 64 == 0 ? 200 : i % 8 == 0 ? 12 : 4;
                l1Miss[i] = i % 8 == 0;
                dram[i] = i % 64 == 0;
            } else if (lanes.cls[i] == isa::UopClass::Branch) {
                for (std::size_t k = 0; k < cores; ++k)
                    mispredicted[k][i] = (i + k) % 16 == 0;
            }
        }
    }

    trace::MicroOpBatch lanes;
    std::vector<unsigned> memLatency;
    std::vector<unsigned> fetchStall;
    std::vector<std::uint8_t> l1Miss;
    std::vector<std::uint8_t> dram;
    std::vector<std::vector<std::uint8_t>> mispredicted;
};

void
BM_RetireBatch(benchmark::State &state)
{
    // The retire pass alone, one core over RetireLanes.
    const RetireLanes in(1);
    sim::CoreModel core{sim::CoreParams{}};
    for (auto _ : state) {
        core.retireBatch(in.lanes.cls.data(), in.lanes.flags.data(),
                         in.memLatency.data(), in.l1Miss.data(),
                         in.fetchStall.data(), in.mispredicted[0].data(),
                         in.dram.data(), RetireLanes::kOps);
        benchmark::DoNotOptimize(core.cycles());
    }
    state.SetItemsProcessed(state.iterations() * RetireLanes::kOps);
}
BENCHMARK(BM_RetireBatch);

void
BM_RetireGroup(benchmark::State &state)
{
    // A clone group's retire: five cores over the same RetireLanes,
    // each with its own mispredict lane, in one op-major pass. Items
    // are cell-ops, comparable with BM_RetireBatch's ops.
    constexpr std::size_t kCores = 5;
    const RetireLanes in(kCores);
    // Each model owns its bus: a group's cores may not share one.
    std::vector<sim::CoreModel> models;
    models.reserve(kCores);
    std::vector<sim::CoreModel *> cores;
    std::vector<const std::uint8_t *> mispredicted;
    for (std::size_t k = 0; k < kCores; ++k) {
        cores.push_back(&models.emplace_back(sim::CoreParams{}));
        mispredicted.push_back(in.mispredicted[k].data());
    }
    for (auto _ : state) {
        sim::CoreModel::retireGroup(cores, mispredicted, in.lanes.cls.data(),
                                    in.lanes.flags.data(),
                                    in.memLatency.data(), in.l1Miss.data(),
                                    in.fetchStall.data(), in.dram.data(),
                                    RetireLanes::kOps);
        benchmark::DoNotOptimize(models.back().cycles());
    }
    state.SetItemsProcessed(state.iterations() * RetireLanes::kOps * kCores);
    state.counters["per_cell_op"] = benchmark::Counter(
        static_cast<double>(RetireLanes::kOps * kCores),
        benchmark::Counter::kIsIterationInvariantRate
            | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RetireGroup);

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
