#include "suite/runner.hh"

#include <gtest/gtest.h>

#include <limits>

#include <sched.h>

#include "suite/result_cache.hh"

namespace spec17 {
namespace suite {
namespace {

using counters::PerfEvent;
using workloads::AppInputPair;
using workloads::InputSize;

RunnerOptions
fastOptions()
{
    RunnerOptions options;
    options.sampleOps = 200000;
    options.warmupOps = 50000;
    return options;
}

AppInputPair
pairFor(const std::string &name, InputSize size = InputSize::Ref,
        unsigned input = 0)
{
    return {&workloads::findProfile(workloads::cpu2017Suite(), name),
            size, input};
}

TEST(Runner, ProducesPlausibleCountersForSingleThreadPair)
{
    SuiteRunner runner(fastOptions());
    const PairResult result = runner.runPair(pairFor("505.mcf_r"));
    EXPECT_EQ(result.name, "505.mcf_r");
    EXPECT_FALSE(result.errored);
    const auto instr = result.counters.get(PerfEvent::InstRetiredAny);
    EXPECT_NEAR(double(instr), 200000.0, 2000.0);
    EXPECT_GT(result.ipc(), 0.1);
    EXPECT_LT(result.ipc(), 4.0);
    EXPECT_GT(result.wallCycles, 0.0);
}

TEST(Runner, MultiThreadPairAggregatesThreads)
{
    SuiteRunner runner(fastOptions());
    const PairResult result = runner.runPair(pairFor("619.lbm_s"));
    const auto instr = result.counters.get(PerfEvent::InstRetiredAny);
    // 4 threads x (sample+warmup)/4 - warmup/4 each ~= sampleOps.
    EXPECT_NEAR(double(instr), 200000.0, 8000.0);
    EXPECT_GT(result.ipc(), 0.01);
}

TEST(Runner, PaperScaleQuantitiesAreReported)
{
    SuiteRunner runner(fastOptions());
    const PairResult result = runner.runPair(pairFor("505.mcf_r"));
    EXPECT_DOUBLE_EQ(result.instrBillions, 1000.0);
    EXPECT_GT(result.seconds, 10.0);     // a real SPEC run is minutes
    EXPECT_LT(result.seconds, 100000.0);
    // Declared footprints survive into the counters.
    const double rss_mib =
        double(result.counters.get(PerfEvent::RssBytes)) / (1 << 20);
    EXPECT_NEAR(rss_mib, 269.5, 1.0);
}

TEST(Runner, ErroredPairsAreFlaggedButStillRun)
{
    SuiteRunner runner(fastOptions());
    const PairResult result = runner.runPair(pairFor("627.cam4_s"));
    EXPECT_TRUE(result.errored);
    EXPECT_GT(result.counters.get(PerfEvent::InstRetiredAny), 0u);
}

TEST(Runner, DeterministicAcrossRunnerInstances)
{
    SuiteRunner a(fastOptions());
    SuiteRunner b(fastOptions());
    const PairResult ra = a.runPair(pairFor("541.leela_r"));
    const PairResult rb = b.runPair(pairFor("541.leela_r"));
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
        const auto event = static_cast<PerfEvent>(e);
        EXPECT_EQ(ra.counters.get(event), rb.counters.get(event))
            << perfEventName(event);
    }
    EXPECT_DOUBLE_EQ(ra.seconds, rb.seconds);
}

TEST(Runner, InputsOfOneAppDifferButModestly)
{
    SuiteRunner runner(fastOptions());
    const PairResult in1 =
        runner.runPair(pairFor("502.gcc_r", InputSize::Ref, 0));
    const PairResult in2 =
        runner.runPair(pairFor("502.gcc_r", InputSize::Ref, 1));
    EXPECT_NE(in1.counters.get(PerfEvent::MemUopsRetiredAllLoads),
              in2.counters.get(PerfEvent::MemUopsRetiredAllLoads));
    EXPECT_NEAR(in1.ipc(), in2.ipc(), in1.ipc() * 0.2);
}

TEST(Runner, TestInputsRunFasterThanRef)
{
    SuiteRunner runner(fastOptions());
    const PairResult test =
        runner.runPair(pairFor("505.mcf_r", InputSize::Test));
    const PairResult ref =
        runner.runPair(pairFor("505.mcf_r", InputSize::Ref));
    EXPECT_LT(test.seconds, ref.seconds);
    EXPECT_LT(test.instrBillions, ref.instrBillions);
}

TEST(Runner, RunAllCoversEveryPair)
{
    SuiteRunner runner(fastOptions());
    const auto results = ResultCache("").runOrLoad(
        runner, workloads::cpu2006Suite(), InputSize::Ref);
    EXPECT_EQ(results.size(), 29u);
}

TEST(Runner, RetryBackoffClampsExponentAndDelay)
{
    // Doubling follows 2^(attempt-1) while it fits...
    EXPECT_EQ(retryBackoffDelayMs(100, 0), 0u);
    EXPECT_EQ(retryBackoffDelayMs(100, 1), 100u);
    EXPECT_EQ(retryBackoffDelayMs(100, 2), 200u);
    EXPECT_EQ(retryBackoffDelayMs(100, 5), 1600u);
    EXPECT_EQ(retryBackoffDelayMs(0, 7), 0u);
    // ...then caps at the ceiling instead of growing without bound.
    EXPECT_EQ(retryBackoffDelayMs(100, 10), 51200u);
    EXPECT_EQ(retryBackoffDelayMs(100, 11), kMaxBackoffDelayMs);
    EXPECT_EQ(retryBackoffDelayMs(1, 16), 32768u);
    EXPECT_EQ(retryBackoffDelayMs(1, 17), kMaxBackoffDelayMs);
    // A retry budget far past the exponent clamp -- where the naive
    // `base << (attempt - 1)` is undefined behaviour -- still yields
    // the same finite, capped delay.
    EXPECT_EQ(retryBackoffDelayMs(1, 100),
              retryBackoffDelayMs(1, 17));
    EXPECT_EQ(retryBackoffDelayMs(100, 1000), kMaxBackoffDelayMs);
    // Huge bases cannot overflow the comparison either.
    EXPECT_EQ(retryBackoffDelayMs(
                  std::numeric_limits<std::uint64_t>::max(), 64),
              kMaxBackoffDelayMs);
}

TEST(Runner, ReadAheadKeepsASpareCpuPerWorker)
{
    // True only on the batched lane of a single-threaded pair whose
    // pool leaves each worker a spare CPU: one worker on 2 or 4 CPUs,
    // two on 4. jobs 0 takes every CPU and so never fits.
    for (unsigned jobs : {0u, 1u, 2u, 4u}) {
        for (unsigned cpus : {1u, 2u, 4u}) {
            for (unsigned threads : {1u, 4u}) {
                for (bool unbatched : {false, true}) {
                    const bool fits = !unbatched && threads == 1
                        && ((jobs == 1 && cpus >= 2)
                            || (jobs == 2 && cpus == 4));
                    EXPECT_EQ(readAheadFits(jobs, cpus, threads, unbatched),
                              fits)
                        << "jobs " << jobs << ", cpus " << cpus
                        << ", threads " << threads << ", unbatched "
                        << unbatched;
                }
            }
        }
    }
}

TEST(Runner, WorkerCountsReadTheAffinityMask)
{
    // Narrow this process to the first CPU it may run on: --jobs=0
    // then starts one worker, and a jobs-1 sweep has no spare CPU for
    // a read-ahead helper.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved))
        ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    RunnerOptions options = fastOptions();
    options.jobs = 1;
    const unsigned cpus = usableCpuCount();
    const unsigned workers = resolveWorkerCount(0, 64);
    const bool ahead = readsAhead(options, 1);
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(cpus, 1u);
    EXPECT_EQ(workers, 1u);
    EXPECT_FALSE(ahead);

    // Restored, the counts follow the whole mask again.
    EXPECT_EQ(usableCpuCount(),
              static_cast<unsigned>(CPU_COUNT(&saved)));
    EXPECT_EQ(readsAhead(options, 1), CPU_COUNT(&saved) >= 2);
}

TEST(Runner, ConfigKeyReflectsOptions)
{
    SuiteRunner a(fastOptions());
    RunnerOptions other = fastOptions();
    other.sampleOps *= 2;
    SuiteRunner b(other);
    EXPECT_NE(a.configKey(), b.configKey());
    SuiteRunner c(fastOptions());
    EXPECT_EQ(a.configKey(), c.configKey());
}

TEST(Runner, ConfigKeyCoversEveryUarchKnob)
{
    // Every semantic microarchitecture knob must change the
    // result-cache config key, or stale journals would replay results
    // from a different machine. Each mutation below is applied on top
    // of whatever knob enables it (describe() prints conditional
    // sections), and must change the key.
    const std::string base = SuiteRunner(fastOptions()).configKey();

    const auto keyOf = [](RunnerOptions options) {
        return SuiteRunner(options).configKey();
    };

    RunnerOptions tage = fastOptions();
    tage.system.branchPredictor = "tage";
    const std::string tage_key = keyOf(tage);
    EXPECT_NE(tage_key, base);
    tage.system.tage.historyTables = 6;
    EXPECT_NE(keyOf(tage), tage_key);

    RunnerOptions stream = fastOptions();
    stream.system.hierarchy.prefetcher = "stream";
    const std::string stream_key = keyOf(stream);
    EXPECT_NE(stream_key, base);
    stream.system.hierarchy.streamDegree = 8;
    const std::string degree_key = keyOf(stream);
    EXPECT_NE(degree_key, stream_key);
    stream.system.hierarchy.streamDistance = 32;
    EXPECT_NE(keyOf(stream), degree_key);

    RunnerOptions l2pf = fastOptions();
    l2pf.system.hierarchy.l2Prefetcher = "stream";
    EXPECT_NE(keyOf(l2pf), base);
    EXPECT_NE(keyOf(l2pf), stream_key); // slot placement matters

    RunnerOptions waypred = fastOptions();
    waypred.system.hierarchy.l1d.wayPredictor = sim::WayPredictor::Mru;
    const std::string mru_key = keyOf(waypred);
    EXPECT_NE(mru_key, base);
    waypred.system.hierarchy.l1d.wayPredictor = sim::WayPredictor::Utag;
    const std::string utag_key = keyOf(waypred);
    EXPECT_NE(utag_key, mru_key);
    waypred.system.hierarchy.l1d.wayMispredictPenalty = 5;
    EXPECT_NE(keyOf(waypred), utag_key);
}

} // namespace
} // namespace suite
} // namespace spec17
