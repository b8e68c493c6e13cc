/**
 * @file
 * Fault-isolated suite execution: one bad pair must never sink a
 * sweep. Exercises the failure boundary (injected throws, watchdog
 * expiry), the retry policy (transient failures, attempt history,
 * determinism), and crash-safe checkpointed sweeps (resume from the
 * journal, torn-tail quarantine, byte-identical final results).
 */

#include "suite/result_cache.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/metrics.hh"
#include "suite/arena_store.hh"
#include "suite/fanout.hh"
#include "util/units.hh"

namespace spec17 {
namespace suite {
namespace {

using workloads::InputSize;

RunnerOptions
fastOptions()
{
    RunnerOptions options;
    options.sampleOps = 60000;
    options.warmupOps = 20000;
    return options;
}

std::string
tempBase(const char *tag)
{
    return std::string(::testing::TempDir()) + "/spec17_fault_" + tag;
}

std::vector<std::string>
pairNames(InputSize size)
{
    std::vector<std::string> names;
    for (const auto &pair :
         enumeratePairs(workloads::cpu2006Suite(), size))
        names.push_back(pair.displayName());
    return names;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(FaultIsolation, InjectedThrowIsContainedToOnePair)
{
    const auto names = pairNames(InputSize::Test);
    const std::string &victim = names[names.size() / 2];

    ScriptedFaultInjector injector;
    injector.set(victim, 0, FaultInjector::Action::Throw);
    RunnerOptions options = fastOptions();
    options.faultInjector = &injector;
    SuiteRunner runner(options);

    const auto results =
        ResultCache("").runOrLoad(runner, workloads::cpu2006Suite(),
                                  InputSize::Test);
    ASSERT_EQ(results.size(), names.size());
    for (const auto &result : results) {
        if (result.name == victim) {
            EXPECT_TRUE(result.errored);
            EXPECT_EQ(result.attempts, 1u);
            ASSERT_NE(result.finalFailure(), nullptr);
            EXPECT_EQ(result.finalFailure()->category,
                      FailureCategory::Injected);
            EXPECT_FALSE(result.finalFailure()->message.empty());
        } else {
            EXPECT_FALSE(result.errored) << result.name;
            EXPECT_TRUE(result.failures.empty()) << result.name;
            EXPECT_GT(result.counters.get(
                          counters::PerfEvent::InstRetiredAny),
                      0u)
                << result.name;
        }
    }

    // Downstream, the errored pair drops out of aggregate analysis
    // exactly like the paper's uncollectable benchmarks.
    const auto aggregate =
        core::withoutErrored(core::deriveMetrics(results));
    EXPECT_EQ(aggregate.size(), names.size() - 1);
    for (const auto &m : aggregate)
        EXPECT_NE(m.name, victim);
}

TEST(FaultIsolation, RetryRecoversTransientFailure)
{
    const auto names = pairNames(InputSize::Test);
    const std::string &flaky = names.front();

    ScriptedFaultInjector injector;
    injector.failFirstAttempts(flaky, 1);
    RunnerOptions options = fastOptions();
    options.faultInjector = &injector;
    options.maxRetries = 2;
    SuiteRunner runner(options);

    const auto results =
        ResultCache("").runOrLoad(runner, workloads::cpu2006Suite(),
                                  InputSize::Test);
    const auto &recovered = results.front();
    ASSERT_EQ(recovered.name, flaky);
    EXPECT_FALSE(recovered.errored);
    EXPECT_TRUE(recovered.recovered());
    EXPECT_EQ(recovered.attempts, 2u);
    ASSERT_EQ(recovered.failures.size(), 1u);
    EXPECT_EQ(recovered.failures[0].attempt, 0u);
    EXPECT_EQ(recovered.failures[0].category,
              FailureCategory::Injected);
    EXPECT_GT(recovered.counters.get(
                  counters::PerfEvent::InstRetiredAny),
              0u);
}

TEST(FaultIsolation, ExhaustedRetriesErrorThePairWithFullHistory)
{
    const auto names = pairNames(InputSize::Test);
    const std::string &doomed = names.back();

    ScriptedFaultInjector injector;
    injector.failFirstAttempts(doomed, 5);
    RunnerOptions options = fastOptions();
    options.faultInjector = &injector;
    options.maxRetries = 1;
    SuiteRunner runner(options);

    const auto result = runner.runPair(
        enumeratePairs(workloads::cpu2006Suite(), InputSize::Test)
            .back());
    EXPECT_TRUE(result.errored);
    EXPECT_EQ(result.attempts, 2u);
    ASSERT_EQ(result.failures.size(), 2u);
    EXPECT_EQ(result.failures[0].attempt, 0u);
    EXPECT_EQ(result.failures[1].attempt, 1u);
    ASSERT_NE(result.finalFailure(), nullptr);
    EXPECT_EQ(result.finalFailure(), &result.failures.back());
}

TEST(FaultIsolation, BadProfileFailsFastWithoutRetries)
{
    // A malformed profile fails every attempt identically, so the
    // runner must not burn the retry budget (or sleep its backoff)
    // re-diagnosing it.
    workloads::WorkloadProfile broken = workloads::cpu2017Suite().front();
    broken.loadFrac = 1.5;
    RunnerOptions options = fastOptions();
    options.maxRetries = 3;
    options.retryBackoffMs = 10;
    SuiteRunner runner(options);

    const auto result =
        runner.runPair({&broken, InputSize::Test, 0});
    EXPECT_TRUE(result.errored);
    EXPECT_EQ(result.attempts, 1u);
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0].category,
              FailureCategory::BadProfile);
    ASSERT_NE(result.finalFailure(), nullptr);
    EXPECT_NE(result.finalFailure()->message.find("loadFrac"),
              std::string::npos);
}

TEST(FaultIsolation, NonFinitePaperScaleTimeFailsTheAttempt)
{
    // Journals hold finite doubles only. A profile whose paper-scale
    // instruction count overflows (finite factors, an infinite
    // product) is malformed: it fails up front as one BadProfile
    // record, before any window is simulated, and is not retried.
    workloads::WorkloadProfile huge = workloads::cpu2006Suite().front();
    huge.refInstrBillions = 1e300;
    huge.testScale = 1e10;
    RunnerOptions options = fastOptions();
    options.maxRetries = 2;
    const PairResult result =
        SuiteRunner(options).runPair({&huge, InputSize::Test, 0});
    EXPECT_TRUE(result.errored);
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0].category, FailureCategory::BadProfile);
    EXPECT_NE(result.failures[0].message.find("not finite"),
              std::string::npos);
}

TEST(FaultIsolation, OverflowingPaperScaleTimeFailsTheAttempt)
{
    // A well-formed profile can still overflow the paper-scale time,
    // CPI x instructions / clock, because the clock is the system's:
    // an instruction count near the double limit on a 1 uHz clock
    // fails its attempt as an invariant violation rather than journal
    // an `inf` cell that no reader accepts.
    workloads::WorkloadProfile huge = workloads::cpu2006Suite().front();
    huge.refInstrBillions = 1e299;
    ASSERT_EQ(huge.validationError(), "");
    RunnerOptions options = fastOptions();
    options.system.core.frequencyGHz = 1e-15;
    const PairResult result =
        SuiteRunner(options).runPair({&huge, InputSize::Test, 0});
    EXPECT_TRUE(result.errored);
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0].category, FailureCategory::Invariant);
    EXPECT_NE(result.failures[0].message.find("not finite"),
              std::string::npos);
}

TEST(FaultIsolation, StalledGenerationTripsTheOpBudgetWatchdog)
{
    const auto pairs =
        enumeratePairs(workloads::cpu2006Suite(), InputSize::Test);
    const std::string victim = pairs.front().displayName();

    // The runaway trace runs to 4x the budget; the attempt's chunks
    // stop at the budget's first op past it, at any batch size.
    for (const std::uint64_t batch : {1u, 7u, 256u}) {
        SCOPED_TRACE(::testing::Message() << "batchOps=" << batch);
        ScriptedFaultInjector injector;
        injector.set(victim, 0, FaultInjector::Action::Stall);
        RunnerOptions options = fastOptions();
        options.faultInjector = &injector;
        options.pairDeadlineOps = 200000; // > sample + warmup
        options.batchOps = batch;
        SuiteRunner runner(options);

        const auto result = runner.runPair(pairs.front());
        EXPECT_TRUE(result.errored);
        ASSERT_NE(result.finalFailure(), nullptr);
        EXPECT_EQ(result.finalFailure()->category,
                  FailureCategory::Deadline);
        EXPECT_EQ(result.finalFailure()->opsCompleted,
                  options.pairDeadlineOps + 1);

        // The same budget leaves healthy pairs untouched.
        const auto healthy = runner.runPair(pairs.back());
        EXPECT_FALSE(healthy.errored);
    }
}

TEST(FaultIsolation, ThreadedPairsCheckTheOpBudgetUpFront)
{
    // A threaded pair's interleaver runs to completion in one call, so
    // its op budget is compared once, before the machine is built,
    // with the static sample + warmup total: the Deadline record
    // carries that total, not budget + 1.
    const auto pairs =
        enumeratePairs(workloads::cpu2017Suite(), InputSize::Test);
    const auto threaded =
        std::find_if(pairs.begin(), pairs.end(), [](const auto &pair) {
            return pair.displayName() == "657.xz_s-in1";
        });
    ASSERT_NE(threaded, pairs.end());
    ASSERT_EQ(threaded->profile->numThreads, 4u);

    RunnerOptions options = fastOptions();
    options.pairDeadlineOps = 50000;
    const PairResult result = SuiteRunner(options).runPair(*threaded);
    EXPECT_TRUE(result.errored);
    EXPECT_EQ(result.attempts, 1u);
    ASSERT_EQ(result.failures.size(), 1u);
    const FailureRecord &failure = result.failures.front();
    EXPECT_EQ(failure.category, FailureCategory::Deadline);
    EXPECT_EQ(failure.attempt, 0u);
    EXPECT_EQ(failure.opsCompleted,
              options.sampleOps + options.warmupOps);
    EXPECT_EQ(failure.message,
              "op budget expired: 80000 > 50000 micro-ops");
}

TEST(FaultIsolation, GroupedCellsTripTheOpBudgetAtBudgetPlusOne)
{
    // Two sessions that differ only in the branch predictor form one
    // clone group: with a store, the leader and its lane-importing
    // sibling step each pair in lockstep, and both trip a budget below
    // sample + warmup mid-window. Every cell must carry the store-less
    // sweep's Deadline records, each at budget + 1: the lockstep cell
    // is attempt 0, and a retry (with its perturbed seed) runs in the
    // session's runPair. No cell is simulated a second time over the
    // row's arena, so the store never serves a hit.
    const auto &suite = workloads::cpu2006Suite();
    for (const unsigned retries : {0u, 1u}) {
        SCOPED_TRACE(::testing::Message() << "maxRetries=" << retries);
        RunnerOptions gshare = fastOptions();
        gshare.pairDeadlineOps = 50000;
        gshare.maxRetries = retries;
        gshare.system.branchPredictor = "gshare";
        RunnerOptions tournament = gshare;
        tournament.system.branchPredictor = "tournament";
        const auto sweep = [&](TraceArenaStore *store, unsigned jobs) {
            RunnerOptions a = gshare, b = tournament;
            a.arenaStore = b.arenaStore = store;
            a.jobs = b.jobs = jobs;
            const SuiteRunner runner_a(a), runner_b(b);
            ResultCache journal_a(""), journal_b("");
            return runFanoutSweep({{runner_a, journal_a, {}},
                                   {runner_b, journal_b, {}}},
                                  suite, InputSize::Test);
        };

        const auto reference = sweep(nullptr, 1);
        ASSERT_EQ(reference.size(), 2u);
        for (const unsigned jobs : {1u, 8u}) {
            SCOPED_TRACE(::testing::Message() << "jobs=" << jobs);
            TraceArenaStore store(512 * kMiB);
            const auto sessions = sweep(&store, jobs);
            ASSERT_EQ(sessions.size(), 2u);
            for (std::size_t s = 0; s < 2; ++s) {
                ASSERT_EQ(sessions[s].size(), reference[s].size());
                ASSERT_FALSE(sessions[s].empty());
                for (std::size_t i = 0; i < sessions[s].size(); ++i) {
                    const PairResult &cell = sessions[s][i];
                    const PairResult &alone = reference[s][i];
                    SCOPED_TRACE(cell.name);
                    EXPECT_TRUE(cell.errored);
                    EXPECT_EQ(cell.attempts, retries + 1);
                    ASSERT_EQ(cell.failures.size(), retries + 1);
                    ASSERT_EQ(alone.failures.size(), retries + 1);
                    for (unsigned f = 0; f <= retries; ++f) {
                        const FailureRecord &got = cell.failures[f];
                        const FailureRecord &want = alone.failures[f];
                        EXPECT_EQ(got.category, FailureCategory::Deadline);
                        EXPECT_EQ(got.attempt, f);
                        EXPECT_EQ(got.opsCompleted,
                                  gshare.pairDeadlineOps + 1);
                        EXPECT_EQ(got.category, want.category);
                        EXPECT_EQ(got.message, want.message);
                        EXPECT_EQ(got.attempt, want.attempt);
                        EXPECT_EQ(got.opsCompleted, want.opsCompleted);
                    }
                }
            }
            EXPECT_EQ(store.stats().hits, 0u);
        }
    }
}

TEST(FaultIsolation, ArmedAttemptsReplayHeldTracesButNeverCapture)
{
    // An attempt replays only what the store already holds, even with
    // the fault layer and a deadline armed. A runaway or a retry has
    // its own trace (a longer one, a perturbed seed), so both generate
    // live under the watchdog and leave the store untouched.
    const auto pairs =
        enumeratePairs(workloads::cpu2006Suite(), InputSize::Test);
    const auto &victim = pairs.front();
    const auto &healthy = pairs.back();

    ScriptedFaultInjector injector;
    injector.set(victim.displayName(), 0, FaultInjector::Action::Stall);
    RunnerOptions options = fastOptions();
    options.faultInjector = &injector;
    options.pairDeadlineOps = 200000; // > sample + warmup
    options.maxRetries = 1;
    const SuiteRunner live(options);

    TraceArenaStore store(64 * kMiB);
    const workloads::BuildOptions build = attemptBuildOptions(options, 0);
    for (const auto *pair : {&victim, &healthy})
        store.acquire(workloads::buildTraceParams(*pair, build, 0));
    options.arenaStore = &store;
    const SuiteRunner replaying(options);

    for (const auto *pair : {&victim, &healthy}) {
        SCOPED_TRACE(pair->displayName());
        const PairResult expected = live.runPair(*pair);
        const PairResult got = replaying.runPair(*pair);
        // The victim stalled, then recovered on its retry.
        EXPECT_FALSE(got.errored);
        EXPECT_EQ(got.failures.size(), pair == &victim ? 1u : 0u);
        EXPECT_EQ(got.attempts, expected.attempts);
        ASSERT_EQ(got.failures.size(), expected.failures.size());
        for (std::size_t f = 0; f < got.failures.size(); ++f) {
            EXPECT_EQ(got.failures[f].category,
                      expected.failures[f].category);
            EXPECT_EQ(got.failures[f].opsCompleted,
                      expected.failures[f].opsCompleted);
        }
        for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
            const auto event = static_cast<counters::PerfEvent>(e);
            EXPECT_EQ(got.counters.get(event),
                      expected.counters.get(event));
        }
    }
    // Only the healthy pair replayed its held trace; the victim's
    // runaway and retry read neither held trace, and nothing was
    // captured beyond the two acquires above.
    const TraceArenaStore::Stats stats = store.stats();
    EXPECT_EQ(stats.captures, 2u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.hits, 1u);
}

TEST(FaultIsolation, RetryConfigDoesNotPerturbFaultFreeResults)
{
    // Attempt 0 always runs with the unperturbed seed, so enabling
    // the fault-isolation machinery must be invisible to a healthy
    // sweep.
    SuiteRunner plain(fastOptions());
    RunnerOptions guarded_options = fastOptions();
    guarded_options.maxRetries = 3;
    guarded_options.pairDeadlineOps = 100'000'000;
    SuiteRunner guarded(guarded_options);

    const auto baseline =
        ResultCache("").runOrLoad(plain, workloads::cpu2006Suite(),
                                  InputSize::Test);
    const auto isolated =
        ResultCache("").runOrLoad(guarded, workloads::cpu2006Suite(),
                                  InputSize::Test);
    ASSERT_EQ(baseline.size(), isolated.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(baseline[i].name, isolated[i].name);
        EXPECT_EQ(isolated[i].attempts, 1u);
        for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
            const auto event = static_cast<counters::PerfEvent>(e);
            EXPECT_EQ(baseline[i].counters.get(event),
                      isolated[i].counters.get(event))
                << baseline[i].name;
        }
    }
}

/** Truncates the journal at @p base to its first @p keep_rows rows. */
void
truncateJournal(const std::string &file, std::size_t keep_rows)
{
    std::ifstream in(file);
    ASSERT_TRUE(in.good());
    std::string line, kept;
    for (std::size_t i = 0; i < keep_rows + 2; ++i) {
        ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
        kept += line + "\n";
    }
    in.close();
    std::ofstream out(file, std::ios::trunc);
    out << kept;
}

TEST(FaultIsolation, ResumeReplaysJournalWithoutResimulating)
{
    const std::string base = tempBase("resume");
    const std::string file = base + ".cpu2006.test.csv";
    const auto &suite = workloads::cpu2006Suite();
    SuiteRunner runner(fastOptions());

    ResultCache cache(base);
    cache.invalidate();
    const auto golden = cache.runOrLoad(runner, suite, InputSize::Test);
    const std::string golden_bytes = fileBytes(file);
    ASSERT_FALSE(golden_bytes.empty());

    // Simulate a sweep killed after 11 completed pairs: thanks to the
    // per-pair atomic commits, the survivor file is exactly a valid
    // prefix of the journal.
    constexpr std::size_t kCompleted = 11;
    truncateJournal(file, kCompleted);

    // The probe injector never fires; its consultation log records
    // which pairs the resumed sweep actually simulated.
    ScriptedFaultInjector probe;
    RunnerOptions probe_options = fastOptions();
    probe_options.faultInjector = &probe;
    SuiteRunner probe_runner(probe_options);

    ResultCache resumed(base, /*resume=*/true);
    const auto results =
        resumed.runOrLoad(probe_runner, suite, InputSize::Test);

    const auto names = pairNames(InputSize::Test);
    ASSERT_EQ(results.size(), names.size());
    ASSERT_EQ(probe.consulted().size(), names.size() - kCompleted);
    for (std::size_t i = 0; i < probe.consulted().size(); ++i)
        EXPECT_EQ(probe.consulted()[i].first, names[kCompleted + i]);

    // Replayed prefix + re-simulated suffix must be byte-identical to
    // the uninterrupted sweep -- results and journal alike.
    EXPECT_EQ(fileBytes(file), golden_bytes);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].name, golden[i].name);
        EXPECT_DOUBLE_EQ(results[i].seconds, golden[i].seconds);
        for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
            const auto event = static_cast<counters::PerfEvent>(e);
            EXPECT_EQ(results[i].counters.get(event),
                      golden[i].counters.get(event));
        }
    }
    resumed.invalidate();
}

TEST(FaultIsolation, TornJournalTailIsQuarantinedOnResume)
{
    const std::string base = tempBase("torn");
    const std::string file = base + ".cpu2006.test.csv";
    const auto &suite = workloads::cpu2006Suite();
    SuiteRunner runner(fastOptions());

    ResultCache cache(base);
    cache.invalidate();
    cache.runOrLoad(runner, suite, InputSize::Test);
    const std::string golden_bytes = fileBytes(file);

    // A crash mid-write of pre-atomic-commit vintage: valid rows
    // followed by half a row.
    truncateJournal(file, 7);
    {
        std::ofstream out(file, std::ios::app);
        out << "458.sjeng,0,0,1,-,73";
    }

    ScriptedFaultInjector probe;
    RunnerOptions probe_options = fastOptions();
    probe_options.faultInjector = &probe;
    SuiteRunner probe_runner(probe_options);
    ResultCache resumed(base, /*resume=*/true);
    const auto results =
        resumed.runOrLoad(probe_runner, suite, InputSize::Test);

    const auto names = pairNames(InputSize::Test);
    ASSERT_EQ(results.size(), names.size());
    // The 7 intact rows resumed; the torn eighth re-simulated.
    EXPECT_EQ(probe.consulted().size(), names.size() - 7);
    EXPECT_EQ(fileBytes(file), golden_bytes);
    resumed.invalidate();
}

TEST(FaultIsolation, ErroredPairsRoundTripThroughTheJournal)
{
    const std::string base = tempBase("errored_rt");
    const auto &suite = workloads::cpu2006Suite();
    const auto names = pairNames(InputSize::Test);
    const std::string &victim = names[3];

    ScriptedFaultInjector injector;
    injector.failFirstAttempts(victim, 2);
    RunnerOptions options = fastOptions();
    options.faultInjector = &injector;
    options.maxRetries = 1;
    SuiteRunner runner(options);

    ResultCache cache(base);
    cache.invalidate();
    const auto fresh = cache.runOrLoad(runner, suite, InputSize::Test);
    const auto reloaded =
        cache.runOrLoad(runner, suite, InputSize::Test);

    ASSERT_EQ(fresh.size(), reloaded.size());
    const auto &cached_victim = reloaded[3];
    ASSERT_EQ(cached_victim.name, victim);
    EXPECT_TRUE(cached_victim.errored);
    EXPECT_EQ(cached_victim.attempts, 2u);
    ASSERT_EQ(cached_victim.failures.size(), 2u);
    EXPECT_EQ(cached_victim.failures[1].category,
              FailureCategory::Injected);
    EXPECT_EQ(cached_victim.failures[1].attempt, 1u);
    cache.invalidate();
}

TEST(FaultIsolation, FailureHistorySerializationRoundTrips)
{
    std::vector<FailureRecord> records = {
        {FailureCategory::Deadline, "op budget expired: 9 > 8", 0, 9},
        {FailureCategory::Exception, "weird, chars | here @ end", 1, 0},
    };
    const std::string cell = serializeFailures(records);
    EXPECT_EQ(cell.find(','), std::string::npos);
    const auto parsed = parseFailures(cell);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->size(), 2u);
    EXPECT_EQ((*parsed)[0].category, FailureCategory::Deadline);
    EXPECT_EQ((*parsed)[0].opsCompleted, 9u);
    EXPECT_EQ((*parsed)[1].attempt, 1u);
    // Sanitized message survives a second round trip unchanged.
    EXPECT_EQ(serializeFailures(*parsed), cell);

    EXPECT_TRUE(parseFailures("-").has_value());
    EXPECT_TRUE(parseFailures("-")->empty());
    EXPECT_FALSE(parseFailures("nonsense").has_value());
    EXPECT_FALSE(parseFailures("deadline@x@0@msg").has_value());

    // Numbers no writer emits are rejected, never wrapped, widened or
    // read as 0: empty fields, signs, blanks and values past the
    // field's width.
    for (const char *bad :
         {"deadline@@@x", "deadline@4294967296@5@x", "deadline@-1@-1@x",
          "deadline@+1@5@x", "deadline@ 1@5@x", "deadline@0@-1@x",
          "deadline@0@18446744073709551616@x"})
        EXPECT_FALSE(parseFailures(bad).has_value()) << bad;
    const auto widest =
        parseFailures("deadline@4294967295@18446744073709551615@x");
    ASSERT_TRUE(widest.has_value());
    EXPECT_EQ(widest->front().attempt, 4294967295u);
    EXPECT_EQ(widest->front().opsCompleted, 18446744073709551615u);
}

} // namespace
} // namespace suite
} // namespace spec17
