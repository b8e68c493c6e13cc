/**
 * @file
 * Suite execution: runs application-input pairs on the simulator the
 * way the paper runs SPEC under `perf stat` -- each pair on a fresh
 * simulator, collecting the full counter set -- and scales sampled
 * measurements back to paper units (billions of instructions,
 * seconds). Pairs are embarrassingly parallel (every seed derives
 * purely from the root seed and the pair identity), so sweeps can run
 * on a worker pool (RunnerOptions::jobs) while results, journal
 * commits and observer callbacks stay in canonical pair order.
 */

#ifndef SPEC17_SUITE_RUNNER_HH_
#define SPEC17_SUITE_RUNNER_HH_

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "counters/perf_event.hh"
#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "suite/failure.hh"
#include "suite/fault_injection.hh"
#include "telemetry/sampler.hh"
#include "util/logging.hh"
#include "telemetry/sink.hh"
#include "trace/arena.hh"
#include "workloads/builder.hh"
#include "workloads/profile.hh"

namespace spec17 {
namespace suite {

class TraceArenaStore;

/**
 * Installs the steady-state cache residency a long-running process
 * would have built: each data region of @p generator that fits a
 * cache level is pre-filled into that level, and the code footprint
 * into L2/L3. Used by the runner before every measured sample; also
 * useful for standalone experiments that bypass the runner.
 */
void prefillSteadyState(sim::CpuSimulator &core,
                        const trace::SyntheticTraceGenerator &generator);

/**
 * The trace one simulated context consumes. `generator` always
 * exists: prefillSteadyState() reads its region layout without
 * consuming ops. `source` is the stream the simulator pulls -- the
 * generator itself when live, or a ReplaySource over its captured
 * arena. Replay is draw-for-draw identical to live generation, so
 * which one a caller got never shows in results or telemetry.
 */
struct PairTrace
{
    std::shared_ptr<trace::SyntheticTraceGenerator> generator;
    std::shared_ptr<trace::TraceSource> source;
};

/**
 * The one trace factory of the suite and co-run engines: opens the
 * trace for @p params, replaying @p arena at params.addressOffset when
 * one is given and generating live otherwise. The caller's store
 * lookup picks the arena (suite/arena_store.hh): a runner attempt
 * passes find()'s result for the exact params, so it replays only
 * what the store already holds, unshifted, and never captures; the
 * co-run engine passes acquire()'s for the member's context-0 trace,
 * which its solo baseline and every group at every context read, each
 * context shifted to its own address space. With a @p registry, the
 * source's emission counter is registered there as
 * "<prefix>trace.emitted".
 */
PairTrace openTrace(const trace::SyntheticTraceParams &params,
                    std::shared_ptr<const trace::TraceArena> arena,
                    telemetry::MetricsRegistry *registry = nullptr,
                    const std::string &prefix = "");

/**
 * One shard of a sweep campaign: this process runs shard `index` of
 * `count` (both 1-based, `1/1` = the whole sweep). The partition is
 * deterministic round-robin over the canonical pair order -- pair i
 * belongs to shard `(i % count) + 1` -- so shards balance load, any
 * process can compute its slice without coordination, and a merge
 * can reconstruct canonical order from shard identity alone (record
 * j of shard K/N is canonical pair j*N + K-1).
 *
 * Sharding partitions *work*, never results: it is deliberately NOT
 * part of the config key, and merging complete shards reproduces the
 * unsharded journal byte-identically.
 */
struct ShardSpec
{
    unsigned index = 1;
    unsigned count = 1;

    /** True when the sweep is actually split (count > 1). */
    bool active() const { return count > 1; }

    /** "K/N" label, e.g. "2/4". */
    std::string label() const;

    /** Parses "K/N" (1 <= K <= N); nullopt on malformed input. */
    static std::optional<ShardSpec> parse(const std::string &text);
};

/**
 * The slice of @p items belonging to @p shard, in canonical order
 * (round-robin: item i belongs to shard (i % count) + 1). Generic so
 * every campaign type -- suite pairs, co-run groups -- shards with
 * the same deterministic partition the merge toolchain understands.
 */
template <typename T>
std::vector<T>
shardSlice(const std::vector<T> &items, const ShardSpec &shard)
{
    SPEC17_ASSERT(shard.count >= 1 && shard.index >= 1
                      && shard.index <= shard.count,
                  "invalid shard ", shard.index, "/", shard.count);
    if (!shard.active())
        return items;
    std::vector<T> slice;
    slice.reserve(items.size() / shard.count + 1);
    for (std::size_t i = shard.index - 1; i < items.size();
         i += shard.count)
        slice.push_back(items[i]);
    return slice;
}

/** The slice of @p pairs belonging to @p shard, in canonical order. */
std::vector<workloads::AppInputPair> shardPairs(
    const std::vector<workloads::AppInputPair> &pairs,
    const ShardSpec &shard);

/** Worker threads a pool of @p count items actually uses: resolves
 *  jobs == 0 to the hardware concurrency and never exceeds the item
 *  count (minimum 1). */
unsigned resolveWorkerCount(unsigned jobs, std::size_t count);

/**
 * The ordered worker pool every sweep runs on: executes
 * `work(0..count-1)` on @p jobs threads (1 = sequential on the
 * calling thread) and returns results in item order regardless of
 * completion order. @p commit is invoked as `commit(result, index)`
 * strictly in index order and never concurrently -- a completed item
 * is held back until every earlier item has been delivered (lowest-
 * uncommitted-index drain) -- which is what lets journals written
 * from the commit hook always extend a valid prefix, byte-identical
 * to a sequential run at any job count. @p work must be safe to call
 * concurrently from multiple threads for distinct indices.
 */
template <typename Result, typename Work, typename Commit>
std::vector<Result>
runOrderedPool(std::size_t count, unsigned jobs, Work &&work,
               Commit &&commit)
{
    std::vector<Result> results(count);
    jobs = resolveWorkerCount(jobs, count);

    if (jobs <= 1) {
        for (std::size_t i = 0; i < count; ++i) {
            results[i] = work(i);
            commit(results[i], i);
        }
        return results;
    }

    // Each worker pulls the next item index from the shared counter
    // and stores the result into that item's slot, so the result
    // vector is in canonical order no matter which worker finished
    // first; the drain below delivers commits in index order.
    std::atomic<std::size_t> next{0};
    std::mutex commit_mutex;
    std::vector<char> done(count, 0);
    std::size_t committed = 0;

    const auto worker = [&] {
        while (true) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            Result result = work(i);
            std::lock_guard<std::mutex> lock(commit_mutex);
            results[i] = std::move(result);
            done[i] = 1;
            while (committed < count && done[committed]) {
                commit(results[committed], committed);
                ++committed;
            }
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        workers.emplace_back(worker);
    for (std::thread &thread : workers)
        thread.join();
    return results;
}

/** Runner configuration. */
struct RunnerOptions
{
    sim::SystemConfig system = sim::SystemConfig::haswellXeonE52650Lv3();
    /** Micro-ops measured per pair (after warmup). */
    std::uint64_t sampleOps = 2'000'000;
    /** Micro-ops executed before measurement starts (cold caches). */
    std::uint64_t warmupOps = 600'000;
    /** Root seed for all stochastic components. */
    std::uint64_t seed = 0x5bec17;

    /** @name Fault isolation */
    /// @{
    /** Additional attempts after a failed first try (0 = fail fast). */
    unsigned maxRetries = 0;
    /**
     * Watchdog: micro-op budget per attempt, detecting runaway trace
     * generation deterministically. A single-threaded attempt's
     * expiry reports exactly pairDeadlineOps + 1 ops. A threaded pair
     * compares its static sampleOps + warmupOps total with the budget
     * once, before its machine is built, and an expiry reports that
     * total. 0 disables. Must comfortably exceed sampleOps +
     * warmupOps or every pair trips it.
     */
    std::uint64_t pairDeadlineOps = 0;
    /** Watchdog: wall-clock budget per attempt in ms (0 disables);
     *  a single-threaded attempt counts only its own steps, never a
     *  sweep row's other cells'. Catches genuine stalls; unlike the
     *  op budget it is inherently non-deterministic, so keep it
     *  generous. */
    std::uint64_t pairDeadlineMs = 0;
    /** Base delay before retry attempt k of 2^(k-1) * this (ms),
     *  with the exponent clamped (kMaxBackoffExponent) and the delay
     *  capped (kMaxBackoffDelayMs) -- see retryBackoffDelayMs().
     *  0 retries immediately (the deterministic-test default). */
    std::uint64_t retryBackoffMs = 0;
    /** Test-only injection hook; not part of the config key.
     *  Borrowed pointer, nullptr in production. */
    FaultInjector *faultInjector = nullptr;
    /// @}

    /** @name Interval telemetry */
    /// @{
    /**
     * Micro-op sampling interval for per-pair time series (the
     * simulated `perf stat -I`); 0 (default) disables sampling.
     * Sampling is observation-only: aggregate results are
     * byte-identical with it on or off, so it is deliberately NOT
     * part of the config key. Multi-threaded pairs sample in coarse
     * mode: the interleaver's chunks cannot be capped at boundaries
     * (chunk size shapes L3 contention), so rows land at the first
     * chunk end past each boundary instead of exactly on it.
     */
    std::uint64_t sampleIntervalOps = 0;
    /** Where completed series go; borrowed pointer, may stay null to
     *  only populate PairResult::series. Written from worker threads
     *  when jobs > 1, so the sink must be safe for concurrent
     *  callers (the bundled sinks are). */
    telemetry::TelemetrySink *telemetrySink = nullptr;
    /// @}

    /** @name Parallel execution */
    /// @{
    /**
     * Worker threads a sweep runs on (1 = sequential, 0 = hardware
     * concurrency). Results, aggregates and journal commits are
     * byte-identical at any job count -- every pair's seed derives
     * purely from (root seed, profile, size, input) and completions
     * are committed in canonical pair order -- so this is
     * deliberately NOT part of the config key.
     */
    unsigned jobs = 1;
    /// @}

    /** @name Hot-path batching (see docs/performance.md) */
    /// @{
    /**
     * Micro-ops per TraceSource::nextBatchSoA() pull on the
     * simulator's batched fast lane (0 = the simulator default).
     * Purely an execution-strategy knob: results, journals and
     * telemetry are byte-identical at any batch size, so it is
     * deliberately NOT part of the config key.
     */
    std::uint64_t batchOps = 0;
    /**
     * Forces the per-op reference lane (TraceSource::next() plus
     * per-op consume). The golden identity tests and bench_hot_path
     * diff the batched lane against it; also NOT in the config key.
     */
    bool unbatchedStepping = false;
    /// @}

    /** @name Trace capture/replay (see docs/performance.md) */
    /// @{
    /**
     * Capture-once/replay-many arena store. When set, a trace that
     * a second simulation will read is captured once and replayed
     * instead of regenerated: the sweep engine acquires every trace
     * of a row with two or more cells, and runPair() replays whatever
     * the store holds (it never captures; a miss generates live).
     * Replay is draw-for-draw identical to live generation (pinned by
     * the arena golden tests), so the store -- and its budget,
     * eviction and spill knobs -- is an execution strategy and
     * deliberately NOT part of the config key. Borrowed pointer; must
     * outlive the runner and supports concurrent lookups.
     */
    TraceArenaStore *arenaStore = nullptr;
    /// @}
};

/** Retry backoff policy constants (see retryBackoffDelayMs). */
/// @{
/** Largest exponent 2^k the backoff doubling may reach; clamping it
 *  keeps the shift well-defined for any retry count (shifting by the
 *  type width is undefined behaviour). */
inline constexpr unsigned kMaxBackoffExponent = 16;
/** Hard ceiling on a single retry delay. */
inline constexpr std::uint64_t kMaxBackoffDelayMs = 60'000;
/// @}

/**
 * Delay before retry @p attempt (1-based; attempt 0 is the first try
 * and never sleeps): `base_ms * 2^(attempt-1)` with the exponent
 * clamped to kMaxBackoffExponent and the result capped at
 * kMaxBackoffDelayMs, so arbitrarily large retry counts can neither
 * shift past the type width nor sleep for geological time.
 */
std::uint64_t retryBackoffDelayMs(std::uint64_t base_ms,
                                  unsigned attempt);

/** Result of one application-input pair. */
struct PairResult
{
    std::string name;                      //!< e.g. "502.gcc_r-in3"
    const workloads::WorkloadProfile *profile = nullptr;
    workloads::InputSize size = workloads::InputSize::Ref;
    unsigned inputIndex = 0;
    /** True when the pair must be excluded from aggregate analysis:
     *  either the paper could not collect it, or every attempt at it
     *  failed at runtime (same downstream semantics). */
    bool errored = false;
    /** Attempts consumed (1 = first try succeeded). */
    unsigned attempts = 1;
    /** One record per failed attempt, oldest first. Non-empty with
     *  errored == false means the pair recovered under retry. */
    std::vector<FailureRecord> failures;

    /** Last failure when the pair errored at runtime, else nullptr
     *  (paper-errored pairs carry no runtime failure). */
    const FailureRecord *finalFailure() const;

    /** True when retries recovered the pair after transient failures. */
    bool recovered() const { return !failures.empty() && !errored; }

    /**
     * True when this result was replayed from the result-cache
     * journal instead of simulated this session. Not persisted;
     * progress reporting uses it to keep rate/ETA estimates honest on
     * resumed sweeps (replays complete in microseconds).
     */
    bool replayed = false;

    /** Counters over the measured interval (simulation scale). */
    counters::CounterSet counters;
    /** Measured-interval cycles (max across threads). */
    double wallCycles = 0.0;

    /**
     * Per-interval time series of the measured window when interval
     * sampling was enabled, else null. Multi-threaded pairs carry a
     * coarse-boundary series (see RunnerOptions::sampleIntervalOps).
     * Only the successful attempt's series survives: retried
     * attempts discard their partial series. Not persisted by the
     * result cache -- cache replays carry no series.
     */
    std::shared_ptr<const telemetry::TimeSeries> series;

    /** Paper-scale instruction count for this pair, in billions. */
    double instrBillions = 0.0;
    /** Paper-scale execution time in seconds. */
    double seconds = 0.0;

    /** inst_retired.any / cpu_clk_unhalted.ref_tsc. */
    double ipc() const;
};

/**
 * @name Pair-identity helpers
 * The exact derivations SuiteRunner::runPairAttempt() uses, and the
 * one loop that steps every single-threaded simulation: an attempt is
 * a one-cell runLockstep() call, each clone group of a sweep row
 * (suite/fanout.hh) one call with a cell per session in the group,
 * and phase analysis (core/phase.hh) a one-cell call sampled every
 * interval. Rows thereby reproduce per-pair identity -- build
 * options, seeds, chunk schedule, the measured window and paper-unit
 * scaling -- by construction rather than by copy.
 */
/// @{

/** Build options for @p attempt of a pair under @p options: the
 *  sample+warmup op budget with the deterministic per-attempt seed
 *  perturbation (attempt 0 always uses the unperturbed seed). */
workloads::BuildOptions attemptBuildOptions(const RunnerOptions &options,
                                            unsigned attempt);

/** The per-pair simulator/trace seed: derives purely from the build
 *  seed and the pair identity (profile name, size, input index). */
std::uint64_t pairSimSeed(const workloads::AppInputPair &pair,
                          std::uint64_t build_seed);

/** A PairResult shell for @p pair: identity fields plus the
 *  paper-errored flag, no measurements yet. */
PairResult makePairResult(const workloads::AppInputPair &pair);

/**
 * The shared measurement tail: installs @p sim_result into @p result
 * and scales the sampled interval back to paper units (instruction
 * billions, seconds; the profile's declared RSS/VSZ override the
 * sampling substrate's footprint, floored by pages actually touched).
 * Throws PairExecutionError(Invariant) when the measured interval
 * retired nothing or the paper-scale time is not finite (journals
 * hold finite doubles only).
 */
void finalizePairResult(const RunnerOptions &options,
                        const sim::SimResult &sim_result,
                        PairResult &result);

/**
 * The failure boundary's record of @p attempt at the pair named
 * @p pair, which ended in @p error: a PairExecutionError keeps its
 * category and op count, any other std::exception is an Exception at
 * 0 ops. Logs the attempt's `pair_attempt_failed` event. An error that
 * is no std::exception is rethrown.
 */
FailureRecord recordFailedAttempt(const std::string &pair,
                                  unsigned attempt,
                                  const std::exception_ptr &error);

/** One single-threaded simulation of a runLockstep() row. */
struct LockstepCell
{
    /** Prefilled; with siblings, cell 0 has a memory side and every
     *  later cell may be a lane importer. */
    sim::CpuSimulator *simulator = nullptr;
    trace::TraceSource *source = nullptr;
    /** Sampled every sampleIntervalOps of the measured window when
     *  set. */
    const telemetry::MetricsRegistry *registry = nullptr;
};

/** A cell's measured window (counters and cycles since warmup, VSZ as
 *  finished, RSS as the pages touched) and interval series, or the
 *  exception that ended it: its own, or cell 0's when cell 0 failed
 *  first. */
struct LockstepOutcome
{
    sim::SimResult window;
    std::shared_ptr<const telemetry::TimeSeries> series;
    std::exception_ptr error;
};

/**
 * The one stepping loop of every single-threaded simulation: steps
 * @p cells, one clone group, through @p options' warmup and then
 * until every source drains, in shared chunks of at most 16384
 * micro-ops, each chunk one group step (CpuSimulator::stepGroup) of
 * the cells still running. A cell left to step alone steps as step()
 * does, its retire register-resident per batch. With two or more,
 * cell 0 leads -- batched, unsampled, with a memory side -- and
 * records its memory-side lanes, every later cell runs its branch
 * pass and imports them, and one op-major retire then feeds every
 * cell's core; a sibling fails with cell 0, before it would import a
 * partial log. The chunk is capped
 * row-wide at the next sampling boundary and at the op budget's first
 * op past pairDeadlineOps, so interval rows land on exact boundaries
 * and an op-budget expiry reports pairDeadlineOps + 1 ops. Each
 * cell's watchdog is checked and its sampler fed after every chunk,
 * once its core has retired the chunk; its wall-clock budget counts
 * its own passes and, in a group, the whole group retire. Batch-size
 * invariance makes the chunking result-neutral.
 */
std::vector<LockstepOutcome> runLockstep(
    const std::vector<LockstepCell> &cells, const RunnerOptions &options);

/// @}

/**
 * Runs pairs on a fresh simulator each (no cross-pair pollution).
 * Deterministic: identical options produce identical results, at any
 * job count -- a parallel sweep is byte-identical to a sequential
 * one. Sweeps run on the sweep engine (suite/fanout.hh) through
 * ResultCache::runOrLoad; an empty cache path journals nothing.
 *
 * Every pair runs inside a failure boundary: exceptions, invariant
 * violations, malformed profiles and watchdog expiries become an
 * errored PairResult with a FailureRecord per failed attempt, so one
 * bad pair can never sink a sweep. Failed attempts are retried up to
 * RunnerOptions::maxRetries times with exponential backoff and a
 * deterministic per-attempt seed perturbation (attempt 0 always uses
 * the unperturbed seed, so fault-free sweeps are byte-identical
 * whether or not retries are enabled).
 */
class SuiteRunner
{
  public:
    /** Called after each pair of a sweep (ResultCache::runOrLoad)
     *  completes: the result plus the pair's index and the sweep
     *  size. */
    using PairObserver = std::function<void(
        const PairResult &, std::size_t index, std::size_t total)>;

    explicit SuiteRunner(RunnerOptions options = {});

    /**
     * Runs a single pair inside the failure boundary; never throws
     * for per-pair faults (the result is marked errored instead).
     * @p failures holds the records of attempts that already failed
     * elsewhere, oldest first -- a sweep row's lockstep cell passes
     * its attempt 0 (suite/fanout.hh) -- and the attempt loop resumes
     * at attempt failures.size(). With no retry left, the pair errors
     * straight away.
     */
    PairResult runPair(const workloads::AppInputPair &pair,
                       std::vector<FailureRecord> failures = {}) const;

    const RunnerOptions &options() const { return options_; }

    /** Stable fingerprint of everything that affects results. */
    std::string configKey() const;

  private:
    /** One uncontained attempt; throws PairExecutionError on faults. */
    PairResult runPairAttempt(const workloads::AppInputPair &pair,
                              unsigned attempt) const;

    RunnerOptions options_;
};

} // namespace suite
} // namespace spec17

#endif // SPEC17_SUITE_RUNNER_HH_
