#include "suite/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "sim/multicore.hh"
#include "sim/simulator.hh"
#include "suite/arena_store.hh"
#include "suite/journal.hh"
#include "telemetry/registry.hh"
#include "trace/arena.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace spec17 {
namespace suite {

using counters::CounterSet;
using counters::PerfEvent;
using workloads::AppInputPair;
using workloads::WorkloadProfile;

void
prefillSteadyState(sim::CpuSimulator &core,
                   const trace::SyntheticTraceGenerator &generator)
{
    // Models the steady-state cache residency a long-running SPEC
    // process would have: regions that fit a level are pre-installed
    // there, so a short measured sample is not dominated by
    // compulsory misses the full-length run would amortize away.
    const auto &regions = generator.params().regions;
    for (std::size_t i = 0; i < regions.size(); ++i) {
        const auto &region = regions[i];
        sim::HitLevel level;
        if (region.sizeBytes <= 32 * kKiB)
            level = sim::HitLevel::L1;
        else if (region.sizeBytes <= 256 * kKiB)
            level = sim::HitLevel::L2;
        else if (region.sizeBytes <= 8 * kMiB)
            level = sim::HitLevel::L3;
        else
            continue; // DRAM-level regions start (and stay) cold
        core.prefillData(generator.regionBase(i), region.sizeBytes,
                         level);
    }
    // The binary itself is equally warm in steady state: without
    // this, every cold-code excursion reads as a compulsory DRAM
    // fetch the full-length run would never see.
    const std::uint64_t code = generator.params().codeFootprintBytes;
    core.prefillData(generator.codeBase(), code,
                     code <= 96 * kKiB ? sim::HitLevel::L2
                                       : sim::HitLevel::L3);
}

PairTrace
openTrace(const trace::SyntheticTraceParams &params,
          std::shared_ptr<const trace::TraceArena> arena,
          telemetry::MetricsRegistry *registry, const std::string &prefix)
{
    PairTrace opened;
    opened.generator =
        std::make_shared<trace::SyntheticTraceGenerator>(params);
    std::function<std::uint64_t()> emitted;
    if (arena != nullptr) {
        auto replay = std::make_shared<trace::ReplaySource>(
            std::move(arena), params.addressOffset);
        emitted = [r = replay.get()] { return r->deliveredOps(); };
        opened.source = std::move(replay);
    } else {
        emitted = [g = opened.generator.get()] {
            return g->emittedOps();
        };
        opened.source = opened.generator;
    }
    if (registry != nullptr)
        telemetry::registerTraceMetrics(*registry, std::move(emitted),
                                        prefix);
    return opened;
}

std::string
ShardSpec::label() const
{
    return std::to_string(index) + "/" + std::to_string(count);
}

std::optional<ShardSpec>
ShardSpec::parse(const std::string &text)
{
    const auto slash = text.find('/');
    if (slash == std::string::npos)
        return std::nullopt;
    constexpr std::uint64_t kUnsignedMax =
        std::numeric_limits<unsigned>::max();
    const std::string_view label(text);
    const auto index = parseUnsigned(label.substr(0, slash), kUnsignedMax);
    const auto count = parseUnsigned(label.substr(slash + 1), kUnsignedMax);
    if (!index || !count || *count == 0 || *index == 0
        || *index > *count)
        return std::nullopt;
    return ShardSpec{static_cast<unsigned>(*index),
                     static_cast<unsigned>(*count)};
}

std::vector<AppInputPair>
shardPairs(const std::vector<AppInputPair> &pairs,
           const ShardSpec &shard)
{
    return shardSlice(pairs, shard);
}

unsigned
resolveWorkerCount(unsigned jobs, std::size_t count)
{
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    if (count < jobs)
        jobs = static_cast<unsigned>(std::max<std::size_t>(count, 1));
    return jobs;
}

std::uint64_t
retryBackoffDelayMs(std::uint64_t base_ms, unsigned attempt)
{
    if (base_ms == 0 || attempt == 0)
        return 0;
    const unsigned exponent =
        std::min(attempt - 1, kMaxBackoffExponent);
    // With the exponent clamped, base_ms <= kMaxBackoffDelayMs >>
    // exponent guarantees the shift cannot overflow either.
    if (base_ms > (kMaxBackoffDelayMs >> exponent))
        return kMaxBackoffDelayMs;
    return base_ms << exponent;
}

double
PairResult::ipc() const
{
    const std::uint64_t cycles =
        counters.get(PerfEvent::CpuClkUnhaltedRefTsc);
    if (cycles == 0)
        return 0.0;
    return static_cast<double>(counters.get(PerfEvent::InstRetiredAny))
        / static_cast<double>(cycles);
}

const FailureRecord *
PairResult::finalFailure() const
{
    return errored && !failures.empty() ? &failures.back() : nullptr;
}

SuiteRunner::SuiteRunner(RunnerOptions options)
    : options_(std::move(options))
{
    SPEC17_ASSERT(options_.sampleOps >= 1000,
                  "sample too small to be meaningful");
}

std::string
SuiteRunner::configKey() const
{
    // kResultVersion changes whenever simulator or workload semantics
    // change, invalidating on-disk caches produced by older builds.
    // v4: uarch knobs (TAGE geometry, stream prefetcher degree and
    // distance, l2 prefetcher slot, way predictor + penalty) entered
    // the config through SystemConfig::describe().
    static constexpr const char *kResultVersion = "spec17-results-v4";
    std::ostringstream os;
    os << kResultVersion << "|" << options_.system.describe()
       << "|sample=" << options_.sampleOps
       << "|warmup=" << options_.warmupOps << "|seed=" << options_.seed
       << "|retries=" << options_.maxRetries
       << "|deadline_ops=" << options_.pairDeadlineOps
       << "|deadline_ms=" << options_.pairDeadlineMs;
    return os.str();
}

namespace {

using Clock = std::chrono::steady_clock;

/** Micro-ops per lockstep chunk: small enough that one chunk's arena
 *  slice stays cache-resident while every cell of the call -- one
 *  clone group of a sweep row -- reads it, large enough to amortize
 *  the per-step dispatch. */
constexpr std::uint64_t kLockstepOps = 16384;

/**
 * The per-attempt watchdog, checked after every chunk: throws a
 * Deadline failure carrying how far the attempt got once
 * @p executed_ops pass the op budget (deterministic) or @p spent, the
 * attempt's time so far, passes the coarse wall-clock budget.
 */
void
checkDeadline(const RunnerOptions &options, std::uint64_t executed_ops,
              Clock::duration spent)
{
    if (options.pairDeadlineOps != 0
        && executed_ops > options.pairDeadlineOps) {
        std::ostringstream os;
        os << "op budget expired: " << executed_ops << " > "
           << options.pairDeadlineOps << " micro-ops";
        throw PairExecutionError(FailureCategory::Deadline, os.str(),
                                 executed_ops);
    }
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(spent)
            .count();
    if (options.pairDeadlineMs != 0
        && static_cast<std::uint64_t>(elapsed) > options.pairDeadlineMs) {
        std::ostringstream os;
        os << "wall-clock budget expired: " << elapsed << " > "
           << options.pairDeadlineMs << " ms";
        throw PairExecutionError(FailureCategory::Deadline, os.str(),
                                 executed_ops);
    }
}

} // namespace

std::vector<LockstepOutcome>
runLockstep(const std::vector<LockstepCell> &cells,
            const RunnerOptions &options)
{
    struct State
    {
        std::uint64_t executed = 0;
        Clock::duration spent = Clock::duration::zero();
        bool drained = false;
        CounterSet warm;
        double warmCycles = 0.0;
        std::uint64_t warmOps = 0;
        std::unique_ptr<telemetry::IntervalSampler> sampler;
    };
    const std::size_t n = cells.size();
    const bool timed = options.pairDeadlineMs != 0;
    const std::uint64_t budget = options.pairDeadlineOps;
    std::vector<LockstepOutcome> out(n);
    std::vector<State> states(n);
    sim::MemoryLaneLog log; //!< the leader's, refilled each chunk
    std::vector<sim::GroupCell> stepped;
    std::vector<std::size_t> index; //!< cell of each stepped entry

    // Every running cell has executed `done` ops. Steps them by one
    // chunk in one group step, cut at the op budget's first op past
    // it, then checks each cell's watchdog and feeds its sampler. A
    // sibling fails with cell 0: never stepped after cell 0 failed,
    // and failed at once when cell 0 fails in this chunk's checks.
    // Returns whether any cell still runs.
    std::uint64_t done = 0;
    const auto step_row = [&](std::uint64_t chunk) {
        if (budget != 0 && budget - done < chunk)
            chunk = budget - done + 1;
        done += chunk;
        stepped.clear();
        index.clear();
        for (std::size_t j = 0; j < n; ++j) {
            if (!out[j].error)
                out[j].error = out[0].error;
            if (out[j].error || states[j].drained)
                continue;
            stepped.emplace_back(*cells[j].simulator, *cells[j].source);
            index.push_back(j);
        }
        sim::CpuSimulator::stepGroup(stepped, chunk, log, timed);

        bool running = false;
        for (std::size_t s = 0; s < stepped.size(); ++s) {
            const std::size_t j = index[s];
            const sim::GroupCell &cell = stepped[s];
            State &state = states[j];
            out[j].error = cell.error ? cell.error : out[0].error;
            if (out[j].error)
                continue;
            try {
                state.spent += cell.spent;
                state.executed += cell.got;
                checkDeadline(options, state.executed, state.spent);
                if (state.sampler)
                    state.sampler->onProgress(state.executed
                                              - state.warmOps);
                state.drained = cell.got < chunk;
                running = running || !state.drained;
            } catch (...) {
                out[j].error = std::current_exception();
            }
        }
        return running;
    };

    const std::uint64_t warmup = options.warmupOps;
    bool running = n > 0;
    while (running && done < warmup)
        running = step_row(std::min(kLockstepOps, warmup - done));

    // The sampler's baseline lands exactly at the end of warmup, so
    // interval deltas sum to the measured-window aggregates.
    for (std::size_t j = 0; j < n; ++j) {
        State &state = states[j];
        if (out[j].error)
            continue;
        state.warm = cells[j].simulator->snapshot();
        state.warmCycles = cells[j].simulator->core().cycles();
        state.warmOps = state.executed;
        if (cells[j].registry != nullptr) {
            state.sampler = std::make_unique<telemetry::IntervalSampler>(
                *cells[j].registry, options.sampleIntervalOps,
                telemetry::defaultDerivedSpecs());
            state.sampler->begin();
        }
    }

    // Chunks end on every sampling boundary, so rows land on exact
    // micro-op counts without perturbing the simulated stream.
    const std::uint64_t interval = options.sampleIntervalOps;
    while (running) {
        const std::uint64_t to_boundary =
            interval == 0 ? kLockstepOps
                          : interval - (done - warmup) % interval;
        running = step_row(std::min(kLockstepOps, to_boundary));
    }

    for (std::size_t j = 0; j < n; ++j) {
        sim::CpuSimulator &simulator = *cells[j].simulator;
        const State &state = states[j];
        if (out[j].error)
            continue;
        try {
            if (state.sampler)
                state.sampler->finish(state.executed - state.warmOps);
            sim::SimResult window = simulator.finish(*cells[j].source);
            // VSZ is a level, not a count: keep finish()'s value rather
            // than its difference from the warm baseline.
            const std::uint64_t vsz =
                window.counters.get(PerfEvent::VszBytes);
            window.counters = window.counters.diff(state.warm);
            window.counters.set(PerfEvent::VszBytes, vsz);
            window.counters.set(PerfEvent::RssBytes,
                                simulator.footprint().rssBytes());
            window.cycles -= state.warmCycles;
            out[j].window = std::move(window);
            if (state.sampler)
                out[j].series =
                    std::make_shared<const telemetry::TimeSeries>(
                        state.sampler->series());
        } catch (...) {
            out[j].error = std::current_exception();
        }
    }
    return out;
}

workloads::BuildOptions
attemptBuildOptions(const RunnerOptions &options, unsigned attempt)
{
    workloads::BuildOptions build;
    build.sampleOps = options.sampleOps + options.warmupOps;
    // Attempt 0 uses the unperturbed seed (byte-identical to a run
    // without the fault layer); retries perturb it deterministically
    // so transiently unlucky stochastic states are not replayed.
    build.seed = attempt == 0
        ? options.seed
        : deriveSeed(deriveSeed(options.seed, "retry"), attempt);
    return build;
}

std::uint64_t
pairSimSeed(const AppInputPair &pair, std::uint64_t build_seed)
{
    SPEC17_ASSERT(pair.profile != nullptr, "pair without profile");
    return deriveSeed(deriveSeed(build_seed, pair.profile->name),
                      static_cast<std::uint64_t>(pair.size),
                      pair.inputIndex);
}

PairResult
makePairResult(const AppInputPair &pair)
{
    SPEC17_ASSERT(pair.profile != nullptr, "pair without profile");
    PairResult result;
    result.name = pair.displayName();
    result.profile = pair.profile;
    result.size = pair.size;
    result.inputIndex = pair.inputIndex;
    result.errored =
        pair.profile->isErrored(pair.size, pair.inputIndex);
    return result;
}

void
finalizePairResult(const RunnerOptions &options,
                   const sim::SimResult &sim_result, PairResult &result)
{
    result.counters = sim_result.counters;
    result.wallCycles = sim_result.cycles;

    // ---- Scale back to paper units ----
    // The simulated sample stands in for the full run: rates (IPC,
    // miss and mispredict rates, mix percentages) are taken from the
    // sample; instruction count and execution time are reported at
    // paper scale.
    const WorkloadProfile &profile = *result.profile;
    result.instrBillions = profile.instrBillions(result.size);
    const double sim_instr = static_cast<double>(
        result.counters.get(PerfEvent::InstRetiredAny));
    if (!(sim_instr > 0.0)) {
        throw PairExecutionError(
            FailureCategory::Invariant,
            result.name + ": measured interval retired nothing");
    }
    const double wall_seconds = result.wallCycles
        / (options.system.core.frequencyGHz * 1e9);
    result.seconds =
        wall_seconds * (result.instrBillions * kBillion / sim_instr);
    // A journal holds finite doubles only. The time is finite only
    // when the cycles and the instruction count are and the product
    // did not overflow.
    if (!std::isfinite(result.seconds)) {
        throw PairExecutionError(
            FailureCategory::Invariant,
            result.name + ": paper-scale time is not finite");
    }

    // RSS/VSZ are microarchitecture-independent input magnitudes; the
    // sampled run cannot touch a paper-scale working set, so OVERRIDE
    // the gauges with the profile's declared values. Touched pages
    // remain a floor so tiny declarations stay honest; the simulated
    // region reservation (an artifact of the sampling substrate) is
    // discarded.
    const auto declared_rss = static_cast<std::uint64_t>(
        profile.rssMiB(result.size) * double(kMiB));
    const auto declared_vsz = static_cast<std::uint64_t>(
        profile.vszMiB(result.size) * double(kMiB));
    const std::uint64_t touched =
        result.counters.get(PerfEvent::RssBytes);
    result.counters.set(PerfEvent::RssBytes,
                        std::max(touched, declared_rss));
    result.counters.set(
        PerfEvent::VszBytes,
        std::max(result.counters.get(PerfEvent::RssBytes),
                 declared_vsz));
}

PairResult
SuiteRunner::runPairAttempt(const AppInputPair &pair,
                            unsigned attempt) const
{
    SPEC17_ASSERT(pair.profile != nullptr, "pair without profile");
    const WorkloadProfile &profile = *pair.profile;

    PairResult result = makePairResult(pair);

    // A malformed profile is a contained, diagnosable failure -- not
    // a NaN row and not a process abort mid-sweep.
    const std::string profile_error = profile.validationError();
    if (!profile_error.empty()) {
        throw PairExecutionError(FailureCategory::BadProfile,
                                 profile_error);
    }

    FaultInjector::Action injected = FaultInjector::Action::None;
    if (options_.faultInjector != nullptr)
        injected = options_.faultInjector->onAttempt(result.name, attempt);
    if (injected == FaultInjector::Action::Throw) {
        throw PairExecutionError(FailureCategory::Injected,
                                 "injected fault before simulation");
    }

    workloads::BuildOptions build = attemptBuildOptions(options_, attempt);
    if (injected == FaultInjector::Action::Stall) {
        // Runaway trace generation: emit far past the declared sample
        // so only the watchdog can stop the attempt.
        const std::uint64_t runaway = options_.pairDeadlineOps != 0
            ? options_.pairDeadlineOps * 4
            : (options_.sampleOps + options_.warmupOps) * 64;
        build.sampleOps = std::max(build.sampleOps, runaway);
    }

    const std::uint64_t pair_seed = pairSimSeed(pair, build.seed);

    // An attempt is one read of each trace, so it replays only what
    // the store already holds -- a sweep row with a second reader
    // acquired it -- and otherwise generates live. It never captures,
    // so a fault-injected runaway is generated under the watchdog,
    // never captured to completion.
    const auto arena_of = [this](const trace::SyntheticTraceParams &params)
        -> std::shared_ptr<const trace::TraceArena> {
        return options_.arenaStore != nullptr
            ? options_.arenaStore->find(params)
            : nullptr;
    };

    sim::SimResult sim_result;
    if (profile.numThreads > 1) {
        // The multicore interleaver runs to completion in one call, so
        // the op budget is enforced up front against the statically
        // known total, and the wall clock after the run.
        const Clock::time_point started = Clock::now();
        checkDeadline(options_, build.sampleOps, Clock::duration::zero());
        sim::MulticoreSimulator multicore(options_.system,
                                          profile.numThreads, pair_seed);

        // Interval telemetry, coarse mode: the interleaver's chunk
        // size shapes shared-L3 contention, so chunks cannot be
        // capped at sampling boundaries without changing results;
        // rows land at the first chunk end past each boundary. The
        // baseline is taken before the run, so intervals spanning
        // another context's warmup include that warmup traffic (the
        // contexts genuinely share the L3 during it).
        std::unique_ptr<telemetry::MetricsRegistry> registry;
        if (options_.sampleIntervalOps > 0) {
            registry = std::make_unique<telemetry::MetricsRegistry>();
            telemetry::registerMulticoreMetrics(*registry, multicore);
        }
        std::vector<std::shared_ptr<trace::TraceSource>> sources;
        for (unsigned t = 0; t < profile.numThreads; ++t) {
            sim::CpuSimulator &core = multicore.mutableCore(t);
            if (options_.batchOps != 0)
                core.setBatchOps(options_.batchOps);
            core.setUnbatchedStepping(options_.unbatchedStepping);
            const trace::SyntheticTraceParams params =
                workloads::buildTraceParams(pair, build, t);
            const PairTrace trace =
                openTrace(params, arena_of(params), registry.get(),
                          "core" + std::to_string(t) + ".");
            prefillSteadyState(core, *trace.generator);
            sources.push_back(trace.source);
        }
        std::unique_ptr<telemetry::IntervalSampler> sampler;
        if (registry) {
            sampler = std::make_unique<telemetry::IntervalSampler>(
                *registry, options_.sampleIntervalOps,
                telemetry::defaultDerivedSpecs());
            sampler->setCoarseBoundaries(true);
            sampler->begin();
        }

        std::uint64_t measured_total = 0;
        const sim::MulticoreSimulator::ChunkObserver on_chunk =
            sampler ? sim::MulticoreSimulator::ChunkObserver(
                          [&](std::uint64_t measured_ops) {
                              measured_total = measured_ops;
                              sampler->onProgress(measured_ops);
                          })
                    : sim::MulticoreSimulator::ChunkObserver();
        sim_result = multicore.run(sources, 10'000,
                                   options_.warmupOps
                                       / profile.numThreads,
                                   on_chunk);
        if (sampler) {
            sampler->finish(measured_total);
            result.series =
                std::make_shared<const telemetry::TimeSeries>(
                    sampler->series());
        }
        checkDeadline(options_,
                      sim_result.counters.get(PerfEvent::InstRetiredAny),
                      Clock::now() - started);
    } else {
        sim::CpuSimulator simulator(options_.system, pair_seed);
        if (options_.batchOps != 0)
            simulator.setBatchOps(options_.batchOps);
        simulator.setUnbatchedStepping(options_.unbatchedStepping);
        std::unique_ptr<telemetry::MetricsRegistry> registry;
        if (options_.sampleIntervalOps > 0) {
            registry = std::make_unique<telemetry::MetricsRegistry>();
            telemetry::registerSimulatorMetrics(*registry, simulator);
        }
        const trace::SyntheticTraceParams params =
            workloads::buildTraceParams(pair, build, 0);
        const PairTrace trace =
            openTrace(params, arena_of(params), registry.get());
        prefillSteadyState(simulator, *trace.generator);
        LockstepOutcome cell = std::move(
            runLockstep({{&simulator, trace.source.get(), registry.get()}},
                        options_)
                .front());
        if (cell.error)
            std::rethrow_exception(cell.error);
        sim_result = cell.window;
        result.series = std::move(cell.series);
    }

    finalizePairResult(options_, sim_result, result);
    return result;
}

FailureRecord
recordFailedAttempt(const std::string &pair, unsigned attempt,
                    const std::exception_ptr &error)
{
    FailureRecord record{FailureCategory::Exception, "", attempt, 0};
    try {
        std::rethrow_exception(error);
    } catch (const PairExecutionError &failure) {
        record.category = failure.category();
        record.message = failure.what();
        record.opsCompleted = failure.opsCompleted();
    } catch (const std::exception &failure) {
        record.message = failure.what();
    }
    logEvent("pair_attempt_failed",
             {{"pair", pair},
              {"attempt", std::to_string(attempt)},
              {"category", failureCategoryName(record.category)},
              {"ops", std::to_string(record.opsCompleted)},
              {"message", record.message}});
    return record;
}

PairResult
SuiteRunner::runPair(const AppInputPair &pair,
                     std::vector<FailureRecord> failures) const
{
    SPEC17_ASSERT(pair.profile != nullptr, "pair without profile");
    const std::string name = pair.displayName();

    const unsigned max_attempts = options_.maxRetries + 1;
    for (auto attempt = static_cast<unsigned>(failures.size());
         attempt < max_attempts; ++attempt) {
        const std::uint64_t delay_ms =
            attempt > 0
            ? retryBackoffDelayMs(options_.retryBackoffMs, attempt)
            : 0;
        if (delay_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay_ms));
        }
        try {
            PairResult result = runPairAttempt(pair, attempt);
            result.attempts = attempt + 1;
            result.failures = std::move(failures);
            // Series from failed attempts never reach this point
            // (the attempt threw and its sampler died with it); only
            // the successful attempt's series is committed.
            if (options_.telemetrySink != nullptr
                && result.series != nullptr) {
                options_.telemetrySink->write(result.name,
                                              *result.series);
            }
            if (result.recovered()) {
                logEvent("pair_recovered",
                         {{"pair", name},
                          {"attempts",
                           std::to_string(result.attempts)}});
            }
            return result;
        } catch (const std::exception &) {
            failures.push_back(recordFailedAttempt(
                name, attempt, std::current_exception()));
        }
        // A malformed profile fails every attempt identically --
        // retrying (and sleeping the backoff) would only replay the
        // same diagnosis, so fail fast instead.
        if (failures.back().category == FailureCategory::BadProfile)
            break;
    }

    // Every attempt failed: surface an errored result mirroring the
    // paper's "could not collect" semantics so aggregate analysis
    // excludes the pair while the sweep carries on.
    PairResult failed;
    failed.name = name;
    failed.profile = pair.profile;
    failed.size = pair.size;
    failed.inputIndex = pair.inputIndex;
    failed.errored = true;
    failed.attempts = static_cast<unsigned>(failures.size());
    failed.failures = std::move(failures);
    logEvent("pair_errored",
             {{"pair", name},
              {"attempts", std::to_string(failed.attempts)},
              {"category",
               failureCategoryName(failed.failures.back().category)}});
    return failed;
}

} // namespace suite
} // namespace spec17
