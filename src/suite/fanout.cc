#include "suite/fanout.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "sim/simulator.hh"
#include "suite/arena_store.hh"
#include "telemetry/registry.hh"
#include "trace/arena.hh"
#include "util/logging.hh"

namespace spec17 {
namespace suite {

using workloads::AppInputPair;
using workloads::WorkloadProfile;

namespace {

void
appendCacheConfig(std::ostringstream &os, const sim::CacheConfig &cache)
{
    os << cache.name << "," << cache.sizeBytes << "," << cache.assoc
       << "," << cache.lineBytes << ","
       << sim::replacementPolicyName(cache.policy) << ","
       << cache.hitLatency << ","
       << sim::wayPredictorName(cache.wayPredictor) << ","
       << cache.wayMispredictPenalty << ";";
}

void
appendTlbConfig(std::ostringstream &os, const sim::TlbConfig &tlb)
{
    os << tlb.l1Entries << "," << tlb.l2Entries << "," << tlb.pageBytes
       << "," << tlb.l2HitLatency << "," << tlb.walkLatency << ";";
}

/**
 * Lane-import clone key: two points with equal keys (and equal
 * batchOps, appended by the caller) produce bit-identical memory/TLB
 * lane streams over the same arena, because nothing on the branch
 * side feeds back into cache or TLB state. Everything that shapes the
 * recorded lanes is included -- the full hierarchy (all four cache
 * geometries including way predictor, both prefetcher slots, stream
 * geometry), the core parameters (frontendBufferCycles and the op
 * latencies bake into the recorded stall/latency lanes), and both
 * TLBs. The branch predictor and TAGE geometry are deliberately
 * absent: they only influence the per-sim branch pass, which
 * importing siblings still run themselves, and the mispredict lane
 * each sibling's core reads in the group retire.
 */
std::string
importCloneKey(const sim::SystemConfig &system)
{
    std::ostringstream os;
    const sim::HierarchyConfig &hierarchy = system.hierarchy;
    appendCacheConfig(os, hierarchy.l1i);
    appendCacheConfig(os, hierarchy.l1d);
    appendCacheConfig(os, hierarchy.l2);
    appendCacheConfig(os, hierarchy.l3);
    os << hierarchy.memLatency << ";" << hierarchy.prefetcher << ";"
       << hierarchy.l2Prefetcher << ";" << hierarchy.streamDegree << ","
       << hierarchy.streamDistance << "|";
    const sim::CoreParams &core = system.core;
    os << core.dispatchWidth << "," << core.robSize << ","
       << core.numMshrs << "," << core.mispredictPenalty << ","
       << core.branchResolveLatency << ","
       << core.frontendBufferCycles << "," << core.intAluLatency << ","
       << core.intMulLatency << "," << core.intDivLatency << ","
       << core.fpAddLatency << "," << core.fpMulLatency << ","
       << core.fpDivLatency << "," << core.frequencyGHz << "|"
       << system.enableTlb << "|";
    appendTlbConfig(os, system.dtlb);
    appendTlbConfig(os, system.itlb);
    return os.str();
}

/** One pair's cells, one per session; empty where the session's
 *  journal already held the pair. */
using Row = std::vector<std::optional<PairResult>>;

/**
 * One dead clone-group leader per worker thread, whose heap buffers
 * (cache lanes, memos, batch and staging lanes) the thread's next
 * leader adopts. A row steps its clone groups one after another, and
 * each group take()s before it give()s, so the thread's slot is empty
 * whenever a leader comes back and one slot suffices. It holds only
 * simulators with a memory side: a lane importer has nothing to lend.
 * Recycling is an allocation shortcut only (results are bit-identical
 * to fresh construction), and a row that builds no simulator releases
 * every donor rather than keep them idle.
 *
 * Each worker thread recycles only the donor it gave. A buffer
 * returns to the malloc arena of the thread that allocated it when it
 * is freed, and glibc gives each thread its own arena: a donor that
 * wandered to another worker and was freed there would leave its
 * megabytes resident in an arena the freeing worker never allocates
 * from, so the peak would depend on thread timing.
 */
class DonorPool
{
  public:
    /** The calling thread's donor, or null. */
    std::unique_ptr<sim::CpuSimulator>
    take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return std::move(donors_[std::this_thread::get_id()]);
    }

    /** Keeps @p sim as the calling thread's donor. */
    void
    give(std::unique_ptr<sim::CpuSimulator> sim)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        donors_[std::this_thread::get_id()] = std::move(sim);
    }

    /** Frees every thread's donor. */
    void
    release()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        donors_.clear();
    }

  private:
    std::mutex mutex_;
    std::map<std::thread::id, std::unique_ptr<sim::CpuSimulator>> donors_;
};

/** Releases the traces a row acquired from @p store when the row
 *  ends, on every return path. */
struct RowRelease
{
    TraceArenaStore *store = nullptr;
    std::vector<trace::SyntheticTraceParams> traces;

    ~RowRelease()
    {
        for (const trace::SyntheticTraceParams &params : traces)
            store->release(params);
    }
};

/**
 * Simulates @p pair for every session index in @p active, writing
 * each session's result into @p row: lockstep where the cell allows
 * it, the session's own SuiteRunner::runPair otherwise. A lockstep
 * cell that fails is the pair's attempt 0; its retries, if any, run
 * in its session's runPair.
 */
void
runFanoutPair(const AppInputPair &pair,
              const std::vector<FanoutSession> &sessions,
              const std::vector<std::size_t> &active, Row &row,
              DonorPool &donors)
{
    SPEC17_ASSERT(pair.profile != nullptr, "pair without profile");
    const WorkloadProfile &profile = *pair.profile;

    const bool well_formed = profile.validationError().empty();
    const RunnerOptions &base = sessions[active.front()].runner.options();
    const workloads::BuildOptions build = attemptBuildOptions(base, 0);

    // The row's one capture decision: a capture copies the whole
    // trace, so it only pays when a second cell will read it. With two
    // or more cells, every trace of the pair -- each thread's, for a
    // threaded pair -- is acquired here, before any cell runs, and
    // held for the row: lockstep cells replay it and runPair cells
    // find it. The row releases them from the store when it ends, so
    // a sweep holds only its running rows' arenas. A lone cell
    // captures nothing; it replays what the store already holds, else
    // generates live.
    std::vector<std::shared_ptr<const trace::TraceArena>> arenas;
    RowRelease release;
    if (base.arenaStore != nullptr && well_formed && active.size() >= 2) {
        release.store = base.arenaStore;
        for (unsigned t = 0; t < profile.numThreads; ++t) {
            release.traces.push_back(
                workloads::buildTraceParams(pair, build, t));
            arenas.push_back(
                base.arenaStore->acquire(release.traces.back()));
        }
    }

    // With a store, every single-threaded, well-formed cell runs in
    // lockstep unless its session injects faults: the injector's
    // once-per-attempt consult and its retries belong to runPair. A
    // threaded pair runs per session (the multicore interleaver's
    // chunk schedule shapes shared-L3 contention), and so does every
    // cell of a store-less sweep, the per-point reference. A row with
    // no lockstep cell frees the donor pool before its first runPair
    // cell allocates, rather than keep donors idle beside it.
    const bool replayable = base.arenaStore != nullptr
        && profile.numThreads == 1 && well_formed;
    std::vector<std::size_t> lockstep;
    std::vector<std::size_t> by_runner;
    for (std::size_t p : active) {
        if (replayable
            && sessions[p].runner.options().faultInjector == nullptr)
            lockstep.push_back(p);
        else
            by_runner.push_back(p);
    }
    if (lockstep.empty())
        donors.release();
    for (std::size_t p : by_runner)
        row[p] = sessions[p].runner.runPair(pair);
    if (lockstep.empty())
        return;

    const std::uint64_t pair_seed = pairSimSeed(pair, build.seed);

    // The generator gives prefill its region layout (prefill never
    // consumes ops). Every cell replays the row's arena; a lone cell
    // the store holds nothing for simulates the generator itself.
    trace::SyntheticTraceGenerator generator(
        workloads::buildTraceParams(pair, build, 0));
    const std::shared_ptr<const trace::TraceArena> arena = arenas.empty()
        ? base.arenaStore->find(generator.params())
        : arenas.front();

    const std::size_t n = lockstep.size();
    SPEC17_ASSERT(arena != nullptr || n == 1,
                  "lockstep cells without an arena to share");

    // Clone groups, as lockstep indices with the leader first: a point
    // matching an earlier point in everything but the branch side
    // (importCloneKey) is a lane-importing sibling in the first such
    // point's group. A sampled or unbatched cell leads its own group:
    // its registry reads the hierarchy an importer lacks, and only the
    // batched lane records.
    std::map<std::string, std::size_t> keyed;
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t j = 0; j < n; ++j) {
        const RunnerOptions &point = sessions[lockstep[j]].runner.options();
        if (point.sampleIntervalOps == 0 && !point.unbatchedStepping) {
            const std::string key = importCloneKey(point.system)
                + "|batch=" + std::to_string(point.batchOps);
            const auto [it, fresh] = keyed.emplace(key, groups.size());
            if (!fresh) {
                groups[it->second].push_back(j);
                continue;
            }
        }
        groups.push_back({j});
    }

    // Groups share nothing but the row's arena, so each steps in its
    // own runLockstep() call and the row holds one leader's hierarchy
    // at a time. The leader is cell 0. It prefills its hierarchy,
    // adopting the thread's dead leader's buffers when the pool has
    // one, and is the next group's donor once its call returns. Its
    // siblings consume its recorded memory lanes, so they are built in
    // the lane-importer form, with no cache hierarchy to prefill.
    std::vector<LockstepOutcome> outcomes(n);
    for (const std::vector<std::size_t> &group : groups) {
        const std::size_t g = group.size();
        std::vector<trace::ReplaySource> replays;
        replays.reserve(g);
        std::vector<LockstepCell> cells(g);
        std::vector<std::unique_ptr<sim::CpuSimulator>> sims(g);
        std::vector<std::unique_ptr<telemetry::MetricsRegistry>>
            registries(g);
        for (std::size_t c = 0; c < g; ++c) {
            const RunnerOptions &point =
                sessions[lockstep[group[c]]].runner.options();
            if (c != 0) {
                sims[c] = std::make_unique<sim::CpuSimulator>(
                    sim::CpuSimulator::LaneImporter{}, point.system);
            } else {
                const std::unique_ptr<sim::CpuSimulator> donor =
                    donors.take();
                sims[c] = std::make_unique<sim::CpuSimulator>(
                    point.system, pair_seed, nullptr, nullptr, donor.get());
                prefillSteadyState(*sims[c], generator);
            }
            if (point.batchOps != 0)
                sims[c]->setBatchOps(point.batchOps);
            sims[c]->setUnbatchedStepping(point.unbatchedStepping);
            cells[c].simulator = sims[c].get();
            cells[c].source = &generator;
            if (arena != nullptr)
                cells[c].source = &replays.emplace_back(arena);
            // The runner's column order: the simulator's metrics, then
            // the consumed source's emission counter.
            if (point.sampleIntervalOps > 0) {
                registries[c] =
                    std::make_unique<telemetry::MetricsRegistry>();
                telemetry::registerSimulatorMetrics(*registries[c],
                                                    *sims[c]);
                std::function<std::uint64_t()> emitted = [&generator] {
                    return generator.emittedOps();
                };
                if (arena != nullptr)
                    emitted = [r = &replays.back()] {
                        return r->deliveredOps();
                    };
                telemetry::registerTraceMetrics(*registries[c],
                                                std::move(emitted));
                cells[c].registry = registries[c].get();
            }
        }
        std::vector<LockstepOutcome> stepped = runLockstep(cells, base);
        for (std::size_t c = 0; c < g; ++c)
            outcomes[group[c]] = std::move(stepped[c]);
        donors.give(std::move(sims.front()));
    }

    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t p = lockstep[j];
        const SuiteRunner &runner = sessions[p].runner;
        const RunnerOptions &options = runner.options();
        PairResult result = makePairResult(pair);
        std::exception_ptr error = outcomes[j].error;
        if (!error) {
            try {
                finalizePairResult(options, outcomes[j].window, result);
            } catch (const std::exception &) {
                error = std::current_exception();
            }
        }
        if (error) {
            // The cell was the pair's attempt 0: its failure is that
            // attempt's record, and any retries run in the session's
            // own failure boundary.
            row[p] = runner.runPair(
                pair, {recordFailedAttempt(result.name, 0, error)});
            continue;
        }
        result.series = outcomes[j].series;
        if (options.telemetrySink != nullptr && result.series != nullptr)
            options.telemetrySink->write(result.name, *result.series);
        row[p] = std::move(result);
    }
}

} // namespace

std::vector<std::vector<PairResult>>
runFanoutSweep(const std::vector<FanoutSession> &sessions,
               const std::vector<WorkloadProfile> &suite,
               workloads::InputSize size)
{
    if (sessions.empty())
        return {};
    const RunnerOptions &base = sessions.front().runner.options();
    const ShardSpec shard = sessions.front().cache.shard();
    for (const FanoutSession &session : sessions) {
        const RunnerOptions &options = session.runner.options();
        // The chunk schedule and the watchdog are the row's, so the
        // sessions share sampling and deadlines too.
        SPEC17_ASSERT(options.arenaStore == base.arenaStore
                          && options.sampleOps == base.sampleOps
                          && options.warmupOps == base.warmupOps
                          && options.seed == base.seed
                          && options.sampleIntervalOps
                              == base.sampleIntervalOps
                          && options.pairDeadlineOps == base.pairDeadlineOps
                          && options.pairDeadlineMs == base.pairDeadlineMs,
                      "sweep sessions must agree on every non-system "
                      "runner knob");
        SPEC17_ASSERT(session.cache.shard().index == shard.index
                          && session.cache.shard().count == shard.count,
                      "sweep sessions must share one shard");
    }

    const std::size_t m = sessions.size();
    std::vector<std::vector<PairResult>> out(m);

    const auto pairs = shardPairs(suite.empty()
                                      ? std::vector<AppInputPair>{}
                                      : enumeratePairs(suite, size),
                                  shard);
    const std::size_t n = pairs.size();

    // Each journal behaves exactly as a single-session sweep's: a
    // complete journal contributes its rows without observer calls, a
    // partial prefix replays through the observer, and fresh pairs
    // are checkpointed in canonical order as the shared pass advances.
    std::vector<std::size_t> have(m, 0);
    std::vector<char> running(m, 0);
    std::size_t total = 0;
    for (std::size_t p = 0; p < m; ++p) {
        ResultCache::SweepPrefix prefix = sessions[p].cache.beginSweep(
            sessions[p].runner, suite, size, pairs);
        out[p] = std::move(prefix.rows);
        have[p] = out[p].size();
        running[p] = prefix.complete ? 0 : 1;
        total += running[p] ? n : 0;
    }
    for (std::size_t p = 0; p < m; ++p) {
        if (running[p] && sessions[p].observer) {
            for (std::size_t i = 0; i < have[p]; ++i)
                sessions[p].observer(out[p][i], i, total);
        }
    }

    // The shared pass starts at the first index any session still
    // needs; earlier indices are fully journal-covered.
    std::size_t start = n;
    for (std::size_t p = 0; p < m; ++p) {
        if (running[p])
            start = std::min(start, have[p]);
    }

    DonorPool donors;
    runOrderedPool<Row>(
        n - start, base.jobs,
        [&](std::size_t k) {
            const std::size_t i = start + k;
            Row row(m);
            std::vector<std::size_t> active;
            for (std::size_t p = 0; p < m; ++p) {
                if (running[p] && have[p] <= i)
                    active.push_back(p);
            }
            if (!active.empty())
                runFanoutPair(pairs[i], sessions, active, row, donors);
            return row;
        },
        [&](const Row &row, std::size_t k) {
            const std::size_t i = start + k;
            for (std::size_t p = 0; p < m; ++p) {
                if (!row[p])
                    continue;
                out[p].push_back(*row[p]);
                sessions[p].cache.checkpoint(sessions[p].runner, suite,
                                             size, out[p]);
                if (sessions[p].observer)
                    sessions[p].observer(*row[p], i, total);
            }
        });

    for (std::size_t p = 0; p < m; ++p) {
        if (running[p])
            sessions[p].cache.finish(sessions[p].runner, suite, size,
                                     out[p]);
    }
    return out;
}

} // namespace suite
} // namespace spec17
