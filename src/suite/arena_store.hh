/**
 * @file
 * TraceArenaStore: process-wide capture-once/replay-many cache of
 * trace arenas (trace/arena.hh), keyed by the exact synthetic trace
 * configuration.
 *
 * A capture copies a whole trace, so it only pays when a second
 * simulation will replay it. Callers pick one of two lookups:
 *  - acquire() is find-or-capture, for callers that know a second read
 *    of the same trace follows: a sweep row with two or more cells
 *    (design points of a multi-point sweep), and the co-run engine,
 *    which acquires each app's context-0 trace once and replays it in
 *    the app's solo baseline and in every group, at every context,
 *    shifted to the context's address offset (trace/arena.hh);
 *  - find() returns what the store already holds and never captures,
 *    for a single read: a runner attempt (stat, runPair, retries --
 *    which perturb their seed, so they never share a trace anyway)
 *    and a sweep row with one cell. On a miss the caller generates
 *    live.
 * A sweep row that acquired its traces release()s them once its cells
 * have run: no other row of the sweep reads its pair, so the store
 * stops holding arenas nothing reads again. A later sweep of the same
 * traces (the next explore descent stage) recaptures them; measured,
 * that is no slower than keeping every arena resident between stages
 * (docs/performance.md).
 * Resident arenas live under a byte budget with least-recently-used
 * eviction; an optional spill directory persists every captured arena
 * in the versioned S17A format (atomic temp+rename), so evicted or
 * cross-run arenas reload -- through either lookup -- instead of
 * recapturing. A reload takes the arena's capture offset from the
 * params it was looked up by (the key holds it; S17A does not).
 *
 * Replay is observation-equivalent to live generation (pinned by the
 * arena golden tests), so whether a store is attached -- and its
 * budget, eviction behaviour, and spill directory -- is an execution
 * strategy, never semantics: none of it enters result-cache config
 * keys (docs/determinism.md).
 */

#ifndef SPEC17_SUITE_ARENA_STORE_HH_
#define SPEC17_SUITE_ARENA_STORE_HH_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "suite/memo.hh"
#include "trace/arena.hh"

namespace spec17 {
namespace suite {

/** Thread-safe arena cache (see the file comment). */
class TraceArenaStore
{
  public:
    /** Observability counters (approximate under concurrency). */
    struct Stats
    {
        std::uint64_t captures = 0;   //!< streams generated
        std::uint64_t hits = 0;       //!< served from residency
        std::uint64_t spillLoads = 0; //!< reloaded from disk
        std::uint64_t evictions = 0;  //!< dropped for budget
        std::uint64_t residentBytes = 0;
        std::uint64_t entries = 0;
    };

    /**
     * @param budget_bytes resident-lane byte budget (> 0); arenas
     *        larger than the whole budget are served uncached.
     * @param spill_dir optional directory for S17A spill files
     *        (created on demand); empty disables spilling.
     */
    explicit TraceArenaStore(std::uint64_t budget_bytes,
                             std::string spill_dir = "");

    /**
     * The arena the store already holds for @p params: a resident hit
     * or a spill reload (retained like a capture), in that order;
     * nullptr otherwise. Never captures. A spill that fails to load,
     * or loads with an op count other than params.numOps, is a miss.
     */
    std::shared_ptr<const trace::TraceArena>
    find(const trace::SyntheticTraceParams &params);

    /**
     * find(), falling back to a fresh capture. Never returns nullptr
     * and never throws for a bad spill -- an uncachable (over-budget)
     * arena is still captured and returned, it just isn't retained.
     * Racing captures resolve first-write-wins (identical streams, so
     * results cannot depend on the winner).
     */
    std::shared_ptr<const trace::TraceArena>
    acquire(const trace::SyntheticTraceParams &params);

    /**
     * Drops the resident arena for @p params, if any, for a caller
     * done reading it. Holders keep their copy, a spill file stays,
     * and it is not counted as an eviction.
     */
    void release(const trace::SyntheticTraceParams &params);

    Stats stats() const;

    std::uint64_t budgetBytes() const { return budgetBytes_; }
    const std::string &spillDir() const { return spillDir_; }

    /** Spill file path for @p key (exposed for tests). */
    std::string spillPathFor(const std::string &key) const;

  private:
    struct Entry
    {
        std::shared_ptr<const trace::TraceArena> arena;
        /** Recency stamp, shared so hits can touch it without
         *  mutating the memo. */
        std::shared_ptr<std::atomic<std::uint64_t>> lastUse;
    };

    /** The body of find() and acquire(): @p capture on a miss, or
     *  return nullptr. */
    std::shared_ptr<const trace::TraceArena>
    lookup(const trace::SyntheticTraceParams &params, bool capture);

    /** Evicts least-recently-used entries until under budget. */
    void evictOverBudget();

    std::uint64_t budgetBytes_;
    std::string spillDir_;
    SharedMemo<std::string, Entry> table_;
    std::atomic<std::uint64_t> useSeq_{0};
    std::atomic<std::uint64_t> captures_{0};
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> spillLoads_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

} // namespace suite
} // namespace spec17

#endif // SPEC17_SUITE_ARENA_STORE_HH_
