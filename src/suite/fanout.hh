/**
 * @file
 * The sweep engine: runs M sweep sessions -- one pair enumeration
 * under M runner configurations (design points) -- pair-major through
 * one ordered pool, committing every session's journal in canonical
 * order as the shared pass advances. ResultCache::runOrLoad is its
 * one-session call; the explorer runs one session per design point.
 *
 * Each row (one pair under every session still running it) decides
 * once whether to capture, because a capture copies the whole trace
 * and only pays when a second cell reads it. A row with two or more
 * cells acquires each of the pair's traces -- every thread's, for a
 * threaded pair -- from the arena store (suite/arena_store.hh) before
 * any cell runs and releases them when it ends, so a sweep holds only
 * its running rows' arenas. A row with one cell -- every row of a
 * one-session sweep and of explore's resume tails -- captures
 * nothing: it replays what the store already holds, else generates
 * live, a block ahead on a helper thread when readsAhead() allows.
 *
 * With a store, a row steps each single-threaded, well-formed cell
 * (one pair under one session) whose session injects no faults in
 * lockstep: its clone groups run one after another, each in one
 * runLockstep() call (suite/runner.hh), the loop every runPair attempt
 * steps its one cell with. Three cost levers compose there
 * (docs/performance.md):
 *  - capture-once/replay-many arenas: every cell replays the row's
 *    trace zero-copy, and each lockstep chunk is read once per clone
 *    group;
 *  - lane import: batched, unsampled cells that differ only on the
 *    branch side form a clone group. Its leader records the lanes its
 *    cache, TLB and footprint passes produce; its siblings, built in
 *    CpuSimulator's lane-importer form with no cache hierarchy, import
 *    them and run only their branch passes; and one op-major retire
 *    per chunk times every cell of the group, dispatching each op's
 *    class once for all of them. Every other cell leads a group of
 *    its own and retires alone. Groups share nothing but the arena,
 *    so a row holds one leader's cache hierarchy at a time;
 *  - simulator buffer recycling: each worker's dead leader donates its
 *    page-faulted heap buffers to that worker's next leader, in the
 *    same row or the next. A row with no lockstep cell frees the
 *    donors before its runPair cells allocate.
 * Every other cell -- threaded pairs, malformed profiles, fault-injected
 * sessions and all of a store-less sweep -- runs through its session's
 * SuiteRunner::runPair, with the full retry and failure-record
 * semantics. A lockstep cell is its pair's attempt 0: when it fails,
 * its exception (or the one it inherited from its clone-group leader)
 * becomes that attempt's FailureRecord, and the pair continues in its
 * session's runPair from attempt 1, or errors when no retry is left.
 *
 * Identity by construction: rows reuse the runner's own derivations
 * and stepping loop, and replay is draw-for-draw identical to live
 * generation, so every session's results, journal bytes and telemetry
 * series equal running each of its pairs through its runPair(), at
 * any job count.
 */

#ifndef SPEC17_SUITE_FANOUT_HH_
#define SPEC17_SUITE_FANOUT_HH_

#include <vector>

#include "suite/result_cache.hh"
#include "suite/runner.hh"

namespace spec17 {
namespace suite {

/** One sweep of a campaign; the runner and journal are borrowed. */
struct FanoutSession
{
    /** The session's runner. Its options pick the design point and
     *  must agree with every sibling session's on every non-system
     *  knob, the arena store included. */
    const SuiteRunner &runner;
    /** The session's journal, which carries resume, the shard (one
     *  shard for all sessions) and the I/O-fault hook. An empty path
     *  journals nothing: a journal-less sweep is a session too. */
    ResultCache &cache;
    /**
     * Notified after each of this session's pairs, in canonical order,
     * journal-replayed prefix rows included (never when the journal
     * was already complete). The index is the pair's index in the
     * session's sweep. The total counts every pair the whole campaign
     * reports -- N per session still running -- so one progress
     * counter shared by all sessions reads k/(M*N).
     */
    SuiteRunner::PairObserver observer;
};

/**
 * Runs every pair of (@p suite, @p size) -- the sessions' shard slice
 * of it -- across all @p sessions, pair-major. Returns one result
 * vector per session, in session order, each identical to that
 * session's single-session sweep (journal included).
 */
std::vector<std::vector<PairResult>> runFanoutSweep(
    const std::vector<FanoutSession> &sessions,
    const std::vector<workloads::WorkloadProfile> &suite,
    workloads::InputSize size);

} // namespace suite
} // namespace spec17

#endif // SPEC17_SUITE_FANOUT_HH_
