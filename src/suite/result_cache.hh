/**
 * @file
 * On-disk cache of suite-run results, doubling as a crash-safe,
 * self-validating sweep journal.
 *
 * A full characterization sweep simulates hundreds of millions of
 * micro-ops; every bench binary needs the same sweep. The cache
 * persists PairResults to a journal file (format v2, see
 * docs/journal_format.md and suite/journal.hh) keyed by a campaign
 * header -- config-key fingerprint, pair-set digest, shard identity,
 * format version -- with a content hash on every record, so any
 * record's provenance and integrity is checkable offline.
 *
 * Crash safety: during a sweep the file is re-committed after every
 * completed pair through the shared journal session
 * (suite/journal.hh), so readers only ever see a complete prefix of
 * rows (an append-only journal with atomic commits). An interrupted
 * sweep leaves a valid partial journal; with resume enabled, the next
 * run replays the completed prefix and simulates only the remainder.
 * Malformed or hash-failing rows (torn tails, bit flips, stale
 * formats) are quarantined as cache misses with a logged reason --
 * never a crash, never garbage results. A failed journal commit (e.g.
 * ENOSPC, or an injected I/O fault) demotes to warn-and-continue: the
 * sweep still returns correct results, and uncommitted pairs are
 * recomputed on resume. The cache itself keeps only what is specific
 * to suite results: the row codec, the `<gen>` file stem and the
 * pair-set digest.
 *
 * Sharded campaigns: with a ShardSpec set, the cache runs only the
 * shard's slice of the pair cross-product and journals it to a
 * per-shard file (`<base>.<gen>.<size>.shardKofN.csv`). Shard
 * journals of one campaign merge into the canonical unsharded
 * journal byte-identically via `spec17 merge` (suite/journal.hh).
 *
 * Every sweep, journaled or not (an empty path), runs on the sweep
 * engine (suite/fanout.hh), whose ordered pool delivers completions
 * in canonical pair order regardless of which worker finished first,
 * so every checkpoint is still a valid prefix and a journal truncated
 * mid-parallel-sweep resumes byte-identically.
 */

#ifndef SPEC17_SUITE_RESULT_CACHE_HH_
#define SPEC17_SUITE_RESULT_CACHE_HH_

#include <string>
#include <vector>

#include "suite/fault_injection.hh"
#include "suite/journal.hh"
#include "suite/runner.hh"

namespace spec17 {
namespace suite {

/** 16-hex-digit FNV-1a fingerprint of @p runner's config key. */
std::string configFingerprint(const SuiteRunner &runner);

/**
 * 16-hex-digit digest of the full canonical pair enumeration of
 * (@p suite, @p size) -- generation, size and every pair display
 * name, pre-shard. Shards of one campaign share it; journals from a
 * different suite or size cannot be confused for shards.
 */
std::string pairSetDigest(
    const std::vector<workloads::WorkloadProfile> &suite,
    workloads::InputSize size);

/**
 * Journal-backed result store. Results are keyed by (suite
 * generation, input size, shard) and validated against the campaign
 * header and per-record hashes.
 */
class ResultCache
{
  public:
    /**
     * @param path journal base path; created on first save. Empty
     *        path disables persistence (pure pass-through).
     * @param resume when true, a partial journal left by an
     *        interrupted sweep is replayed instead of discarded.
     */
    explicit ResultCache(std::string path, bool resume = false);

    /** Default cache location: $SPEC17_CACHE or spec17_results.csv. */
    static std::string defaultPath();

    /** Enables/disables resuming from a partial journal. */
    void setResume(bool resume) { resume_ = resume; }

    /** Restricts sweeps to one shard of the pair cross-product. */
    void setShard(ShardSpec shard) { shard_ = shard; }

    const ShardSpec &shard() const { return shard_; }

    /** Test-only journal-I/O injection hook; borrowed pointer,
     *  nullptr in production. */
    void setIoFaults(JournalIoFaultInjector *faults)
    {
        ioFaults_ = faults;
    }

    /** Journal file this cache reads/writes for (@p suite, @p size)
     *  under the current shard (empty when persistence is off). */
    std::string journalFile(
        const std::vector<workloads::WorkloadProfile> &suite,
        workloads::InputSize size) const;

    /**
     * Loads cached results for (@p suite, @p size) recorded under
     * @p runner's fingerprint, or runs the sweep and persists it,
     * journaling each completed pair. With resume enabled, a partial
     * journal seeds the sweep and only missing pairs are simulated;
     * a journal from a different config key is refused
     * (JournalConfigMismatchError). With a shard set, only the
     * shard's slice is loaded/run/journaled.
     * Profile pointers in returned results are rebound into @p suite.
     * The sweep is the one-session call of the sweep engine
     * (suite/fanout.hh): each trace has one reader, so the sweep
     * captures no trace arena; it replays only what the runner's
     * store already holds and otherwise generates live.
     *
     * @param observer notified after each pair of a simulated sweep,
     *        always in canonical pair order (even when the runner
     *        executes pairs on a worker pool) and including
     *        journal-replayed prefix pairs -- flagged via
     *        PairResult::replayed -- so progress counts stay
     *        consistent; never invoked on a full cache hit. Pass an
     *        empty function to disable.
     */
    std::vector<PairResult> runOrLoad(
        const SuiteRunner &runner,
        const std::vector<workloads::WorkloadProfile> &suite,
        workloads::InputSize size,
        const SuiteRunner::PairObserver &observer = {});

    /**
     * @name Sweep-session seam
     * How the sweep engine (suite/fanout.hh) drives one journal while
     * it interleaves many sweeps: beginSweep() once, checkpoint()
     * after each newly completed pair, finish() at the end -- journal
     * bytes identical at any job count and any number of sessions.
     */
    /// @{

    /** The journal-replayed state a sweep session starts from. */
    struct SweepPrefix
    {
        /** Order-verified replayed prefix, profiles bound into the
         *  session's suite, PairResult::replayed set. */
        std::vector<PairResult> rows;
        /** Every expected pair was already journaled: the session has
         *  nothing to run (rows are the full result set). */
        bool complete = false;
    };

    /**
     * Opens a sweep session: reads the journal under runOrLoad()'s
     * exact policy -- a complete order-verified journal returns all
     * rows with complete=true even without resume; a partial prefix is
     * returned only with resume enabled; a config-mismatched journal
     * under resume throws JournalConfigMismatchError; anything else is
     * an empty prefix -- and starts a fresh journal session
     * (suite/journal.hh) for the commits below.
     * @p pairs must be the shard slice the session will run, in
     * canonical order (shardPairs of the full enumeration).
     */
    SweepPrefix beginSweep(
        const SuiteRunner &runner,
        const std::vector<workloads::WorkloadProfile> &suite,
        workloads::InputSize size,
        const std::vector<workloads::AppInputPair> &pairs);

    /** Quiet mid-sweep checkpoint: atomically commits @p results as
     *  the journal's new prefix (unwritable locations warn once per
     *  session, not once per pair). The session is the one
     *  beginSweep() opened for this @p runner, @p suite and @p size. */
    void checkpoint(const SuiteRunner &runner,
                    const std::vector<workloads::WorkloadProfile> &suite,
                    workloads::InputSize size,
                    const std::vector<PairResult> &results) const;

    /** Final loud commit of a sweep session. */
    void finish(const SuiteRunner &runner,
                const std::vector<workloads::WorkloadProfile> &suite,
                workloads::InputSize size,
                const std::vector<PairResult> &results) const;

    /// @}

    /** Drops everything persisted at this path (current shard's
     *  files included). */
    void invalidate();

  private:
    std::string path_;
    bool resume_ = false;
    ShardSpec shard_;
    JournalIoFaultInjector *ioFaults_ = nullptr;
    /** The current sweep's journal session, opened by beginSweep();
     *  its commits change only per-session commit state. */
    mutable JournalSession session_;
};

} // namespace suite
} // namespace spec17

#endif // SPEC17_SUITE_RESULT_CACHE_HH_
