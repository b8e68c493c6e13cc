/**
 * @file
 * Journal-backed store for co-run campaigns on the shared v2 journal
 * format (suite/journal.hh): a campaign header binding config
 * fingerprint + group digest + shard identity, a CSV column header
 * ending in record_hash, and one hash-bound record per completed
 * group in canonical group order.
 *
 * The store keeps only what is specific to co-run groups -- the row
 * codec, the `corun` file stem and the group-set digest -- and runs
 * every sweep through the suite's journal session
 * (suite::JournalSession). The suite's properties therefore follow:
 * atomic commits after every completed group (readers only ever see a
 * valid prefix), resume replays the verified prefix and simulates only
 * the remainder, a damaged tail is quarantined and rewritten clean,
 * round-robin shards merge back byte-identically with `spec17 merge`,
 * and parallel sweeps journal through the ordered pool so every
 * checkpoint -- and the final file -- is byte-identical to a
 * sequential run.
 */

#ifndef SPEC17_CORUN_STORE_HH_
#define SPEC17_CORUN_STORE_HH_

#include <string>
#include <vector>

#include "corun/plan.hh"
#include "corun/runner.hh"
#include "suite/journal.hh"
#include "suite/runner.hh"

namespace spec17 {
namespace corun {

/** 16-hex-digit FNV-1a fingerprint of @p runner's config key. */
std::string corunConfigFingerprint(const CorunRunner &runner);

/** Serializes one result into its journal payload (no hash cell). */
std::string serializeCorunRow(const CorunResult &result);

/** Parses a payload back; empty name + @p reason set on damage. */
CorunResult parseCorunRow(const std::string &payload,
                          std::string &reason);

/**
 * Journal-backed co-run result store. One campaign = one planned
 * group enumeration (pre-shard) under one runner config.
 */
class CorunStore
{
  public:
    /** @param path journal base path ("" disables persistence);
     *  @param resume replay a partial journal instead of discarding. */
    explicit CorunStore(std::string path, bool resume = false);

    void setResume(bool resume) { resume_ = resume; }

    /** Restricts the sweep to one shard of the group enumeration. */
    void setShard(suite::ShardSpec shard) { shard_ = shard; }

    /** Journal file for the current shard:
     *  `<base>.corun.<size>[.shardKofN].csv` ("" when disabled). */
    std::string journalFile(const CorunRunner &runner) const;

    /**
     * Loads this shard's results for @p groups (the full canonical
     * enumeration, pre-shard) recorded under @p runner's fingerprint,
     * or runs the missing remainder on the ordered worker pool
     * (CorunOptions::jobs) and journals each completed group. Resume
     * semantics are ResultCache's, from the same journal session: a
     * verified prefix is replayed (flagged CorunResult::replayed) and
     * a journal from a different config key throws
     * suite::JournalConfigMismatchError; without resume, any partial
     * or foreign journal is a miss. An empty path journals nothing.
     *
     * @p observer sees every result of the shard -- replayed and
     * simulated -- in canonical order, never concurrently, and never
     * on a full cache hit.
     */
    std::vector<CorunResult> runOrLoad(
        const CorunRunner &runner, const std::vector<CorunGroup> &groups,
        const CorunRunner::GroupObserver &observer = {});

    /** Removes this path's co-run journals (current shard included). */
    void invalidate() const;

  private:
    std::string path_;
    bool resume_ = false;
    suite::ShardSpec shard_;
};

} // namespace corun
} // namespace spec17

#endif // SPEC17_CORUN_STORE_HH_
