/**
 * @file
 * Live sweep progress: a throttled reporter that turns per-pair
 * completions into structured `sweep_progress` log events (pair k/N,
 * attempts, ops/s, ETA), so a multi-minute sweep is observable from
 * its stderr stream instead of silent until the final table.
 */

#ifndef SPEC17_TELEMETRY_PROGRESS_HH_
#define SPEC17_TELEMETRY_PROGRESS_HH_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>

namespace spec17 {
namespace telemetry {

/**
 * Emits at most one progress event per throttle window (plus always
 * the final item), rate-limiting log volume on fast sweeps while
 * keeping slow ones talkative. The final item is detected by count
 * (every item reported), not by index, so it fires even when
 * parallel workers complete out of order. Safe for concurrent
 * callers. Consecutive sweeps may share a reporter: the item after a
 * sweep's final one opens a fresh count (done, rate and ETA) against
 * its own total.
 */
class ProgressReporter
{
  public:
    struct Options
    {
        /** Minimum milliseconds between events (0 = every item). */
        std::uint64_t minIntervalMs = 1000;
        /** Event destination; nullptr logs via logEvent (stderr). */
        std::ostream *stream = nullptr;
        /** Shard identity ("K/N") stamped on every event of a
         *  sharded campaign, so interleaved shard logs stay
         *  attributable; empty (the default) omits the field. */
        std::string shardLabel;
    };

    ProgressReporter() : ProgressReporter(Options{}) {}
    explicit ProgressReporter(Options options);

    /**
     * Records completion of 0-based item @p index of @p total.
     * @param name the completed item (pair display name).
     * @param ops micro-ops the item retired (0 when unknown).
     * @param attempts attempts the item consumed.
     * @param errored whether the item exhausted its attempts.
     * @param replayed true when the item was replayed from the
     *        result-cache journal instead of simulated. Replays
     *        complete in microseconds, so they count toward done/N
     *        but are excluded from the ops/s rate and the ETA --
     *        otherwise a resumed sweep projects an absurd finish
     *        time from its replay burst.
     */
    void onItemDone(const std::string &name, std::size_t index,
                    std::size_t total, std::uint64_t ops,
                    unsigned attempts, bool errored,
                    bool replayed = false);

    /** Items of the current sweep reported so far. */
    std::size_t itemsDone() const { return done_; }

  private:
    Options options_;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point lastEmit_;
    /** Serializes callers: parallel-sweep workers may report through
     *  seams that are not already ordered (e.g. direct use). */
    std::mutex mutex_;
    std::size_t done_ = 0;
    /** Total of the latest report (the current sweep's size). */
    std::size_t total_ = 0;
    std::size_t replayedCount_ = 0;
    /** Micro-ops retired by simulated (non-replayed) items only;
     *  rate and ETA estimates are based on these. */
    std::uint64_t simulatedOps_ = 0;
    std::size_t erroredCount_ = 0;
};

} // namespace telemetry
} // namespace spec17

#endif // SPEC17_TELEMETRY_PROGRESS_HH_
