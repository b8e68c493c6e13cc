#include "telemetry/progress.hh"

#include <cstdio>
#include <vector>

#include "util/logging.hh"

namespace spec17 {
namespace telemetry {

namespace {

std::string
fmtFixed(double value, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    return buf;
}

} // namespace

ProgressReporter::ProgressReporter(Options options)
    : options_(options), start_(std::chrono::steady_clock::now()),
      lastEmit_(start_ - std::chrono::hours(1))
{
}

void
ProgressReporter::onItemDone(const std::string &name, std::size_t index,
                             std::size_t total, std::uint64_t ops,
                             unsigned attempts, bool errored,
                             bool replayed)
{
    (void)index;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto now = std::chrono::steady_clock::now();
    if (done_ > 0 && done_ == total_) {
        // The previous sweep finished: this item opens the next one
        // (e.g. the next coordinate-descent stage), counted against
        // its own total.
        done_ = replayedCount_ = erroredCount_ = 0;
        simulatedOps_ = 0;
        start_ = now;
        lastEmit_ = now - std::chrono::hours(1);
    }
    total_ = total;
    ++done_;
    if (replayed)
        ++replayedCount_;
    else
        simulatedOps_ += ops;
    erroredCount_ += errored ? 1 : 0;

    // Count-based, not index-based: with parallel workers the item
    // carrying the last index can complete long before the sweep is
    // actually done, and the truly last completion can carry any
    // index. Every item is reported exactly once, so done_ == total
    // identifies the final event reliably.
    const bool last = done_ == total;
    const auto since_emit =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - lastEmit_)
            .count();
    if (!last
        && static_cast<std::uint64_t>(since_emit)
            < options_.minIntervalMs)
        return;
    lastEmit_ = now;

    const double elapsed_s =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            now - start_)
            .count();
    // Rate and ETA are built from simulated items only: journal
    // replays finish in microseconds and would otherwise make a
    // resumed sweep project a wildly optimistic finish time.
    const std::size_t simulated_done = done_ - replayedCount_;
    const double ops_per_s =
        elapsed_s > 0.0 ? double(simulatedOps_) / elapsed_s : 0.0;
    const double eta_s = simulated_done > 0 && total > done_
        ? elapsed_s / double(simulated_done) * double(total - done_)
        : 0.0;

    std::vector<LogField> fields;
    if (!options_.shardLabel.empty())
        fields.push_back({"shard", options_.shardLabel});
    fields.push_back({"pair", name});
    fields.push_back(
        {"done", std::to_string(done_) + "/" + std::to_string(total)});
    fields.push_back({"attempts", std::to_string(attempts)});
    fields.push_back({"errored", std::to_string(erroredCount_)});
    fields.push_back({"ops_per_s", fmtFixed(ops_per_s, 0)});
    fields.push_back({"elapsed_s", fmtFixed(elapsed_s, 1)});
    fields.push_back({"eta_s", fmtFixed(eta_s, 1)});
    if (options_.stream != nullptr)
        *options_.stream << formatEvent("sweep_progress", fields)
                         << "\n";
    else
        logEvent("sweep_progress", fields);
}

} // namespace telemetry
} // namespace spec17
