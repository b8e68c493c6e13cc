#include "trace/phased.hh"

#include "util/logging.hh"

namespace spec17 {
namespace trace {

PhasedTrace::PhasedTrace(std::vector<std::shared_ptr<TraceSource>> phases)
    : phases_(std::move(phases))
{
    SPEC17_ASSERT(!phases_.empty(), "phased trace needs >= 1 phase");
    for (const auto &phase : phases_)
        SPEC17_ASSERT(phase != nullptr, "null phase source");
}

bool
PhasedTrace::next(isa::MicroOp &op)
{
    while (current_ < phases_.size()) {
        if (phases_[current_]->next(op))
            return true;
        // A child that produced nothing is either exhausted or merely
        // paused by cooperative cancellation. Advancing past a paused
        // child would silently drop its remaining ops and splice the
        // next phase's head into the stream, so only an exhausted
        // child moves the cursor.
        if (phases_[current_]->cancelled())
            return false;
        ++current_;
    }
    return false;
}

std::size_t
PhasedTrace::nextBatchSoA(MicroOpBatch &out, std::size_t at, std::size_t n)
{
    // One phase-boundary check per child batch instead of per op; a
    // batch spanning a phase boundary is stitched together from the
    // tail of one child and the head of the next, each child writing
    // its contribution at the running lane position.
    out.ensure(at + n);
    std::size_t filled = 0;
    while (filled < n && current_ < phases_.size()) {
        const std::size_t want = n - filled;
        const std::size_t got =
            phases_[current_]->nextBatchSoA(out, at + filled, want);
        filled += got;
        if (got < want) {
            // Short child return: exhausted -> next phase; paused by
            // cancellation -> stop here so the phase remainder resumes
            // once the flag clears (matches the next()-loop stream).
            if (phases_[current_]->cancelled())
                break;
            ++current_;
        }
    }
    return filled;
}

bool
PhasedTrace::cancelled() const
{
    return current_ < phases_.size() && phases_[current_]->cancelled();
}

void
PhasedTrace::reset()
{
    for (const auto &phase : phases_)
        phase->reset();
    current_ = 0;
}

std::uint64_t
PhasedTrace::virtualReserveBytes() const
{
    std::uint64_t most = 0;
    for (const auto &phase : phases_) {
        if (phase->virtualReserveBytes() > most)
            most = phase->virtualReserveBytes();
    }
    return most;
}

} // namespace trace
} // namespace spec17
