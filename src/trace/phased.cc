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
        if (got < want)
            ++current_; // a short child return: the phase is exhausted
    }
    return filled;
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
