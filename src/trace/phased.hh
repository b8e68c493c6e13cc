/**
 * @file
 * Trace composition: concatenates several trace sources into one
 * stream. Real programs execute through phases (initialization,
 * compute sweeps, cleanup); the paper's future-work section proposes
 * exploiting such phase behaviour, and this combinator lets tests,
 * examples and the phase analyzer construct programs with known
 * phase structure.
 */

#ifndef SPEC17_TRACE_PHASED_HH_
#define SPEC17_TRACE_PHASED_HH_

#include <memory>
#include <vector>

#include "trace/source.hh"

namespace spec17 {
namespace trace {

/** Plays its child sources back to back. */
class PhasedTrace : public TraceSource
{
  public:
    /** @param phases child sources, played in order (none null). */
    explicit PhasedTrace(
        std::vector<std::shared_ptr<TraceSource>> phases);

    bool next(isa::MicroOp &op) override;
    std::size_t nextBatchSoA(MicroOpBatch &out, std::size_t at,
                             std::size_t n) override;
    std::uint64_t virtualReserveBytes() const override;

    /** Number of child phases. */
    std::size_t numPhases() const { return phases_.size(); }

    /** Index of the child currently playing (== numPhases() at end). */
    std::size_t currentPhase() const { return current_; }

  private:
    std::vector<std::shared_ptr<TraceSource>> phases_;
    std::size_t current_ = 0;
};

} // namespace trace
} // namespace spec17

#endif // SPEC17_TRACE_PHASED_HH_
