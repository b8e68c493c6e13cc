/**
 * @file
 * Abstract micro-op trace source consumed by the CPU simulator.
 */

#ifndef SPEC17_TRACE_SOURCE_HH_
#define SPEC17_TRACE_SOURCE_HH_

#include <cstddef>
#include <cstdint>

#include "isa/uop.hh"
#include "trace/batch.hh"

namespace spec17 {
namespace trace {

/**
 * A finite stream of micro-ops. Sources are pull-based: the simulator
 * calls next() until it returns false (the unbatched reference lane),
 * or pulls whole chunks of SoA lanes through nextBatchSoA() or the
 * zero-copy nextLanes() (the batched fast lane -- see
 * docs/performance.md).
 *
 * The three surfaces describe one stream: pulling N ops one at a time
 * through next() and pulling them through either batch surface in
 * chunks of any size must yield the identical op sequence, and the
 * surfaces may be mixed freely at any point of the stream.
 *
 * A source is read once, from its first op on. A second pass builds a
 * second source: two sources built from equal parameters emit
 * identical streams, which is the framework's determinism guarantee.
 * A retry opens a fresh trace with a perturbed seed; nothing rewinds
 * one.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produces the next micro-op.
     * @param op output micro-op; untouched when the stream is done.
     * @return true if @p op was produced, false at end of stream.
     */
    virtual bool next(isa::MicroOp &op) = 0;

    /**
     * Produces up to @p n micro-ops into the SoA lanes of @p out,
     * starting at lane slot @p at -- the batched fast lane's native
     * surface (the simulator consumes lanes, never AoS structs).
     *
     * Semantically equivalent to calling next() @p n times: the ops
     * delivered and the post-call source state are identical. A short
     * return (fewer than @p n ops) means the stream ended exactly
     * where next() would have returned false; subsequent calls return
     * 0. Writers fill every lane of every delivered op (see
     * MicroOpBatch).
     *
     * The default adapter loops next() and scatters each op into the
     * lanes; sources on the hot path override this to fill lanes
     * directly.
     *
     * @return number of micro-ops written (<= @p n); lanes are sized
     *         to at least @p at + @p n on entry.
     */
    virtual std::size_t
    nextBatchSoA(MicroOpBatch &out, std::size_t at, std::size_t n)
    {
        out.ensure(at + n);
        std::size_t got = 0;
        isa::MicroOp op;
        while (got < n && next(op))
            out.set(at + got++, op);
        return got;
    }

    /**
     * Zero-copy variant of nextBatchSoA(): instead of copying lanes
     * into a caller-owned batch, returns a pointer to a lane buffer
     * the SOURCE owns, with @p at set to the slot of the first
     * delivered op and @p got to the number delivered (<= @p n). The
     * stream contract is unchanged -- the delivered ops and the
     * post-call state are exactly those of a nextBatchSoA() pull of
     * @p n ops, and a short @p got means the stream ended.
     *
     * The returned lanes stay valid until the source is mutated or
     * destroyed; callers must not write through them. Sources without
     * a resident lane representation return nullptr (the default, and
     * then @p at / @p got are untouched); callers fall back to
     * nextBatchSoA(). A source may also decline any single pull this
     * way -- a shifted replay declines every pull, a read-ahead source
     * (trace/read_ahead.hh) one that would straddle two of its blocks
     * -- and the stream is unchanged: the declined pull consumed
     * nothing. The replay arena (trace/arena.hh) overrides this to
     * serve captured lanes without a copy.
     */
    virtual const MicroOpBatch *
    nextLanes(std::size_t n, std::size_t &at, std::size_t &got)
    {
        (void)n;
        (void)at;
        (void)got;
        return nullptr;
    }

    /**
     * Virtual address space the workload reserves beyond what it
     * touches (the paper's VSZ vs RSS gap). Defaults to zero.
     */
    virtual std::uint64_t virtualReserveBytes() const { return 0; }
};

} // namespace trace
} // namespace spec17

#endif // SPEC17_TRACE_SOURCE_HH_
