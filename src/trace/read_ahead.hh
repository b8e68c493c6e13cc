/**
 * @file
 * Read-ahead trace generation: a TraceSource decorator that pulls its
 * wrapped source on a helper thread, one block ahead of the consumer.
 *
 * Generating a live synthetic trace takes about a third of its
 * simulating thread's time (docs/performance.md). When a spare CPU
 * sits idle beside the simulating thread, ReadAheadSource moves the
 * generation there: a helper fills a ring of two kBlockOps-op
 * MicroOpBatch blocks from the wrapped source while the consumer
 * simulates the other block, and hands each filled block over without
 * a copy (nextLanes() returns a view into it).
 *
 * The handoff is two atomic block counters, one per side. Each side
 * spins on the other's counter for a bounded time (the helper about
 * 0.5 ms, the consumer about 50 us), relaxed with the CPU's pause
 * hint, and then parks on it (std::atomic::wait); a side notifies its
 * peer only when the peer is parked. A handoff that parks on every
 * block lets the scheduler run the helper on the consumer's CPU, which
 * serializes the two, and a side that spins on its peer's CPU keeps
 * the peer from running, so a side that finds itself there parks at
 * once (docs/performance.md, "Read-ahead generation").
 */

#ifndef SPEC17_TRACE_READ_AHEAD_HH_
#define SPEC17_TRACE_READ_AHEAD_HH_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>

#include <pthread.h>

#include "trace/batch.hh"
#include "trace/source.hh"

namespace spec17 {
namespace trace {

/**
 * Serves the stream of a wrapped source, generated a block ahead on a
 * helper thread. Satisfies the full stream contract on all three
 * surfaces, mixed freely: the delivered ops are exactly the wrapped
 * source's.
 *
 * - The helper starts on the first pull, so whatever the owner does
 *   with the wrapped source before then (prefill reads a generator's
 *   region layout) finishes before another thread touches it. From
 *   the first pull until destruction only the helper may touch it.
 * - nextLanes() serves a view into the block being read. A pull that
 *   would straddle two blocks returns nullptr (the caller stages it
 *   through nextBatchSoA()); a short view only ever ends the stream.
 * - An exception the wrapped source throws while the helper fills a
 *   block is rethrown to the consumer at the pull that first asks for
 *   that block's ops, after every op the source delivered before it,
 *   and again at every later pull. The throwing fill delivered no op,
 *   as a throwing pull delivers none to any consumer.
 * - The destructor stops and joins the helper, also after a partial
 *   read: the helper finishes at most the block it is filling.
 * - Both blocks are sized on the constructing thread, and the helper
 *   is a bare pthread (a std::thread frees its start-up record on the
 *   new thread), so the helper never calls malloc or free and glibc
 *   gives it no malloc arena of its own. The ring holds 2 * kBlockOps
 *   ops at 20 bytes an op, 80 KiB.
 */
class ReadAheadSource : public TraceSource
{
  public:
    /** Micro-ops per ring block. */
    static constexpr std::size_t kBlockOps = 2048;

    /** Reads @p source ahead; @p source must be freshly constructed
     *  or at least not mid-pull, and nothing else may pull it. */
    explicit ReadAheadSource(std::shared_ptr<TraceSource> source);
    ~ReadAheadSource() override;

    ReadAheadSource(const ReadAheadSource &) = delete;
    ReadAheadSource &operator=(const ReadAheadSource &) = delete;

    bool next(isa::MicroOp &op) override;
    std::size_t nextBatchSoA(MicroOpBatch &out, std::size_t at,
                             std::size_t n) override;
    const MicroOpBatch *nextLanes(std::size_t n, std::size_t &at,
                                  std::size_t &got) override;

    /** The wrapped source's, read at construction. */
    std::uint64_t
    virtualReserveBytes() const override
    {
        return reserveBytes_;
    }

    /** Ops handed to the consumer so far -- the telemetry counter. The
     *  wrapped generator's own count runs up to a block ahead. */
    std::uint64_t deliveredOps() const { return delivered_; }

  private:
    /** One ring slot: block b of the stream lives in slot b % 2. */
    struct Block
    {
        MicroOpBatch lanes;
        /** Ops the fill delivered; below kBlockOps ends the stream. */
        std::size_t count = 0;
        /** What the fill threw, if it threw (then count is 0). */
        std::exception_ptr error;
    };

    /** The helper's loop: fills block after block until the stream
     *  ends or the destructor stops it. */
    void fill();
    /** The block being read, with at least one unread op; nullptr at
     *  the end of the stream. Starts the helper on the first call and
     *  rethrows a block's error. */
    const Block *readable();

    std::shared_ptr<TraceSource> source_;
    std::uint64_t reserveBytes_ = 0;
    std::array<Block, 2> ring_;

    /** @name Handoff (see the file comment)
     *  Each side writes its own cache line, so the line a side spins
     *  on changes only when the other side hands a block over. */
    /// @{
    alignas(64) std::atomic<std::uint32_t> filled_{0}; //!< published
    std::atomic<bool> helperParked_{false};
    std::atomic<int> helperCpu_{-1}; //!< where it last published
    alignas(64) std::atomic<std::uint32_t> released_{0}; //!< read out
    std::atomic<bool> consumerParked_{false};
    std::atomic<int> consumerCpu_{-1}; //!< where it last released
    std::atomic<bool> stop_{false};
    /// @}

    /** @name Consumer side (touched by the consumer only) */
    /// @{
    alignas(64) pthread_t helper_{};
    bool started_ = false;     //!< helper_ runs (from the first pull)
    std::uint32_t block_ = 0;  //!< block being read
    bool acquired_ = false;    //!< block_ has been published
    std::size_t cursor_ = 0;   //!< next unread op in block_
    std::uint64_t delivered_ = 0;
    /// @}
};

} // namespace trace
} // namespace spec17

#endif // SPEC17_TRACE_READ_AHEAD_HH_
