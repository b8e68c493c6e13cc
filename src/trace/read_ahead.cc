#include "trace/read_ahead.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <system_error>

#include <sched.h>

#include "util/logging.hh"

namespace spec17 {
namespace trace {

namespace {

using Clock = std::chrono::steady_clock;

/** How long each side spins on the other's counter before it parks.
 *  The helper outwaits the simulation of a block (about 0.1 ms), so
 *  in steady state it never parks; the consumer, which waits only
 *  when generation falls behind, parks soon. */
constexpr Clock::duration kHelperSpin = std::chrono::microseconds(500);
constexpr Clock::duration kConsumerSpin = std::chrono::microseconds(50);

/** Spin iterations between two clock reads. */
constexpr unsigned kSpinsPerClockRead = 16;

/** One spin-wait iteration: the pause hint on x86, where it yields
 *  the core's pipeline to its sibling hyperthread; a plain spin
 *  elsewhere. */
inline void
relax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/**
 * Waits until @p counter reaches @p target or @p stop is set: spins
 * for @p spin, then raises @p parked and parks on @p counter until
 * the peer, which notifies only a parked side, moves it. Both the
 * raise and the peer's store-then-check are sequentially consistent,
 * so either the peer sees @p parked or this side sees the peer's
 * store: no wake-up is lost.
 *
 * A side that finds itself on @p peer_cpu, the CPU its peer last
 * handed a block over from, parks at once: when the scheduler has put
 * both on one CPU, spinning there only keeps the peer from running.
 */
void
await(const std::atomic<std::uint32_t> &counter, std::uint32_t target,
      std::atomic<bool> &parked, Clock::duration spin,
      const std::atomic<bool> &stop, const std::atomic<int> &peer_cpu)
{
    const Clock::time_point deadline = Clock::now() + spin;
    for (unsigned i = 1;
         counter.load(std::memory_order_acquire) < target && !stop.load();
         ++i) {
        if (i % kSpinsPerClockRead == 0
            && (Clock::now() >= deadline
                || sched_getcpu()
                    == peer_cpu.load(std::memory_order_relaxed))) {
            parked.store(true);
            for (std::uint32_t seen = counter.load();
                 seen < target && !stop.load(); seen = counter.load())
                counter.wait(seen);
            parked.store(false, std::memory_order_relaxed);
            return;
        }
        relax();
    }
}

/** Publishes @p count into @p counter, waking the peer if parked,
 *  and records the CPU it was published from in @p cpu. */
void
publish(std::atomic<std::uint32_t> &counter, std::uint32_t count,
        const std::atomic<bool> &peer_parked, std::atomic<int> &cpu)
{
    cpu.store(sched_getcpu(), std::memory_order_relaxed);
    counter.store(count);
    if (peer_parked.load())
        counter.notify_one();
}

} // namespace

ReadAheadSource::ReadAheadSource(std::shared_ptr<TraceSource> source)
    : source_(std::move(source))
{
    SPEC17_ASSERT(source_ != nullptr, "ReadAheadSource needs a source");
    reserveBytes_ = source_->virtualReserveBytes();
    for (Block &block : ring_)
        block.lanes.ensure(kBlockOps);
}

ReadAheadSource::~ReadAheadSource()
{
    if (!started_)
        return;
    // Moving released_ wakes a parked helper; it then sees stop_.
    stop_.store(true);
    released_.fetch_add(1);
    released_.notify_one();
    pthread_join(helper_, nullptr);
}

void
ReadAheadSource::fill()
{
    const auto slots = static_cast<std::uint32_t>(ring_.size());
    for (std::uint32_t b = 0;; ++b) {
        // Block b reuses the slot of block b - 2, free once the
        // consumer has read that block out: the helper runs at most
        // one block ahead of the block being read.
        if (b >= slots)
            await(released_, b - slots + 1, helperParked_, kHelperSpin,
                  stop_, consumerCpu_);
        if (stop_.load(std::memory_order_acquire))
            return;
        Block &block = ring_[b % slots];
        try {
            block.count = source_->nextBatchSoA(block.lanes, 0, kBlockOps);
        } catch (...) {
            block.count = 0;
            block.error = std::current_exception();
        }
        const bool last = block.count < kBlockOps;
        publish(filled_, b + 1, consumerParked_, helperCpu_);
        if (last)
            return;
    }
}

const ReadAheadSource::Block *
ReadAheadSource::readable()
{
    if (!started_) {
        const auto run = [](void *self) -> void * {
            static_cast<ReadAheadSource *>(self)->fill();
            return nullptr;
        };
        if (const int error = pthread_create(&helper_, nullptr, run, this))
            throw std::system_error(error, std::generic_category(),
                                    "cannot start the read-ahead helper");
        started_ = true;
    }
    while (true) {
        const Block &block = ring_[block_ % ring_.size()];
        if (!acquired_) {
            await(filled_, block_ + 1, consumerParked_, kConsumerSpin,
                  stop_, helperCpu_);
            acquired_ = true;
            cursor_ = 0;
        }
        if (block.error)
            std::rethrow_exception(block.error);
        if (cursor_ < block.count)
            return &block;
        if (block.count < kBlockOps)
            return nullptr;
        // Read out: hand the slot back and move to the next block.
        publish(released_, block_ + 1, helperParked_, consumerCpu_);
        ++block_;
        acquired_ = false;
    }
}

bool
ReadAheadSource::next(isa::MicroOp &op)
{
    const Block *block = readable();
    if (block == nullptr)
        return false;
    op = block->lanes.get(cursor_++);
    ++delivered_;
    return true;
}

std::size_t
ReadAheadSource::nextBatchSoA(MicroOpBatch &out, std::size_t at,
                              std::size_t n)
{
    out.ensure(at + n);
    std::size_t got = 0;
    while (got < n) {
        const Block *block = readable();
        if (block == nullptr)
            break;
        const std::size_t m = std::min(n - got, block->count - cursor_);
        MicroOpBatch::forEachLane(
            [&](auto &to, const auto &from) {
                std::memcpy(to.data() + at + got, from.data() + cursor_,
                            m * sizeof(from[0]));
            },
            out, block->lanes);
        cursor_ += m;
        got += m;
    }
    delivered_ += got;
    return got;
}

const MicroOpBatch *
ReadAheadSource::nextLanes(std::size_t n, std::size_t &at,
                           std::size_t &got)
{
    const Block *block = readable();
    if (block == nullptr)
        return nullptr; // nextBatchSoA() reports the end
    const std::size_t left = block->count - cursor_;
    // A short view would read as the end of the stream, so a pull
    // that runs past a full block is staged through nextBatchSoA().
    if (left < n && block->count == kBlockOps)
        return nullptr;
    at = cursor_;
    got = std::min(n, left);
    cursor_ += got;
    delivered_ += got;
    return &block->lanes;
}

} // namespace trace
} // namespace spec17
