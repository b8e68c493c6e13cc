/**
 * @file
 * Memory-footprint tracking. The paper polls `ps -o vsz,rss` while
 * the benchmark runs and reports the maxima; we track the resident
 * set exactly, as the set of distinct 4 KiB pages the workload
 * touches, and take VSZ from the trace's declared reservation.
 */

#ifndef SPEC17_SIM_FOOTPRINT_HH_
#define SPEC17_SIM_FOOTPRINT_HH_

#include <cstdint>
#include <vector>

namespace spec17 {
namespace sim {

/**
 * Tracks distinct pages touched (instruction and data).
 *
 * The page set is an open-addressing hash table (linear probing,
 * power-of-two capacity): touch() sits on the simulator's per-op hot
 * path, where node-based std::unordered_set insertion cost dominated.
 * Only the set's *content* is observable (pagesTouched / rssBytes),
 * so the table layout is free to differ from any particular std
 * implementation.
 */
class FootprintTracker
{
  public:
    static constexpr std::uint64_t kPageBytes = 4096;

    FootprintTracker() : slots_(kInitialSlots, kEmpty) {}

    /** Records a touched byte address; true when its page is new. */
    bool
    touch(std::uint64_t addr)
    {
        const std::uint64_t page = addr / kPageBytes;
        if (page == lastPage_)
            return false; // fast path: consecutive touches to one page
        lastPage_ = page;
        return insert(page);
    }

    /** Distinct pages touched so far. */
    std::uint64_t pagesTouched() const { return count_; }

    /** Resident set size in bytes. */
    std::uint64_t rssBytes() const { return count_ * kPageBytes; }

    void
    clear()
    {
        slots_.assign(kInitialSlots, kEmpty);
        count_ = 0;
        lastPage_ = kEmpty;
    }

  private:
    /** Page numbers are addr >> 12, so all-ones never occurs. */
    static constexpr std::uint64_t kEmpty = ~std::uint64_t(0);
    static constexpr std::size_t kInitialSlots = 1024;

    /** Fibonacci-style mix so strided page sequences spread. */
    static std::uint64_t
    mix(std::uint64_t x)
    {
        x *= 0x9e3779b97f4a7c15ULL;
        return x ^ (x >> 32);
    }

    /** Adds @p page; false when it was already in the set. */
    bool
    insert(std::uint64_t page)
    {
        const std::uint64_t mask = slots_.size() - 1;
        std::uint64_t i = mix(page) & mask;
        for (;;) {
            const std::uint64_t slot = slots_[i];
            if (slot == page)
                return false;
            if (slot == kEmpty)
                break;
            i = (i + 1) & mask;
        }
        slots_[i] = page;
        ++count_;
        // Grow at 70% load to keep probe chains short.
        if (count_ * 10 >= slots_.size() * 7)
            grow();
        return true;
    }

    void
    grow()
    {
        std::vector<std::uint64_t> old = std::move(slots_);
        slots_.assign(old.size() * 2, kEmpty);
        const std::uint64_t mask = slots_.size() - 1;
        for (std::uint64_t page : old) {
            if (page == kEmpty)
                continue;
            std::uint64_t i = mix(page) & mask;
            while (slots_[i] != kEmpty)
                i = (i + 1) & mask;
            slots_[i] = page;
        }
    }

    std::vector<std::uint64_t> slots_;
    std::uint64_t count_ = 0;
    std::uint64_t lastPage_ = kEmpty;
};

} // namespace sim
} // namespace spec17

#endif // SPEC17_SIM_FOOTPRINT_HH_
