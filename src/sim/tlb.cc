#include "sim/tlb.hh"

#include <algorithm>

#include "util/logging.hh"

namespace spec17 {
namespace sim {

void
TlbConfig::validate() const
{
    SPEC17_ASSERT(l1Entries >= 1, "L1 TLB needs entries");
    SPEC17_ASSERT(l2Entries >= l1Entries,
                  "L2 TLB smaller than L1 makes no sense");
    SPEC17_ASSERT(pageBytes >= 64
                      && (pageBytes & (pageBytes - 1)) == 0,
                  "page size must be a power of two >= 64");
}

bool
Tlb::Level::lookupAndTouch(std::uint64_t page)
{
    const auto it = std::find(pages.begin(), pages.end(), page);
    if (it == pages.end())
        return false;
    pages.erase(it);
    pages.insert(pages.begin(), page);
    return true;
}

void
Tlb::Level::insert(std::uint64_t page)
{
    pages.insert(pages.begin(), page);
    if (pages.size() > capacity)
        pages.pop_back();
}

Tlb::Tlb(const TlbConfig &config) : config_(config)
{
    config_.validate();
    l1_.capacity = config_.l1Entries;
    l2_.capacity = config_.l2Entries;
    l1_.pages.reserve(config_.l1Entries + 1);
    l2_.pages.reserve(config_.l2Entries + 1);
}

TlbOutcome
Tlb::access(std::uint64_t addr)
{
    const std::uint64_t page = addr / config_.pageBytes;
    ++stats_.accesses;

    TlbOutcome outcome;
    if (l1_.lookupAndTouch(page)) {
        outcome.l1Hit = true;
        return outcome;
    }
    ++stats_.l1Misses;
    if (l2_.lookupAndTouch(page)) {
        outcome.l2Hit = true;
        outcome.extraLatency = config_.l2HitLatency;
        l1_.insert(page);
        return outcome;
    }
    ++stats_.walks;
    outcome.extraLatency = config_.walkLatency;
    l2_.insert(page);
    l1_.insert(page);
    return outcome;
}

void
Tlb::flushAll()
{
    l1_.pages.clear();
    l2_.pages.clear();
}

} // namespace sim
} // namespace spec17
