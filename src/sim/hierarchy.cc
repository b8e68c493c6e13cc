#include "sim/hierarchy.hh"

#include "util/logging.hh"

namespace spec17 {
namespace sim {

std::string
hitLevelName(HitLevel level)
{
    switch (level) {
      case HitLevel::L1: return "L1";
      case HitLevel::L2: return "L2";
      case HitLevel::L3: return "L3";
      case HitLevel::Memory: return "memory";
    }
    SPEC17_PANIC("unknown HitLevel");
}

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config,
                               std::shared_ptr<SetAssocCache> shared_l3,
                               std::uint64_t seed,
                               CacheHierarchy *recycle)
    : config_(config),
      l1i_(std::make_unique<SetAssocCache>(
          config.l1i, deriveSeed(seed, "l1i"),
          recycle ? recycle->l1i_.get() : nullptr)),
      l1d_(std::make_unique<SetAssocCache>(
          config.l1d, deriveSeed(seed, "l1d"),
          recycle ? recycle->l1d_.get() : nullptr)),
      l2_(std::make_unique<SetAssocCache>(
          config.l2, deriveSeed(seed, "l2"),
          recycle ? recycle->l2_.get() : nullptr)),
      // The donor's L3 buffers are only safe to strip when the donor
      // holds the last reference (a shared L3 may outlive it).
      l3_(shared_l3 ? std::move(shared_l3)
                    : makeSharedL3(config, seed,
                                   recycle
                                           && recycle->l3_.use_count()
                                               == 1
                                       ? recycle->l3_.get()
                                       : nullptr))
{
    StreamConfig stream;
    stream.degree = config.streamDegree;
    stream.distance = config.streamDistance;
    stream.lineBytes = config.l1d.lineBytes;
    prefetcher_ = makePrefetcher(config.prefetcher, stream);
    l2Prefetcher_ = makePrefetcher(config.l2Prefetcher, stream);
    // Track prefetched lines wherever a prefetcher fills, so demand
    // hits on them are counted useful (accuracy / coverage).
    if (prefetcher_) {
        l1d_->enablePrefetchTracking();
        l2_->enablePrefetchTracking();
    } else if (l2Prefetcher_) {
        l2_->enablePrefetchTracking();
    }
}

std::shared_ptr<SetAssocCache>
CacheHierarchy::makeSharedL3(const HierarchyConfig &config,
                             std::uint64_t seed,
                             SetAssocCache *recycle)
{
    return std::make_shared<SetAssocCache>(config.l3,
                                           deriveSeed(seed, "l3"),
                                           recycle);
}

HitLevel
CacheHierarchy::accessData(std::uint64_t addr, bool is_write,
                           std::uint64_t pc)
{
    HitLevel level;
    if (l1d_->access(addr, is_write)) {
        level = HitLevel::L1;
    } else if (l2_->access(addr, is_write)) {
        level = HitLevel::L2;
    } else if (l3_->access(addr, is_write)) {
        level = HitLevel::L3;
    } else {
        level = HitLevel::Memory;
    }

    if (prefetcher_ && !is_write)
        observePrefetcher(pc, addr, level);
    if (l2Prefetcher_ && !is_write && level != HitLevel::L1)
        observeL2Prefetcher(pc, addr, level);
    return level;
}

void
CacheHierarchy::observePrefetcher(std::uint64_t pc, std::uint64_t addr,
                                  HitLevel level)
{
    prefetchScratch_.clear();
    prefetcher_->observe(pc, addr, level != HitLevel::L1,
                         prefetchScratch_);
    for (std::uint64_t line : prefetchScratch_)
        prefetchFill(line);
}

void
CacheHierarchy::observeL2Prefetcher(std::uint64_t pc,
                                    std::uint64_t addr, HitLevel level)
{
    prefetchScratch_.clear();
    l2Prefetcher_->observe(pc, addr,
                           level != HitLevel::L1 && level != HitLevel::L2,
                           prefetchScratch_);
    for (std::uint64_t line : prefetchScratch_)
        l2_->fill(line, 2);
}

void
CacheHierarchy::prefetchFill(std::uint64_t addr)
{
    // Prefetches fill L2 and L1D without counting demand traffic.
    l1d_->fill(addr, 1);
    l2_->fill(addr, 1);
}

void
CacheHierarchy::fillTo(std::uint64_t addr, HitLevel level)
{
    l3_->fill(addr);
    if (level == HitLevel::L2 || level == HitLevel::L1)
        l2_->fill(addr);
    if (level == HitLevel::L1)
        l1d_->fill(addr);
}

HitLevel
CacheHierarchy::accessInst(std::uint64_t addr)
{
    if (l1i_->access(addr, false))
        return HitLevel::L1;
    if (l2_->access(addr, false))
        return HitLevel::L2;
    if (l3_->access(addr, false))
        return HitLevel::L3;
    return HitLevel::Memory;
}

unsigned
CacheHierarchy::latencyOf(HitLevel level) const
{
    switch (level) {
      case HitLevel::L1: return config_.l1d.hitLatency;
      case HitLevel::L2: return config_.l2.hitLatency;
      case HitLevel::L3: return config_.l3.hitLatency;
      case HitLevel::Memory: return config_.memLatency;
    }
    SPEC17_PANIC("unknown HitLevel");
}

} // namespace sim
} // namespace spec17
