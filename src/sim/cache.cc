#include "sim/cache.hh"

#include <bit>

#include "util/logging.hh"

namespace spec17 {
namespace sim {

std::string
replacementPolicyName(ReplacementPolicy policy)
{
    switch (policy) {
      case ReplacementPolicy::Lru: return "lru";
      case ReplacementPolicy::TreePlru: return "tree-plru";
      case ReplacementPolicy::Random: return "random";
    }
    SPEC17_PANIC("unknown ReplacementPolicy");
}

std::string
wayPredictorName(WayPredictor kind)
{
    switch (kind) {
      case WayPredictor::None: return "none";
      case WayPredictor::Mru: return "mru";
      case WayPredictor::Utag: return "utag";
    }
    SPEC17_PANIC("unknown WayPredictor");
}

WayPredictor
wayPredictorFromName(const std::string &name)
{
    if (name == "none")
        return WayPredictor::None;
    if (name == "mru")
        return WayPredictor::Mru;
    if (name == "utag")
        return WayPredictor::Utag;
    SPEC17_FATAL("unknown way predictor '", name,
                 "' (want none|mru|utag)");
}

std::uint64_t
CacheConfig::numSets() const
{
    SPEC17_ASSERT(lineBytes > 0 && (lineBytes & (lineBytes - 1)) == 0,
                  name, ": line size must be a power of two");
    SPEC17_ASSERT(assoc > 0, name, ": associativity must be positive");
    SPEC17_ASSERT(sizeBytes % (static_cast<std::uint64_t>(assoc)
                               * lineBytes) == 0,
                  name, ": size not divisible by assoc * line");
    // Non-power-of-two set counts are allowed (the 30 MB 20-way L3
    // has 24576 sets); indexing falls back to modulo for them.
    return sizeBytes / (static_cast<std::uint64_t>(assoc) * lineBytes);
}

SetAssocCache::SetAssocCache(CacheConfig config, std::uint64_t seed,
                             SetAssocCache *recycle)
    : config_(std::move(config)), numSets_(config_.numSets()),
      lineShift_(static_cast<unsigned>(
          std::countr_zero(config_.lineBytes))),
      setShift_(static_cast<unsigned>(std::countr_zero(numSets_))),
      setOdd_(numSets_ >> setShift_),
      setLowMask_((std::uint64_t{1} << setShift_) - 1),
      wayPred_(config_.wayPredictor),
      rng_(deriveSeed(seed, config_.name))
{
    if (recycle != nullptr) {
        // Adopt the dead cache's heap buffers. Every lane is assigned
        // its fresh-construction image below, so only warm pages are
        // inherited, never state.
        tags_ = std::move(recycle->tags_);
        dirty_ = std::move(recycle->dirty_);
        stamps_ = std::move(recycle->stamps_);
        utags_ = std::move(recycle->utags_);
        prefetchOwner_ = std::move(recycle->prefetchOwner_);
        plruBits_ = std::move(recycle->plruBits_);
        mruWay_ = std::move(recycle->mruWay_);
    }
    if (config_.policy == ReplacementPolicy::TreePlru)
        SPEC17_ASSERT((config_.assoc & (config_.assoc - 1)) == 0,
                      config_.name,
                      ": tree-PLRU requires power-of-two ways");
    if (wayPred_ != WayPredictor::None && config_.assoc < 2)
        SPEC17_FATAL(config_.name, ": way prediction (",
                     wayPredictorName(wayPred_),
                     ") is contradictory with assoc == 1 -- a "
                     "direct-mapped cache has nothing to predict");

    const std::size_t lanes =
        static_cast<std::size_t>(numSets_) * config_.assoc;
    tags_.assign(lanes, kNoTag);
    dirty_.assign(lanes, 0);
    stamps_.assign(lanes, 0);
    utags_.clear();
    prefetchOwner_.clear();
    plruBits_.clear();
    mruWay_.clear();
    if (config_.policy == ReplacementPolicy::TreePlru)
        plruBits_.assign(numSets_ * (config_.assoc - 1), 0);
    if (wayPred_ == WayPredictor::Mru)
        mruWay_.assign(numSets_, 0);
    else if (wayPred_ == WayPredictor::Utag)
        utags_.assign(lanes, 0);
}

void
SetAssocCache::enablePrefetchTracking()
{
    SPEC17_ASSERT(stats_.accesses() == 0 && stats_.prefetchFills == 0,
                  config_.name,
                  ": enable prefetch tracking before the first access");
    trackPrefetch_ = true;
    prefetchOwner_.assign(tags_.size(), 0);
}

void
SetAssocCache::enableContextTracking(unsigned num_contexts)
{
    SPEC17_ASSERT(!trackContexts_,
                  config_.name, ": context tracking already enabled");
    SPEC17_ASSERT(num_contexts >= 1 && num_contexts <= kMaxContexts,
                  config_.name, ": context count ", num_contexts,
                  " out of range [1, ", kMaxContexts, "]");
    SPEC17_ASSERT(config_.assoc <= 32,
                  config_.name,
                  ": way masks need assoc <= 32, have ", config_.assoc);
    SPEC17_ASSERT(stats_.accesses() == 0 && stats_.prefetchFills == 0,
                  config_.name,
                  ": enable context tracking before the first access");
    trackContexts_ = true;
    ctx_ = 0;
    ctxStats_.assign(num_contexts, CacheContextStats());
    ctxOccupancy_.assign(num_contexts, 0);
    ctxMasks_.assign(num_contexts, fullWayMask());
    owner_.assign(tags_.size(), 0);
    maskedAlloc_ = false;
}

void
SetAssocCache::setContext(unsigned ctx)
{
    if (!trackContexts_) {
        SPEC17_ASSERT(ctx == 0, config_.name,
                      ": context ", ctx,
                      " selected without context tracking");
        return;
    }
    SPEC17_ASSERT(ctx < ctxStats_.size(), config_.name, ": context ",
                  ctx, " out of range (", ctxStats_.size(),
                  " contexts)");
    ctx_ = ctx;
}

void
SetAssocCache::setWayMask(unsigned ctx, std::uint32_t mask)
{
    SPEC17_ASSERT(trackContexts_, config_.name,
                  ": way masks need context tracking enabled");
    SPEC17_ASSERT(ctx < ctxStats_.size(), config_.name, ": context ",
                  ctx, " out of range (", ctxStats_.size(),
                  " contexts)");
    SPEC17_ASSERT(mask != 0, config_.name, ": context ", ctx,
                  " way mask must name at least one way");
    SPEC17_ASSERT((mask & ~fullWayMask()) == 0, config_.name,
                  ": context ", ctx, " way mask 0x", std::hex, mask,
                  std::dec, " names ways beyond the ", config_.assoc,
                  "-way associativity");
    ctxMasks_[ctx] = mask;
    maskedAlloc_ = false;
    for (const std::uint32_t m : ctxMasks_)
        maskedAlloc_ |= m != fullWayMask();
}

std::uint32_t
SetAssocCache::wayMask(unsigned ctx) const
{
    SPEC17_ASSERT(ctx < ctxMasks_.size(), config_.name, ": context ",
                  ctx, " out of range (", ctxMasks_.size(),
                  " contexts)");
    return ctxMasks_[ctx];
}

const CacheContextStats &
SetAssocCache::contextStats(unsigned ctx) const
{
    SPEC17_ASSERT(ctx < ctxStats_.size(), config_.name, ": context ",
                  ctx, " out of range (", ctxStats_.size(),
                  " contexts)");
    return ctxStats_[ctx];
}

std::uint64_t
SetAssocCache::contextOccupancy(unsigned ctx) const
{
    SPEC17_ASSERT(ctx < ctxOccupancy_.size(), config_.name,
                  ": context ", ctx, " out of range (",
                  ctxOccupancy_.size(), " contexts)");
    return ctxOccupancy_[ctx];
}

std::uint64_t
SetAssocCache::lineAddr(std::uint64_t addr) const
{
    return addr / config_.lineBytes;
}

std::uint64_t
SetAssocCache::setIndex(std::uint64_t line_addr) const
{
    if ((numSets_ & (numSets_ - 1)) == 0)
        return line_addr & (numSets_ - 1);
    return line_addr % numSets_;
}

std::uint64_t
SetAssocCache::tagOf(std::uint64_t line_addr) const
{
    return line_addr / numSets_;
}

std::size_t
SetAssocCache::findIndex(std::uint64_t addr) const
{
    const std::uint64_t la = lineAddr(addr);
    const std::uint64_t set = setIndex(la);
    const std::uint64_t tag = tagOf(la);
    const std::size_t base = set * config_.assoc;
    for (unsigned way = 0; way < config_.assoc; ++way) {
        if (tags_[base + way] == tag)
            return base + way;
    }
    return SIZE_MAX;
}

void
SetAssocCache::touch(std::uint64_t set, unsigned way)
{
    touchImpl(set, way);
}

void
SetAssocCache::plruTouch(std::uint64_t set, unsigned way)
{
    // Walk root-to-leaf, pointing each node away from this way.
    std::uint8_t *bits = plruBits_.data() + set * (config_.assoc - 1);
    unsigned node = 0;
    unsigned lo = 0, hi = config_.assoc;
    while (hi - lo > 1) {
        const unsigned mid = (lo + hi) / 2;
        if (way < mid) {
            bits[node] = 1; // protect left, point victim right
            node = 2 * node + 1;
            hi = mid;
        } else {
            bits[node] = 0; // protect right, point victim left
            node = 2 * node + 2;
            lo = mid;
        }
    }
}

unsigned
SetAssocCache::victimWay(std::uint64_t set)
{
    const std::size_t base = set * config_.assoc;
    // Invalid ways are always preferred victims.
    for (unsigned way = 0; way < config_.assoc; ++way) {
        if (tags_[base + way] == kNoTag)
            return way;
    }
    switch (config_.policy) {
      case ReplacementPolicy::Lru: {
        unsigned victim = 0;
        for (unsigned way = 1; way < config_.assoc; ++way) {
            if (stamps_[base + way] < stamps_[base + victim])
                victim = way;
        }
        return victim;
      }
      case ReplacementPolicy::TreePlru: {
        const std::uint8_t *bits =
            plruBits_.data() + set * (config_.assoc - 1);
        unsigned node = 0;
        unsigned lo = 0, hi = config_.assoc;
        while (hi - lo > 1) {
            const unsigned mid = (lo + hi) / 2;
            if (bits[node] == 0) { // victim pointer: left
                node = 2 * node + 1;
                hi = mid;
            } else {
                node = 2 * node + 2;
                lo = mid;
            }
        }
        return lo;
      }
      case ReplacementPolicy::Random:
        return static_cast<unsigned>(rng_.nextBounded(config_.assoc));
    }
    SPEC17_PANIC("unknown ReplacementPolicy");
}

unsigned
SetAssocCache::victimWayMasked(std::uint64_t set)
{
    const std::uint32_t mask = ctxMasks_[ctx_];
    const std::size_t base = set * config_.assoc;
    // Invalid allowed ways are always preferred victims, in the same
    // way order the unmasked scan uses.
    for (unsigned way = 0; way < config_.assoc; ++way) {
        if ((mask >> way & 1u) && tags_[base + way] == kNoTag)
            return way;
    }
    switch (config_.policy) {
      case ReplacementPolicy::Lru:
      case ReplacementPolicy::TreePlru: {
        // Tree-PLRU's victim pointer can walk outside a partial mask,
        // so under masks both recency policies pick the oldest stamp
        // among the allowed ways (stamps are maintained for every
        // policy). This is the documented partial-mask deviation:
        // with the full mask the unmasked victimWay() path runs and
        // tree-PLRU keeps its exact pointer-chase behaviour.
        unsigned victim = config_.assoc;
        for (unsigned way = 0; way < config_.assoc; ++way) {
            if (!(mask >> way & 1u))
                continue;
            if (victim == config_.assoc
                || stamps_[base + way] < stamps_[base + victim])
                victim = way;
        }
        SPEC17_ASSERT(victim < config_.assoc, config_.name,
                      ": empty way mask reached victim selection");
        return victim;
      }
      case ReplacementPolicy::Random: {
        const unsigned allowed = static_cast<unsigned>(
            std::popcount(mask));
        unsigned pick =
            static_cast<unsigned>(rng_.nextBounded(allowed));
        for (unsigned way = 0; way < config_.assoc; ++way) {
            if (!(mask >> way & 1u))
                continue;
            if (pick == 0)
                return way;
            --pick;
        }
        SPEC17_PANIC(config_.name,
                     ": masked random victim ran past the mask");
      }
    }
    SPEC17_PANIC("unknown ReplacementPolicy");
}

std::size_t
SetAssocCache::allocate(std::uint64_t addr)
{
    const std::uint64_t la = lineAddr(addr);
    return allocateInto(setIndex(la), tagOf(la));
}

std::size_t
SetAssocCache::allocateInto(std::uint64_t set, std::uint64_t tag)
{
    SPEC17_ASSERT(tag != kNoTag, config_.name,
                  ": tag collides with the invalid-way sentinel");
    const unsigned way =
        maskedAlloc_ ? victimWayMasked(set) : victimWay(set);
    const std::size_t index = set * config_.assoc + way;
    if (tags_[index] != kNoTag) {
        ++stats_.evictions;
        if (dirty_[index])
            ++stats_.writebacks;
        if (trackContexts_) {
            CacheContextStats &mine = ctxStats_[ctx_];
            ++mine.evictions;
            if (dirty_[index])
                ++mine.writebacks;
            const unsigned prev = owner_[index];
            --ctxOccupancy_[prev];
            if (prev != ctx_) {
                ++mine.evictionsInflicted;
                ++ctxStats_[prev].evictionsSuffered;
            }
        }
    }
    if (trackContexts_) {
        owner_[index] = static_cast<std::uint8_t>(ctx_);
        ++ctxOccupancy_[ctx_];
    }
    tags_[index] = tag;
    dirty_[index] = 0;
    if (wayPred_ == WayPredictor::Utag)
        utags_[index] = utagOf(tag);
    if (trackPrefetch_)
        prefetchOwner_[index] = 0;  // demand allocation by default
    touch(set, way);
    return index;
}

bool
SetAssocCache::access(std::uint64_t addr, bool is_write)
{
    const std::uint64_t la = lineAddr(addr);
    const std::uint64_t set = setIndex(la);
    const std::uint64_t tag = tagOf(la);
    const std::size_t base = set * config_.assoc;
    for (unsigned way = 0; way < config_.assoc; ++way) {
        if (tags_[base + way] == tag) {
            ++stats_.hits;
            if (trackContexts_)
                ++ctxStats_[ctx_].hits;
            if (wayPred_ != WayPredictor::None) {
                if (is_write)
                    lastWayPenalty_ = 0;
                else
                    notePrediction(set, base, way);
            }
            if (trackPrefetch_)
                notePrefetchHit(base + way);
            dirty_[base + way] |= is_write;
            touch(set, way);
            return true;
        }
    }
    ++stats_.misses;
    if (trackContexts_)
        ++ctxStats_[ctx_].misses;
    if (wayPred_ != WayPredictor::None)
        lastWayPenalty_ = 0;
    const std::size_t index = allocateInto(set, tag);
    if (is_write)
        dirty_[index] = true;
    return false;
}

bool
SetAssocCache::probe(std::uint64_t addr) const
{
    return findIndex(addr) != SIZE_MAX;
}

void
SetAssocCache::fill(std::uint64_t addr, unsigned owner)
{
    ++stats_.prefetchFills;
    const std::uint64_t la = lineAddr(addr);
    const std::uint64_t set = setIndex(la);
    const std::uint64_t tag = tagOf(la);
    const std::size_t base = set * config_.assoc;
    for (unsigned way = 0; way < config_.assoc; ++way) {
        if (tags_[base + way] == tag) {
            touch(set, way);
            return;
        }
    }
    const std::size_t index = allocate(addr);
    if (trackPrefetch_)
        prefetchOwner_[index] = static_cast<std::uint8_t>(owner);
}

void
SetAssocCache::flushAll()
{
    tags_.assign(tags_.size(), kNoTag);
    dirty_.assign(dirty_.size(), 0);
    stamps_.assign(stamps_.size(), 0);
    if (!plruBits_.empty())
        plruBits_.assign(plruBits_.size(), 0);
    if (!utags_.empty())
        utags_.assign(utags_.size(), 0);
    if (!mruWay_.empty())
        mruWay_.assign(mruWay_.size(), 0);
    if (trackPrefetch_)
        prefetchOwner_.assign(prefetchOwner_.size(), 0);
    lastWayPenalty_ = 0;
    if (trackContexts_) {
        ctxOccupancy_.assign(ctxOccupancy_.size(), 0);
        owner_.assign(owner_.size(), 0);
    }
}

} // namespace sim
} // namespace spec17
