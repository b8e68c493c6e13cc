/**
 * @file
 * Three-level cache hierarchy matching the paper's Table I machine:
 * split 32 KB L1I/L1D, unified 256 KB L2 (all private), and a 30 MB
 * L3 that can be shared between cores in the multicore simulator.
 */

#ifndef SPEC17_SIM_HIERARCHY_HH_
#define SPEC17_SIM_HIERARCHY_HH_

#include <memory>

#include "sim/cache.hh"
#include "sim/prefetch.hh"

namespace spec17 {
namespace sim {

/** The level that served an access. */
enum class HitLevel : std::uint8_t
{
    L1,
    L2,
    L3,
    Memory,
};

/** Human-readable level name. */
std::string hitLevelName(HitLevel level);

/** Geometry and latency parameters of the full hierarchy. */
struct HierarchyConfig
{
    CacheConfig l1i{"l1i", 32 * 1024, 8, 64, ReplacementPolicy::Lru, 1};
    CacheConfig l1d{"l1d", 32 * 1024, 8, 64, ReplacementPolicy::Lru, 4};
    CacheConfig l2{"l2", 256 * 1024, 8, 64, ReplacementPolicy::Lru, 12};
    CacheConfig l3{"l3", 30 * 1024 * 1024, 20, 64,
                   ReplacementPolicy::Lru, 38};
    /** Main-memory load-to-use latency in core cycles. */
    unsigned memLatency = 210;
    /** L1D-side prefetcher: "none", "next-line", "stride" or
     *  "stream"; fills L1D and L2. */
    std::string prefetcher = "none";
    /** L2-side prefetcher trained on L1D-miss traffic (same names);
     *  fills L2 only, so the L1 same-line memo stays legal. */
    std::string l2Prefetcher = "none";
    /** Stream-prefetcher degree (lines issued per trained
     *  observation), for both prefetcher slots. */
    unsigned streamDegree = 4;
    /** Stream-prefetcher distance (lines of lookahead / matching
     *  window), for both prefetcher slots. */
    unsigned streamDistance = 16;
};

/**
 * One core's view of the memory system. The L3 is held by
 * shared_ptr so several CacheHierarchy instances (one per simulated
 * core) can share a single last-level cache.
 */
class CacheHierarchy
{
  public:
    /**
     * @param config geometry; @p shared_l3 lets multiple hierarchies
     *        share one L3 (pass nullptr to get a private L3).
     * @param seed randomness seed for random-replacement policies.
     * @param recycle optional dead hierarchy whose cache buffers the
     *        new one adopts (see SetAssocCache's recycle parameter;
     *        state is never inherited). The donor's L3 buffers are
     *        only adopted when both hierarchies own a private L3.
     */
    explicit CacheHierarchy(const HierarchyConfig &config,
                            std::shared_ptr<SetAssocCache> shared_l3
                            = nullptr,
                            std::uint64_t seed = 0,
                            CacheHierarchy *recycle = nullptr);

    /** Builds an L3 suitable for sharing across hierarchies. */
    static std::shared_ptr<SetAssocCache> makeSharedL3(
        const HierarchyConfig &config, std::uint64_t seed = 0,
        SetAssocCache *recycle = nullptr);

    /**
     * Demand data access.
     * @param addr byte address; @p is_write true for stores.
     * @param pc accessing instruction (trains stride prefetchers).
     * @return the level that supplied the line.
     */
    HitLevel accessData(std::uint64_t addr, bool is_write,
                        std::uint64_t pc = 0);

    /** Instruction fetch access. */
    HitLevel accessInst(std::uint64_t addr);

    /** @name Division-free cascade (batched simulator lane)
     *  Same levels, same order, same prefetcher hook and same stats
     *  as accessData()/accessInst(), built on
     *  SetAssocCache::accessFast; see docs/performance.md. */
    /// @{
    HitLevel accessDataFast(std::uint64_t addr, bool is_write,
                            std::uint64_t pc = 0)
    {
        HitLevel level;
        if (l1d_->accessFast(addr, is_write))
            level = HitLevel::L1;
        else if (l2_->accessFast(addr, is_write))
            level = HitLevel::L2;
        else if (l3_->accessFast(addr, is_write))
            level = HitLevel::L3;
        else
            level = HitLevel::Memory;
        if (prefetcher_ && !is_write)
            observePrefetcher(pc, addr, level);
        if (l2Prefetcher_ && !is_write && level != HitLevel::L1)
            observeL2Prefetcher(pc, addr, level);
        return level;
    }

    HitLevel accessInstFast(std::uint64_t addr)
    {
        if (l1i_->accessFast(addr, false))
            return HitLevel::L1;
        if (l2_->accessFast(addr, false))
            return HitLevel::L2;
        if (l3_->accessFast(addr, false))
            return HitLevel::L3;
        return HitLevel::Memory;
    }
    /// @}

    /**
     * Installs one line at @p addr into the caches from L3 up to
     * @p level (L3 always; L2 when level <= L2; L1D when level ==
     * L1), without demand statistics.
     */
    void fillTo(std::uint64_t addr, HitLevel level);

    /** Load-to-use latency for a hit at @p level. */
    unsigned latencyOf(HitLevel level) const;

    /** @name Bulk hit crediting (batched simulator lane)
     *  Stat-only credit for accesses the caller proved are repeat L1
     *  hits with unchanged replacement state; see
     *  SetAssocCache::creditHits for the exact legality condition. */
    /// @{
    void creditInstHits(std::uint64_t n) { l1i_->creditHits(n); }
    void creditDataHits(std::uint64_t n) { l1d_->creditHits(n); }
    /** Way-prediction credit for memo-skipped load repeats (MRU
     *  only; see SetAssocCache::creditWayPredictions). */
    void creditDataWayPredictions(std::uint64_t n)
    {
        l1d_->creditWayPredictions(n);
    }
    /// @}

    /** Selects the shared-L3 context this hierarchy's accesses are
     *  attributed to (no-op for a private, untracked L3). Called by
     *  the simulator before every stepped chunk, because siblings
     *  sharing the L3 move the cache's active context between
     *  interleaved chunks. */
    void setL3Context(unsigned ctx) { l3_->setContext(ctx); }

    const SetAssocCache &l1i() const { return *l1i_; }
    const SetAssocCache &l1d() const { return *l1d_; }
    const SetAssocCache &l2() const { return *l2_; }
    const SetAssocCache &l3() const { return *l3_; }
    const Prefetcher *prefetcher() const { return prefetcher_.get(); }
    const Prefetcher *l2Prefetcher() const
    {
        return l2Prefetcher_.get();
    }

    /** @name Way-prediction latency (L1D)
     *  Extra cycles the most recent demand data access paid for a way
     *  misprediction; both simulator lanes fold it into the access
     *  latency. Zero whenever way prediction is off. */
    /// @{
    bool hasWayPrediction() const
    {
        return config_.l1d.wayPredictor != WayPredictor::None;
    }
    unsigned lastDataWayPenalty() const
    {
        return l1d_->lastWayPenalty();
    }
    /// @}

    /** Demand hits that consumed an L1-prefetcher line (at L1D). */
    std::uint64_t prefetcherUseful() const
    {
        return l1d_->stats().prefetchUseful;
    }
    /** Demand hits that consumed an L2-prefetcher line (at L2). */
    std::uint64_t l2PrefetcherUseful() const
    {
        return l2_->stats().prefetchUsefulByL2;
    }

  private:
    /** Fills a prefetched line into L1D and L2 without demand stats. */
    void prefetchFill(std::uint64_t addr);
    /** Trains the prefetcher on a demand load and applies its fills
     *  (the shared tail of accessData and accessDataFast). */
    void observePrefetcher(std::uint64_t pc, std::uint64_t addr,
                           HitLevel level);
    /** As above for the L2 prefetcher: trained on accesses that
     *  missed L1, fills L2 only. */
    void observeL2Prefetcher(std::uint64_t pc, std::uint64_t addr,
                             HitLevel level);

    HierarchyConfig config_;
    std::unique_ptr<SetAssocCache> l1i_;
    std::unique_ptr<SetAssocCache> l1d_;
    std::unique_ptr<SetAssocCache> l2_;
    std::shared_ptr<SetAssocCache> l3_;
    std::unique_ptr<Prefetcher> prefetcher_;
    std::unique_ptr<Prefetcher> l2Prefetcher_;
    std::vector<std::uint64_t> prefetchScratch_;
};

} // namespace sim
} // namespace spec17

#endif // SPEC17_SIM_HIERARCHY_HH_
