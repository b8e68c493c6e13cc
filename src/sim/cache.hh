/**
 * @file
 * Set-associative cache model with pluggable replacement policies.
 *
 * Models tag state only (no data): enough to reproduce hit/miss
 * behaviour, evictions and writeback traffic, which is all the
 * characterization consumes.
 */

#ifndef SPEC17_SIM_CACHE_HH_
#define SPEC17_SIM_CACHE_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "util/random.hh"

namespace spec17 {
namespace sim {

/** Replacement policy of a cache. */
enum class ReplacementPolicy : std::uint8_t
{
    Lru,      //!< true least-recently-used
    TreePlru, //!< tree pseudo-LRU (requires power-of-two ways)
    Random,   //!< uniform random victim
};

/** Human-readable policy name. */
std::string replacementPolicyName(ReplacementPolicy policy);

/**
 * Way-prediction scheme of a set-associative cache. Way prediction
 * guesses the hit way before the full tag compare resolves; a wrong
 * guess costs extra cycles (CacheConfig::wayMispredictPenalty) that
 * the owning hierarchy folds into the access latency.
 */
enum class WayPredictor : std::uint8_t
{
    None, //!< no prediction, every hit pays the base latency
    Mru,  //!< per-set most-recently-used way
    Utag, //!< per-way 8-bit partial tag, first match predicts
};

/** Human-readable way-predictor name ("none"/"mru"/"utag"). */
std::string wayPredictorName(WayPredictor kind);

/** Parses "none"/"mru"/"utag"; fatal on anything else. */
WayPredictor wayPredictorFromName(const std::string &name);

/** Static parameters of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned lineBytes = 64;
    ReplacementPolicy policy = ReplacementPolicy::Lru;
    /** Load-to-use latency in core cycles when this level hits. */
    unsigned hitLatency = 4;
    /** Way-prediction scheme (fatal with assoc == 1: a direct-mapped
     *  cache has nothing to predict). */
    WayPredictor wayPredictor = WayPredictor::None;
    /** Extra cycles a hit pays when the predicted way was wrong. */
    unsigned wayMispredictPenalty = 2;

    /** Number of sets; panics if the geometry is inconsistent. */
    std::uint64_t numSets() const;
};

/** Running counters of one cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t prefetchFills = 0;
    /** Demand hits that consumed a prefetched (not yet demanded)
     *  line; the line is re-marked as demand-owned on first use. */
    std::uint64_t prefetchUseful = 0;
    /** Subset of prefetchUseful whose line was filled by the L2
     *  prefetcher (fill owner code 2) rather than the L1 one. */
    std::uint64_t prefetchUsefulByL2 = 0;
    /** Demand hits that consulted the way predictor. */
    std::uint64_t wayPredictions = 0;
    /** Predicted-way misses among those (extra latency paid). */
    std::uint64_t wayMispredicts = 0;
    /** Total extra cycles charged for way mispredictions. */
    std::uint64_t wayPenaltyCycles = 0;

    std::uint64_t accesses() const { return hits + misses; }
    /** misses / accesses, or 0 when never accessed. */
    double missRate() const;
};

/**
 * Per-context accounting of a shared cache (the multicore L3): which
 * context hit/missed, which context's allocation replaced whose line.
 * Attribution follows the *allocating* context -- an eviction is
 * charged to the context that needed the way, and additionally
 * recorded as inflicted/suffered when victim and allocator belong to
 * different contexts. That split is what makes contention visible:
 * `evictionsSuffered` counts lines a context lost to its co-runners.
 */
struct CacheContextStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Valid lines this context's allocations replaced (any owner). */
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    /** Evictions whose victim line belonged to another context. */
    std::uint64_t evictionsInflicted = 0;
    /** This context's resident lines evicted by other contexts. */
    std::uint64_t evictionsSuffered = 0;

    std::uint64_t accesses() const { return hits + misses; }
    /** misses / accesses, or 0 when never accessed. */
    double missRate() const;
};

/**
 * A single set-associative, write-back, write-allocate cache.
 * Thread-unsafe by design (the simulator is single-threaded).
 */
class SetAssocCache
{
  public:
    /**
     * @param config geometry and policy.
     * @param seed randomness seed (only used by Random replacement).
     * @param recycle optional dead cache whose heap buffers this one
     *        adopts before re-initializing them -- the constructed
     *        state is bit-identical to a fresh construction (every
     *        lane is re-assigned), but matching geometries skip the
     *        large page-faulting allocations that dominate cache
     *        construction cost. The donor is left empty and must not
     *        be used again. Multi-point simulation fan-out recycles
     *        each finished clone-group leader's caches this way.
     */
    explicit SetAssocCache(CacheConfig config, std::uint64_t seed = 0,
                           SetAssocCache *recycle = nullptr);

    /**
     * Performs a demand access.
     * @param addr byte address.
     * @param is_write true for stores (sets the dirty bit).
     * @return true on hit. On miss the line is allocated, possibly
     *         evicting (and counting a writeback for a dirty victim).
     */
    bool access(std::uint64_t addr, bool is_write);

    /**
     * Division-free access() used by the simulator's batched fast
     * lane: identical semantics, stats, replacement updates and RNG
     * draws, but the set/tag decomposition runs on precomputed
     * shifts (and a constant-divisor multiply for the odd set-count
     * factor) instead of the three 64-bit divisions access() pays
     * per level. Inline so the batched memory pass can keep the
     * whole L1-hit path in one compilation unit.
     */
    bool accessFast(std::uint64_t addr, bool is_write)
    {
        const std::uint64_t la = addr >> lineShift_;
        const SetTag st = decompose(la);
        const std::size_t base = st.set * config_.assoc;
        const unsigned way = findWay(&tags_[base], st.tag);
        if (way != config_.assoc) {
            ++stats_.hits;
            if (trackContexts_)
                ++ctxStats_[ctx_].hits;
            if (wayPred_ != WayPredictor::None) {
                // Way prediction accelerates the load-use path; store
                // hits drain through the write buffer and neither
                // consult the predictor nor pay a penalty.
                if (is_write)
                    lastWayPenalty_ = 0;
                else
                    notePrediction(st.set, base, way);
            }
            if (trackPrefetch_)
                notePrefetchHit(base + way);
            dirty_[base + way] |= is_write;
            touchImpl(st.set, way);
            return true;
        }
        ++stats_.misses;
        if (trackContexts_)
            ++ctxStats_[ctx_].misses;
        if (wayPred_ != WayPredictor::None)
            lastWayPenalty_ = 0;
        const std::size_t index = allocateInto(st.set, st.tag);
        // access() reaches the same state via its post-allocate dirty
        // store: the freshly allocated line IS the matching line.
        if (is_write)
            dirty_[index] = true;
        return false;
    }

    /** Checks residency without disturbing replacement state. */
    bool probe(std::uint64_t addr) const;

    /**
     * Credits @p n demand hits to the stats without walking the
     * arrays or touching replacement state. Only valid when the
     * caller has proven the accesses would have hit AND left the
     * cache state behaviourally unchanged -- i.e. repeated accesses
     * to a line that is the most recently used way of its set.
     * Re-touching a set's MRU way is invisible to every policy's
     * future victim choices: under LRU its stamp is already the
     * set's maximum (raising it, or skipping the global counter
     * increment, preserves the strict within-set stamp order the
     * victim scan compares); under tree-PLRU the way's path bits
     * already point away from it, so setting them again is a no-op;
     * Random ignores recency entirely. The simulator's batched lane
     * relies on this through its per-set line memos (see
     * docs/performance.md). Way-prediction stats for credited load
     * repeats are added separately via creditWayPredictions.
     */
    void creditHits(std::uint64_t n) { stats_.hits += n; }

    /**
     * Credit @p n correct (penalty-free) way predictions for
     * memo-skipped load repeats. Legal only under MRU prediction: a
     * memo'd line IS the set's MRU way by the creditHits argument, so
     * the predictor would have named its way. Utag prediction has no
     * such guarantee and the simulator disables the memo instead.
     */
    void creditWayPredictions(std::uint64_t n)
    {
        stats_.wayPredictions += n;
    }

    /** Set index of a line address (addr >> lineShift); lets the
     *  batched lane key its per-set memos exactly as this cache maps
     *  lines to sets. */
    std::uint64_t setOfLine(std::uint64_t line_addr) const
    {
        return decompose(line_addr).set;
    }

    /**
     * Installs a line without counting a demand hit/miss (prefetch
     * fill path). Counts prefetchFills; a resident line just has its
     * recency refreshed (and keeps its current fill owner).
     * @param owner fill-owner code recorded when prefetch-use
     *        tracking is on: 0 = neutral (warmup prefill), 1 = L1
     *        prefetcher, 2 = L2 prefetcher.
     */
    void fill(std::uint64_t addr, unsigned owner = 0);

    /**
     * Enables the prefetched-line owner lane so demand hits on
     * prefetched lines are counted (CacheStats::prefetchUseful).
     * Must be called before the first access; the hierarchy enables
     * it on every cache a configured prefetcher fills.
     */
    void enablePrefetchTracking();

    /**
     * Extra cycles the most recent demand access paid for a way
     * misprediction (0 on a correct prediction, on any miss, and
     * always when way prediction is off). The hierarchy folds this
     * into the access latency.
     */
    unsigned lastWayPenalty() const { return lastWayPenalty_; }

    /** The 8-bit partial tag utag prediction compares (tests). */
    static std::uint8_t utagOf(std::uint64_t tag)
    {
        return static_cast<std::uint8_t>(
            (tag ^ (tag >> 8) ^ (tag >> 16)) & 0xff);
    }

    /** Invalidates everything and clears per-line state (not stats). */
    void flushAll();

    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CacheStats(); }

    /** @name Shared-cache contexts (multicore L3 attribution)
     *
     * A shared cache can attribute its traffic to the context (core)
     * performing each access: per-context hit/miss/eviction stats,
     * per-line ownership and occupancy, and a CAT-style way-partition
     * mask per context modeled on Intel RDT `schemata` bitmasks. A
     * context's mask restricts which ways its *allocations* may claim
     * (victim selection); hits are unrestricted, exactly like
     * hardware CAT. With tracking off (the default, and every private
     * cache) none of this state exists and the access paths are
     * unchanged -- the golden byte-identity tests pin that. */
    /// @{

    /** Owner bytes are uint8; contexts beyond this would alias. */
    static constexpr unsigned kMaxContexts = 255;

    /**
     * Enables per-context attribution for @p num_contexts contexts
     * (1 <= n <= kMaxContexts, assoc <= 32 for the mask word). Must
     * be called before the first access; every context starts with
     * the full way mask (no partition) and context 0 active.
     */
    void enableContextTracking(unsigned num_contexts);

    /** Contexts registered; 0 when tracking is disabled. */
    unsigned numContexts() const
    {
        return static_cast<unsigned>(ctxStats_.size());
    }

    /** Selects the context subsequent accesses are attributed to.
     *  With tracking disabled only context 0 is legal (no-op). */
    void setContext(unsigned ctx);

    unsigned context() const { return ctx_; }

    /**
     * Sets context @p ctx's allocation way mask (bit w = way w may be
     * claimed). Panics on an empty mask or one naming ways beyond the
     * associativity -- the two illegal schemata shapes. The mask set
     * {context -> mask} is semantics (it changes victim choices), so
     * runners must fold it into their config keys.
     */
    void setWayMask(unsigned ctx, std::uint32_t mask);

    std::uint32_t wayMask(unsigned ctx) const;

    /** Mask naming every way ((1 << assoc) - 1). */
    std::uint32_t fullWayMask() const
    {
        return config_.assoc >= 32
            ? ~std::uint32_t{0}
            : (std::uint32_t{1} << config_.assoc) - 1;
    }

    const CacheContextStats &contextStats(unsigned ctx) const;

    /** Valid lines currently owned by @p ctx (allocation owner). */
    std::uint64_t contextOccupancy(unsigned ctx) const;

    /// @}

  private:
    /** Tag slot value of an invalid way. A real tag is line_addr /
     *  numSets and the geometry keeps it far below 2^64, so the
     *  sentinel never collides (asserted on allocation); the way scan
     *  therefore needs no separate valid bit. */
    static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};

    std::uint64_t lineAddr(std::uint64_t addr) const;
    std::uint64_t setIndex(std::uint64_t line_addr) const;
    std::uint64_t tagOf(std::uint64_t line_addr) const;
    /** Index into the line lanes for @p addr, or SIZE_MAX if the
     *  line is not resident. */
    std::size_t findIndex(std::uint64_t addr) const;
    /** Chooses a victim way in @p set according to the policy. */
    unsigned victimWay(std::uint64_t set);
    /** victimWay() restricted to the active context's way mask; only
     *  reached when some context runs under a partial mask. */
    unsigned victimWayMasked(std::uint64_t set);
    void touch(std::uint64_t set, unsigned way);
    /** TreePlru part of touch(); out of line, it is off the common
     *  LRU path. */
    void plruTouch(std::uint64_t set, unsigned way);
    /** Allocates @p addr into the cache, updating eviction stats;
     *  returns the allocated line's lane index. */
    std::size_t allocate(std::uint64_t addr);
    /** allocate() body with the set/tag already decomposed; returns
     *  the allocated line's lane index so accessFast can set the
     *  dirty bit without another way scan. */
    std::size_t allocateInto(std::uint64_t set, std::uint64_t tag);

    /** Way holding @p tag among the @p base tag lane of one set, or
     *  assoc when absent. Branchless: tags within a set are unique
     *  (and kNoTag never matches), so the scan has no ordering or
     *  early-exit semantics to preserve -- it compiles to a chain of
     *  conditional moves (and, for the ubiquitous 8-way geometry,
     *  a fully unrolled SIMD-friendly form) instead of the
     *  mispredict-prone early-exit loop over AoS line structs the
     *  cache used before its tag lane split. */
    unsigned findWay(const std::uint64_t *base, std::uint64_t tag) const
    {
        if (config_.assoc == 8) {
            unsigned way = 8;
            for (unsigned w = 0; w < 8; ++w)
                way = base[w] == tag ? w : way;
            return way;
        }
        unsigned way = config_.assoc;
        for (unsigned w = 0; w < config_.assoc; ++w)
            way = base[w] == tag ? w : way;
        return way;
    }

    /** Inline body of touch(); shared by both lanes. */
    void touchImpl(std::uint64_t set, unsigned way)
    {
        stamps_[set * config_.assoc + way] = ++stampCounter_;
        if (config_.policy == ReplacementPolicy::TreePlru)
            plruTouch(set, way);
        if (wayPred_ == WayPredictor::Mru)
            mruWay_[set] = static_cast<std::uint8_t>(way);
    }

    /** First way whose partial tag matches @p utag (valid ways only),
     *  or assoc when none does. An aliasing earlier way steals the
     *  prediction -- the utag scheme's characteristic mispredict. */
    unsigned utagPredict(std::size_t base, std::uint8_t utag) const
    {
        for (unsigned w = 0; w < config_.assoc; ++w) {
            if (tags_[base + w] != kNoTag && utags_[base + w] == utag)
                return w;
        }
        return config_.assoc;
    }

    /** Way-prediction accounting for a demand hit at @p way: counts
     *  the prediction, charges the mispredict penalty, and records it
     *  for lastWayPenalty(). Shared by both access lanes. */
    void notePrediction(std::uint64_t set, std::size_t base,
                        unsigned way)
    {
        ++stats_.wayPredictions;
        const unsigned predicted = wayPred_ == WayPredictor::Mru
            ? mruWay_[set]
            : utagPredict(base, utagOf(tags_[base + way]));
        if (predicted != way) {
            ++stats_.wayMispredicts;
            stats_.wayPenaltyCycles += config_.wayMispredictPenalty;
            lastWayPenalty_ = config_.wayMispredictPenalty;
        } else {
            lastWayPenalty_ = 0;
        }
    }

    /** Prefetch-use accounting for a demand hit: first demand use of
     *  a prefetched line counts it useful and hands the line to
     *  demand ownership. Shared by both access lanes. */
    void notePrefetchHit(std::size_t index)
    {
        const std::uint8_t owner = prefetchOwner_[index];
        if (owner == 0)
            return;
        ++stats_.prefetchUseful;
        stats_.prefetchUsefulByL2 += owner == 2;
        prefetchOwner_[index] = 0;
    }

    struct SetTag
    {
        std::uint64_t set;
        std::uint64_t tag;
    };

    /**
     * Computes (line_addr % numSets_, line_addr / numSets_) without
     * dividing by the runtime set count. With numSets_ = odd * 2^s,
     * write line_addr = high * 2^s + low (low < 2^s) and
     * high = q * odd + r (r < odd); then
     *   line_addr = q * numSets_ + (r * 2^s + low),
     * and r * 2^s + low < numSets_, so set = (r << s) | low and
     * tag = q -- bit-identical to the modulo/division the reference
     * path computes. The switch pins the odd factors of the standard
     * geometries (1 for power-of-two caches, 3 for the 30 MB L3) to
     * compile-time constants the compiler turns into multiplies.
     */
    SetTag decompose(std::uint64_t line_addr) const
    {
        const std::uint64_t high = line_addr >> setShift_;
        const std::uint64_t low = line_addr & setLowMask_;
        std::uint64_t q, r;
        switch (setOdd_) {
          case 1: q = high; r = 0; break;
          case 3: q = high / 3; r = high % 3; break;
          case 5: q = high / 5; r = high % 5; break;
          case 7: q = high / 7; r = high % 7; break;
          default: q = high / setOdd_; r = high % setOdd_; break;
        }
        return {(r << setShift_) | low, q};
    }

    CacheConfig config_;
    std::uint64_t numSets_;
    /** @name Precomputed shifts for the division-free fast path */
    /// @{
    unsigned lineShift_ = 0;    //!< log2(lineBytes)
    unsigned setShift_ = 0;     //!< trailing zero bits of numSets_
    std::uint64_t setOdd_ = 1;  //!< numSets_ >> setShift_ (odd)
    std::uint64_t setLowMask_ = 0; //!< (1 << setShift_) - 1
    /// @}
    /** @name Per-line state, split into parallel lanes
     *  numSets x assoc, row-major; one set's tags share a cache line
     *  so the way scan is one contiguous 64-byte read for the 8-way
     *  levels (the AoS Line struct spread them over three). */
    /// @{
    std::vector<std::uint64_t> tags_;   //!< kNoTag = invalid way
    std::vector<std::uint8_t> dirty_;
    std::vector<std::uint64_t> stamps_; //!< LRU recency stamps
    /** Per-way 8-bit partial tags (utag way prediction only). */
    std::vector<std::uint8_t> utags_;
    /** Fill-owner code per line (prefetch tracking only): 0 = demand,
     *  1 = L1 prefetcher, 2 = L2 prefetcher. */
    std::vector<std::uint8_t> prefetchOwner_;
    /// @}
    std::vector<std::uint8_t> plruBits_; //!< assoc-1 bits per set
    /** MRU way per set (MRU way prediction only). */
    std::vector<std::uint8_t> mruWay_;
    std::uint64_t stampCounter_ = 0;
    WayPredictor wayPred_ = WayPredictor::None;
    bool trackPrefetch_ = false;
    unsigned lastWayPenalty_ = 0;
    Rng rng_;
    CacheStats stats_;

    /** @name Shared-cache context state (empty unless enabled) */
    /// @{
    bool trackContexts_ = false;
    /** True when any context's mask is partial: allocations must take
     *  the masked victim path. Recomputed by setWayMask(). */
    bool maskedAlloc_ = false;
    unsigned ctx_ = 0;
    std::vector<CacheContextStats> ctxStats_;
    std::vector<std::uint64_t> ctxOccupancy_;
    std::vector<std::uint32_t> ctxMasks_;
    /** Allocation owner of each line (parallel to the line lanes). */
    std::vector<std::uint8_t> owner_;
    /// @}
};

} // namespace sim
} // namespace spec17

#endif // SPEC17_SIM_CACHE_HH_
