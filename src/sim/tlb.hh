/**
 * @file
 * Two-level TLB model (Haswell-like: small fully-associative L1 TLBs
 * backed by a shared L2 TLB, with a fixed page-walk penalty). The
 * paper's counter set does not include TLB events, so the model is
 * disabled in the default Table-I configuration and exercised by the
 * microarchitecture ablation bench; when enabled it populates the
 * dtlb/itlb miss counters and adds walk latency to accesses.
 */

#ifndef SPEC17_SIM_TLB_HH_
#define SPEC17_SIM_TLB_HH_

#include <cstdint>
#include <vector>

namespace spec17 {
namespace sim {

/** Geometry and timing of one two-level TLB. */
struct TlbConfig
{
    unsigned l1Entries = 64;     //!< fully associative
    unsigned l2Entries = 1024;   //!< fully associative (shared level)
    std::uint64_t pageBytes = 4096;
    unsigned l2HitLatency = 7;   //!< extra cycles on an L1 TLB miss
    unsigned walkLatency = 30;   //!< extra cycles on a full miss

    /** Panics on degenerate geometry. */
    void validate() const;
};

/** Result of one translation. */
struct TlbOutcome
{
    bool l1Hit = false;
    bool l2Hit = false;
    /** Extra load-to-use cycles this translation cost. */
    unsigned extraLatency = 0;
};

/** Running statistics. */
struct TlbStats
{
    std::uint64_t accesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t walks = 0; //!< missed both levels
};

/**
 * A two-level LRU TLB. Lookups allocate on miss at both levels
 * (walks fill L2 and L1).
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config = {});

    /** Translates the page of @p addr; updates stats and LRU state. */
    TlbOutcome access(std::uint64_t addr);

    const TlbStats &stats() const { return stats_; }
    const TlbConfig &config() const { return config_; }

    /** Drops all translations (context-switch model). */
    void flushAll();

  private:
    /** Fully associative LRU array of page numbers. */
    struct Level
    {
        std::vector<std::uint64_t> pages; //!< front = MRU
        unsigned capacity = 0;

        bool lookupAndTouch(std::uint64_t page);
        void insert(std::uint64_t page);
    };

    TlbConfig config_;
    Level l1_;
    Level l2_;
    TlbStats stats_;
};

} // namespace sim
} // namespace spec17

#endif // SPEC17_SIM_TLB_HH_
