/**
 * @file
 * Differential testing of SetAssocCache against a deliberately naive
 * reference model (per-set vector with explicit move-to-front LRU).
 * Any divergence on random access streams is a bug in one of them;
 * the reference is simple enough to be obviously correct. Both demand
 * lanes are driven: access(), which divides by the set count, and
 * accessFast(), which decomposes it into an odd factor and a power of
 * two, so the geometries include set counts of 3, 5, 7 and 9 times a
 * power of two.
 */

#include <gtest/gtest.h>

#include <list>
#include <tuple>
#include <vector>

#include "sim/cache.hh"
#include "util/random.hh"

namespace spec17 {
namespace sim {
namespace {

/** Obviously-correct LRU cache: per-set list, front = most recent. */
class ReferenceLruCache
{
  public:
    ReferenceLruCache(std::uint64_t size_bytes, unsigned assoc,
                      unsigned line_bytes = 64)
        : assoc_(assoc), lineBytes_(line_bytes),
          numSets_(size_bytes / assoc / line_bytes), sets_(numSets_)
    {
    }

    bool
    access(std::uint64_t addr)
    {
        const std::uint64_t line = addr / lineBytes_;
        const std::uint64_t set = line % numSets_;
        const std::uint64_t tag = line / numSets_;
        auto &lru = sets_[set];
        for (auto it = lru.begin(); it != lru.end(); ++it) {
            if (*it == tag) {
                lru.erase(it);
                lru.push_front(tag);
                return true;
            }
        }
        lru.push_front(tag);
        if (lru.size() > assoc_)
            lru.pop_back();
        return false;
    }

  private:
    unsigned assoc_;
    unsigned lineBytes_;
    std::uint64_t numSets_;
    std::vector<std::list<std::uint64_t>> sets_;
};

using Geometry = std::tuple<std::uint64_t, unsigned>;

/** Two LRU caches of one geometry, one per demand lane, checked
 *  access by access against the reference. */
class CacheDifferential : public ::testing::TestWithParam<Geometry>
{
  protected:
    CacheDifferential()
        : slow_(config()), fast_(config()),
          reference_(std::get<0>(GetParam()), std::get<1>(GetParam()))
    {
    }

    /** Feeds @p addr to both lanes and the reference; true when all
     *  three agree. */
    ::testing::AssertionResult
    agree(std::uint64_t addr)
    {
        const bool hit = reference_.access(addr);
        const bool slow = slow_.access(addr, false);
        const bool fast = fast_.accessFast(addr, false);
        if (slow == hit && fast == hit)
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
            << "reference hit=" << hit << ", access() hit=" << slow
            << ", accessFast() hit=" << fast;
    }

  private:
    static CacheConfig
    config()
    {
        CacheConfig config;
        config.name = "dut";
        config.sizeBytes = std::get<0>(GetParam());
        config.assoc = std::get<1>(GetParam());
        config.policy = ReplacementPolicy::Lru;
        return config;
    }

    SetAssocCache slow_;
    SetAssocCache fast_;
    ReferenceLruCache reference_;
};

TEST_P(CacheDifferential, MatchesReferenceOnRandomStream)
{
    Rng rng(0xd1ff);
    for (int i = 0; i < 100000; ++i) {
        // Mixture of footprints so sets see reuse at several depths.
        const std::uint64_t span = (i % 3 == 0) ? (1ull << 14)
            : (i % 3 == 1)                      ? (1ull << 18)
                                                : (1ull << 23);
        const std::uint64_t addr = rng.nextBounded(span);
        ASSERT_TRUE(agree(addr))
            << "diverged at access " << i << " addr " << addr;
    }
}

TEST_P(CacheDifferential, MatchesReferenceOnStridedStream)
{
    // Conflict-heavy strides: powers of two around the set span.
    for (const std::uint64_t stride : {64ull, 4096ull, 65536ull}) {
        for (int pass = 0; pass < 3; ++pass) {
            for (std::uint64_t i = 0; i < 2000; ++i) {
                const std::uint64_t addr = i * stride;
                ASSERT_TRUE(agree(addr))
                    << "stride " << stride << " i " << i;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(Geometry{4096, 1}, Geometry{8192, 2},
                      Geometry{32 * 1024, 8}, Geometry{256 * 1024, 8},
                      Geometry{64 * 1024, 16},
                      // 3 x 8192 sets: the Table I L3 (30 MiB, 20-way).
                      Geometry{30 * 1024 * 1024, 20},
                      // 5 x 64, 7 x 128 and 9 x 32 sets; 9 takes the
                      // general-divisor branch of the decomposition.
                      Geometry{5 * 64 * 4 * 64, 4},
                      Geometry{7 * 128 * 8 * 64, 8},
                      Geometry{9 * 32 * 2 * 64, 2}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return std::to_string(std::get<0>(info.param)) + "B_"
            + std::to_string(std::get<1>(info.param)) + "way";
    });

} // namespace
} // namespace sim
} // namespace spec17
