#include "sim/cache.hh"

#include <gtest/gtest.h>

namespace spec17 {
namespace sim {
namespace {

CacheConfig
tinyCache(ReplacementPolicy policy = ReplacementPolicy::Lru)
{
    // 4 sets x 2 ways x 64 B = 512 B.
    CacheConfig config;
    config.name = "tiny";
    config.sizeBytes = 512;
    config.assoc = 2;
    config.lineBytes = 64;
    config.policy = policy;
    return config;
}

TEST(CacheConfig, GeometryValidation)
{
    EXPECT_EQ(tinyCache().numSets(), 4u);
    CacheConfig l1;
    l1.sizeBytes = 32 * 1024;
    l1.assoc = 8;
    EXPECT_EQ(l1.numSets(), 64u);

    CacheConfig bad = tinyCache();
    bad.lineBytes = 48;
    EXPECT_DEATH(bad.numSets(), "power of two");
    bad = tinyCache();
    bad.sizeBytes = 500;
    EXPECT_DEATH(bad.numSets(), "not divisible");
}

TEST(Cache, ColdMissThenHit)
{
    SetAssocCache cache(tinyCache());
    EXPECT_FALSE(cache.access(0x1000, false));
    EXPECT_TRUE(cache.access(0x1000, false));
    EXPECT_TRUE(cache.access(0x1038, false)); // same 64B line
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    SetAssocCache cache(tinyCache());
    // Three lines mapping to set 0 (stride = numSets * line = 256).
    cache.access(0 * 256, false);  // A
    cache.access(1 * 256, false);  // B
    cache.access(0 * 256, false);  // touch A -> B is LRU
    cache.access(2 * 256, false);  // C evicts B
    EXPECT_TRUE(cache.probe(0 * 256));
    EXPECT_FALSE(cache.probe(1 * 256));
    EXPECT_TRUE(cache.probe(2 * 256));
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Cache, WritebackOnlyForDirtyVictims)
{
    SetAssocCache cache(tinyCache());
    cache.access(0 * 256, true);   // dirty A
    cache.access(1 * 256, false);  // clean B
    cache.access(2 * 256, false);  // evicts A (LRU) -> writeback
    EXPECT_EQ(cache.stats().writebacks, 1u);
    cache.access(3 * 256, false);  // evicts B (clean) -> no writeback
    EXPECT_EQ(cache.stats().writebacks, 1u);
    EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(Cache, ProbeDoesNotPerturbState)
{
    SetAssocCache cache(tinyCache());
    cache.access(0 * 256, false); // A
    cache.access(1 * 256, false); // B; A is LRU
    // Probing A must NOT refresh it.
    EXPECT_TRUE(cache.probe(0 * 256));
    cache.access(2 * 256, false); // evicts A
    EXPECT_FALSE(cache.probe(0 * 256));
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(Cache, FillInstallsWithoutDemandStats)
{
    SetAssocCache cache(tinyCache());
    cache.fill(0x2000);
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_EQ(cache.stats().prefetchFills, 1u);
    EXPECT_TRUE(cache.access(0x2000, false));
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, FlushInvalidatesEverything)
{
    SetAssocCache cache(tinyCache());
    cache.access(0x1000, false);
    cache.access(0x2000, false);
    cache.flushAll();
    EXPECT_FALSE(cache.probe(0x1000));
    EXPECT_FALSE(cache.probe(0x2000));
}

TEST(Cache, WorkingSetSmallerThanCacheEventuallyAllHits)
{
    CacheConfig config;
    config.sizeBytes = 32 * 1024;
    config.assoc = 8;
    SetAssocCache cache(config);
    // 16 KiB working set, swept twice.
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t addr = 0; addr < 16 * 1024; addr += 64)
            cache.access(addr, false);
    // Second pass must be all hits.
    EXPECT_EQ(cache.stats().misses, 16u * 1024 / 64);
    EXPECT_EQ(cache.stats().hits, 16u * 1024 / 64);
}

TEST(Cache, WorkingSetLargerThanCacheThrashesWithLru)
{
    CacheConfig config = tinyCache();
    SetAssocCache cache(config);
    // 2x the cache size swept repeatedly: LRU + round-robin sweep is
    // the pathological case -> ~100% misses after warmup.
    for (int pass = 0; pass < 4; ++pass)
        for (std::uint64_t addr = 0; addr < 1024; addr += 64)
            cache.access(addr, false);
    const CacheStats &stats = cache.stats();
    EXPECT_GT(double(stats.misses) / double(stats.accesses()), 0.95);
}

TEST(Cache, TreePlruBehavesSanely)
{
    SetAssocCache cache(tinyCache(ReplacementPolicy::TreePlru));
    cache.access(0 * 256, false);
    cache.access(1 * 256, false);
    EXPECT_TRUE(cache.access(0 * 256, false));
    EXPECT_TRUE(cache.access(1 * 256, false));
    // A third line evicts exactly one of the two residents.
    cache.access(2 * 256, false);
    const int resident = cache.probe(0 * 256) + cache.probe(1 * 256);
    EXPECT_EQ(resident, 1);
    EXPECT_TRUE(cache.probe(2 * 256));
}

TEST(Cache, TreePlruVictimFollowsProtection)
{
    // 1-set, 4-way PLRU: after touching ways for A,B,C,D then
    // re-touching A, the next victim must not be A.
    CacheConfig config;
    config.name = "plru4";
    config.sizeBytes = 4 * 64;
    config.assoc = 4;
    config.policy = ReplacementPolicy::TreePlru;
    SetAssocCache cache(config);
    cache.access(0x000, false);
    cache.access(0x100, false);
    cache.access(0x200, false);
    cache.access(0x300, false);
    cache.access(0x000, false); // protect A
    cache.access(0x400, false); // eviction
    EXPECT_TRUE(cache.probe(0x000));
}

TEST(Cache, RandomPolicyIsDeterministicPerSeed)
{
    SetAssocCache a(tinyCache(ReplacementPolicy::Random), 5);
    SetAssocCache b(tinyCache(ReplacementPolicy::Random), 5);
    for (std::uint64_t i = 0; i < 64; ++i) {
        const std::uint64_t addr = (i * 7919) % 4096 / 64 * 64;
        ASSERT_EQ(a.access(addr, false), b.access(addr, false));
    }
    EXPECT_EQ(a.stats().hits, b.stats().hits);
}

TEST(Cache, PolicyNames)
{
    EXPECT_EQ(replacementPolicyName(ReplacementPolicy::Lru), "lru");
    EXPECT_EQ(replacementPolicyName(ReplacementPolicy::TreePlru),
              "tree-plru");
    EXPECT_EQ(replacementPolicyName(ReplacementPolicy::Random), "random");
}

CacheConfig
wayPredictedCache(WayPredictor predictor)
{
    CacheConfig config = tinyCache();
    config.wayPredictor = predictor;
    config.wayMispredictPenalty = 2;
    return config;
}

TEST(WayPrediction, MruHandTracedMispredictAccounting)
{
    SetAssocCache cache(wayPredictedCache(WayPredictor::Mru));
    // Set-0 lines A and B (stride = numSets * line = 256). Each
    // miss-allocation touches the filled way, making it MRU.
    cache.access(0 * 256, false); // A -> way 0, MRU = 0
    cache.access(1 * 256, false); // B -> way 1, MRU = 1
    EXPECT_EQ(cache.stats().wayPredictions, 0u); // misses predict nothing
    EXPECT_EQ(cache.lastWayPenalty(), 0u);

    // Load hit on A (way 0) while MRU points at way 1: mispredict,
    // and the 2-cycle penalty lands in both lastWayPenalty() and the
    // cumulative counter.
    EXPECT_TRUE(cache.access(0 * 256, false));
    EXPECT_EQ(cache.stats().wayPredictions, 1u);
    EXPECT_EQ(cache.stats().wayMispredicts, 1u);
    EXPECT_EQ(cache.stats().wayPenaltyCycles, 2u);
    EXPECT_EQ(cache.lastWayPenalty(), 2u);

    // A is now MRU: the repeat predicts correctly, penalty-free.
    EXPECT_TRUE(cache.access(0 * 256, false));
    EXPECT_EQ(cache.stats().wayPredictions, 2u);
    EXPECT_EQ(cache.stats().wayMispredicts, 1u);
    EXPECT_EQ(cache.stats().wayPenaltyCycles, 2u);
    EXPECT_EQ(cache.lastWayPenalty(), 0u);
}

TEST(WayPrediction, StoresNeitherPredictNorPay)
{
    SetAssocCache cache(wayPredictedCache(WayPredictor::Mru));
    cache.access(0 * 256, false); // A -> way 0, MRU = 0
    cache.access(1 * 256, false); // B -> way 1, MRU = 1
    // Store hit on the non-MRU way: drains through the write buffer,
    // so no prediction is consulted and no penalty is charged.
    EXPECT_TRUE(cache.access(0 * 256, true));
    EXPECT_EQ(cache.stats().wayPredictions, 0u);
    EXPECT_EQ(cache.stats().wayMispredicts, 0u);
    EXPECT_EQ(cache.lastWayPenalty(), 0u);
}

TEST(WayPrediction, UtagAliasStealsThePrediction)
{
    // Tags 0x0 and 0x101 share partial tag utagOf == 0 (0x101 ^
    // 0x001 == 0x100, whose low byte is 0), so the earlier way's
    // alias steals the first-match prediction from the later way.
    ASSERT_EQ(SetAssocCache::utagOf(0x0), SetAssocCache::utagOf(0x101));
    SetAssocCache cache(wayPredictedCache(WayPredictor::Utag));
    const std::uint64_t addr_a = 0x0;         // tag 0x0, set 0
    const std::uint64_t addr_b = 0x101 << 8;  // tag 0x101, set 0
    cache.access(addr_a, false); // way 0
    cache.access(addr_b, false); // way 1

    // Hit on B at way 1: the scan finds way 0's aliasing utag first.
    EXPECT_TRUE(cache.access(addr_b, false));
    EXPECT_EQ(cache.stats().wayPredictions, 1u);
    EXPECT_EQ(cache.stats().wayMispredicts, 1u);
    EXPECT_EQ(cache.lastWayPenalty(), 2u);

    // Hit on A at way 0: first match IS way 0 -- correct.
    EXPECT_TRUE(cache.access(addr_a, false));
    EXPECT_EQ(cache.stats().wayPredictions, 2u);
    EXPECT_EQ(cache.stats().wayMispredicts, 1u);
    EXPECT_EQ(cache.lastWayPenalty(), 0u);
}

TEST(WayPrediction, Names)
{
    EXPECT_EQ(wayPredictorName(WayPredictor::None), "none");
    EXPECT_EQ(wayPredictorName(WayPredictor::Mru), "mru");
    EXPECT_EQ(wayPredictorName(WayPredictor::Utag), "utag");
    EXPECT_EQ(wayPredictorFromName("mru"), WayPredictor::Mru);
    EXPECT_EQ(wayPredictorFromName("utag"), WayPredictor::Utag);
    EXPECT_EQ(wayPredictorFromName("none"), WayPredictor::None);
}

TEST(WayPredictionDeathTest, DirectMappedCacheIsContradictory)
{
    CacheConfig config = wayPredictedCache(WayPredictor::Mru);
    config.assoc = 1;
    config.sizeBytes = 256;
    EXPECT_EXIT(SetAssocCache{config}, ::testing::ExitedWithCode(1),
                "contradictory with assoc == 1");
}

} // namespace
} // namespace sim
} // namespace spec17
