/**
 * @file
 * TraceArenaStore tests: capture-once/replay-many semantics (first
 * acquire captures, later acquires hit residency), find() never
 * capturing, release() dropping only the store's copy,
 * least-recently-used eviction under the byte budget, uncached
 * service of arenas larger than the whole budget, and S17A spill
 * reload across store instances, keeping the offset the arena was
 * captured at.
 */

#include "suite/arena_store.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "suite/runner.hh"
#include "trace/synthetic.hh"
#include "util/units.hh"

namespace spec17 {
namespace suite {
namespace {

trace::SyntheticTraceParams
params(std::uint64_t num_ops, std::uint64_t seed)
{
    trace::SyntheticTraceParams p;
    p.numOps = num_ops;
    p.seed = seed;
    p.loadFrac = 0.25;
    p.storeFrac = 0.10;
    p.branchFrac = 0.15;
    p.regions = {
        {trace::AccessPattern::Sequential, 128 * 1024, 64, 1.0, 1.0},
    };
    return p;
}

/** Resident byte size of one captured arena at @p num_ops. */
std::uint64_t
arenaBytes(std::uint64_t num_ops)
{
    return trace::captureArena(params(num_ops, 1)).byteSize();
}

TEST(ArenaStore, FirstAcquireCapturesLaterAcquiresHit)
{
    TraceArenaStore store(64 * kMiB);
    const auto p = params(5000, 42);
    const auto first = store.acquire(p);
    ASSERT_NE(first, nullptr);
    const auto second = store.acquire(p);
    // Residency means the very same arena object, not an equal copy.
    EXPECT_EQ(first.get(), second.get());

    const TraceArenaStore::Stats stats = store.stats();
    EXPECT_EQ(stats.captures, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.residentBytes, first->byteSize());
}

TEST(ArenaStore, FindServesWhatIsHeldAndNeverCaptures)
{
    TraceArenaStore store(64 * kMiB);
    const auto p = params(5000, 42);
    EXPECT_EQ(store.find(p), nullptr);
    EXPECT_EQ(store.stats().captures, 0u);
    EXPECT_EQ(store.stats().entries, 0u);

    const auto captured = store.acquire(p);
    EXPECT_EQ(store.find(p).get(), captured.get());
    const TraceArenaStore::Stats stats = store.stats();
    EXPECT_EQ(stats.captures, 1u);
    EXPECT_EQ(stats.hits, 1u);

    // An over-budget arena is served to its acquirer but never held,
    // so a later find() misses.
    TraceArenaStore tiny(1024);
    ASSERT_NE(tiny.acquire(p), nullptr);
    EXPECT_EQ(tiny.find(p), nullptr);
}

TEST(ArenaStore, ReleaseDropsOnlyTheStoresCopy)
{
    TraceArenaStore store(64 * kMiB);
    const auto p = params(5000, 42);
    const auto held = store.acquire(p);
    ASSERT_NE(held, nullptr);
    EXPECT_EQ(store.find(p).get(), held.get());

    // The holder keeps its arena; the store holds nothing, and the
    // drop is not an eviction.
    store.release(p);
    TraceArenaStore::Stats stats = store.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.residentBytes, 0u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(held->numOps, 5000u);
    EXPECT_EQ(store.find(p), nullptr);

    // Releasing what the store does not hold is a no-op, and the next
    // acquire recaptures.
    store.release(p);
    store.release(params(5000, 43));
    const auto again = store.acquire(p);
    stats = store.stats();
    EXPECT_EQ(stats.captures, 2u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.residentBytes, again->byteSize());
}

TEST(ArenaStore, ReleasedArenasReloadFromTheirSpill)
{
    const std::string spill_dir =
        std::string(::testing::TempDir()) + "/arena_store_release_spill";
    const auto p = params(5000, 96);
    TraceArenaStore store(64 * kMiB, spill_dir);
    store.acquire(p);
    store.release(p);

    // The spill outlives the release: the next lookup reloads it
    // instead of recapturing.
    const auto arena = store.find(p);
    ASSERT_NE(arena, nullptr);
    EXPECT_EQ(arena->numOps, 5000u);
    const TraceArenaStore::Stats stats = store.stats();
    EXPECT_EQ(stats.captures, 1u);
    EXPECT_EQ(stats.spillLoads, 1u);
    EXPECT_EQ(stats.entries, 1u);
    std::remove(
        store.spillPathFor(trace::describeTraceParams(p)).c_str());
}

TEST(ArenaStore, DistinctConfigsGetDistinctArenas)
{
    TraceArenaStore store(64 * kMiB);
    const auto a = store.acquire(params(5000, 42));
    const auto b = store.acquire(params(5000, 43));
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(store.stats().captures, 2u);
    EXPECT_EQ(store.stats().entries, 2u);
}

TEST(ArenaStore, EvictsLeastRecentlyUsedUnderBudget)
{
    // Budget fits two arenas but not three; the oldest must go.
    const std::uint64_t one = arenaBytes(5000);
    TraceArenaStore store(2 * one + one / 2);
    store.acquire(params(5000, 1));
    store.acquire(params(5000, 2));
    EXPECT_EQ(store.stats().entries, 2u);
    store.acquire(params(5000, 3));

    TraceArenaStore::Stats stats = store.stats();
    EXPECT_GE(stats.evictions, 1u);
    EXPECT_LE(stats.residentBytes, store.budgetBytes());

    // Seed 1 was the least recently used; re-acquiring it recaptures
    // (3 first captures + this one), while a recent key still hits.
    store.acquire(params(5000, 3));
    EXPECT_EQ(store.stats().hits, 1u);
    store.acquire(params(5000, 1));
    EXPECT_EQ(store.stats().captures, 4u);
}

TEST(ArenaStore, OverBudgetArenasAreServedUncached)
{
    TraceArenaStore store(1024); // smaller than any captured arena
    const auto arena = store.acquire(params(5000, 7));
    ASSERT_NE(arena, nullptr);
    EXPECT_EQ(arena->numOps, 5000u);

    const TraceArenaStore::Stats stats = store.stats();
    EXPECT_EQ(stats.captures, 1u);
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.residentBytes, 0u);
}

TEST(ArenaStore, SpillFileNamesAreTheKeysFnv1aInUnpaddedHex)
{
    // Spill files outlive the process that wrote them, so their names
    // must never change. This key's hash has a leading zero nibble,
    // which the name drops.
    const TraceArenaStore store(64 * kMiB, "spill");
    EXPECT_EQ(store.spillPathFor("seed=10"),
              "spill/arena-afeb07c08db2ed2.s17a");
}

TEST(ArenaStore, SpilledArenasReloadAcrossStores)
{
    const std::string spill_dir =
        std::string(::testing::TempDir()) + "/arena_store_spill";
    const auto p = params(5000, 99);
    std::string spill_path;
    {
        TraceArenaStore store(64 * kMiB, spill_dir);
        store.acquire(p);
        EXPECT_EQ(store.stats().captures, 1u);
        spill_path =
            store.spillPathFor(trace::describeTraceParams(p));
    }

    // A fresh store with the same spill directory reloads instead of
    // recapturing, and the reloaded arena replays the same stream.
    TraceArenaStore reloaded(64 * kMiB, spill_dir);
    const auto arena = reloaded.acquire(p);
    ASSERT_NE(arena, nullptr);
    EXPECT_EQ(arena->numOps, 5000u);
    const TraceArenaStore::Stats stats = reloaded.stats();
    EXPECT_EQ(stats.captures, 0u);
    EXPECT_EQ(stats.spillLoads, 1u);
    std::remove(spill_path.c_str());
}

TEST(ArenaStore, SpillReloadKeepsTheCaptureOffset)
{
    // Threaded pairs place thread t's trace at t GiB. S17A does not
    // store the offset, so a reload that left it at 0 would make
    // openTrace shift those traces a second time.
    const std::string spill_dir =
        std::string(::testing::TempDir()) + "/arena_store_offset_spill";
    trace::SyntheticTraceParams p = params(5000, 95);
    p.addressOffset = 3 * kGiB;
    TraceArenaStore writer(64 * kMiB, spill_dir);
    EXPECT_EQ(writer.acquire(p)->addressOffset, p.addressOffset);

    TraceArenaStore reader(64 * kMiB, spill_dir);
    const auto arena = reader.find(p);
    ASSERT_NE(arena, nullptr);
    EXPECT_EQ(reader.stats().spillLoads, 1u);
    EXPECT_EQ(arena->addressOffset, p.addressOffset);

    trace::SyntheticTraceGenerator live(p);
    const PairTrace replayed = openTrace(p, arena);
    isa::MicroOp want;
    isa::MicroOp got;
    std::size_t ops = 0;
    while (live.next(want)) {
        ASSERT_TRUE(replayed.source->next(got)) << "op " << ops;
        EXPECT_EQ(got.cls, want.cls) << "op " << ops;
        EXPECT_EQ(got.pc, want.pc) << "op " << ops;
        ASSERT_EQ(got.effAddr, want.effAddr) << "op " << ops;
        ++ops;
    }
    EXPECT_FALSE(replayed.source->next(got));
    EXPECT_EQ(ops, 5000u);
    std::remove(
        writer.spillPathFor(trace::describeTraceParams(p)).c_str());
}

TEST(ArenaStore, FindReloadsSpillsButNeverCaptures)
{
    const std::string spill_dir =
        std::string(::testing::TempDir()) + "/arena_store_find_spill";
    const auto p = params(5000, 98);
    TraceArenaStore writer(64 * kMiB, spill_dir);
    writer.acquire(p);

    TraceArenaStore reader(64 * kMiB, spill_dir);
    const auto arena = reader.find(p);
    ASSERT_NE(arena, nullptr);
    EXPECT_EQ(arena->numOps, 5000u);
    EXPECT_EQ(reader.find(params(5000, 97)), nullptr);
    const TraceArenaStore::Stats stats = reader.stats();
    EXPECT_EQ(stats.captures, 0u);
    EXPECT_EQ(stats.spillLoads, 1u);
    EXPECT_EQ(stats.entries, 1u);
    std::remove(
        writer.spillPathFor(trace::describeTraceParams(p)).c_str());
}

} // namespace
} // namespace suite
} // namespace spec17
