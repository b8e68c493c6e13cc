/**
 * @file
 * Trace-arena golden tests: a captured arena replayed through
 * ReplaySource must be draw-for-draw identical to live generation on
 * every delivery surface (next(), nextBatchSoA(), the zero-copy
 * nextLanes()), mixed freely and again by a second source over the
 * same arena, also when it replays the arena shifted to another
 * address offset; the lanes must hold 20 bytes an op, and a shifted
 * replay must move memory operands only; the S17A spill format must
 * round-trip an arena exactly and reject torn, foreign, forged,
 * old-version or lane-corrupt files by returning nullptr (never
 * aborting a run).
 */

#include "trace/arena.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "suite/arena_store.hh"
#include "trace/synthetic.hh"
#include "util/units.hh"

namespace spec17 {
namespace trace {
namespace {

SyntheticTraceParams
params(std::uint64_t num_ops = 20000, std::uint64_t seed = 99,
       std::uint64_t address_offset = 0)
{
    SyntheticTraceParams p;
    p.numOps = num_ops;
    p.seed = seed;
    p.addressOffset = address_offset;
    p.loadFrac = 0.25;
    p.storeFrac = 0.10;
    p.branchFrac = 0.15;
    p.regions = {
        {AccessPattern::Sequential, 256 * 1024, 64, 1.0, 1.0},
        {AccessPattern::PointerChase, 2 * 1024 * 1024, 64, 1.0, 0.5},
    };
    return p;
}

std::vector<isa::MicroOp>
drainPerOp(TraceSource &source)
{
    std::vector<isa::MicroOp> ops;
    isa::MicroOp op;
    while (source.next(op))
        ops.push_back(op);
    return ops;
}

/** Drains through nextBatchSoA, gathering lanes back to AoS ops. */
std::vector<isa::MicroOp>
drainSoA(TraceSource &source, std::size_t batch)
{
    std::vector<isa::MicroOp> ops;
    MicroOpBatch lanes;
    while (true) {
        const std::size_t got = source.nextBatchSoA(lanes, 0, batch);
        for (std::size_t i = 0; i < got; ++i)
            ops.push_back(lanes.get(i));
        if (got < batch)
            return ops;
    }
}

void
expectSameStream(const std::vector<isa::MicroOp> &a,
                 const std::vector<isa::MicroOp> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cls, b[i].cls) << "op " << i;
        EXPECT_EQ(a[i].branch, b[i].branch) << "op " << i;
        EXPECT_EQ(a[i].pc, b[i].pc) << "op " << i;
        EXPECT_EQ(a[i].effAddr, b[i].effAddr) << "op " << i;
        EXPECT_EQ(a[i].size, b[i].size) << "op " << i;
        EXPECT_EQ(a[i].taken, b[i].taken) << "op " << i;
        EXPECT_EQ(a[i].target, b[i].target) << "op " << i;
        EXPECT_EQ(a[i].depOnLoad, b[i].depOnLoad) << "op " << i;
        EXPECT_EQ(a[i].depOnPrev, b[i].depOnPrev) << "op " << i;
        if (::testing::Test::HasFailure())
            return; // one divergence is enough diagnostics
    }
}

std::shared_ptr<const TraceArena>
capture(const SyntheticTraceParams &p)
{
    return std::make_shared<const TraceArena>(captureArena(p));
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** A store finding a bad spill at @p p's path in @p dir must
 *  recapture: never throw, never serve the bad file. */
void
expectCleanRecapture(const SyntheticTraceParams &p, const std::string &dir)
{
    SyntheticTraceGenerator live(p);
    suite::TraceArenaStore store(64 * kMiB, dir);
    const auto arena = store.acquire(p);
    ASSERT_NE(arena, nullptr);
    EXPECT_EQ(store.stats().captures, 1u);
    EXPECT_EQ(store.stats().spillLoads, 0u);
    ReplaySource replay(arena);
    expectSameStream(drainPerOp(live), drainPerOp(replay));
}

/** Offsets the golden cases replay an offset-0 capture at: unshifted,
 *  and shifted to two other co-run contexts' address spaces. */
constexpr std::uint64_t kReplayOffsets[] = {0, 8 * kGiB, 24 * kGiB};

TEST(Arena, CaptureDrainsTheWholeStreamOnce)
{
    const SyntheticTraceParams p = params();
    SyntheticTraceGenerator live(p);
    const std::vector<isa::MicroOp> reference = drainPerOp(live);

    const auto arena = capture(p);
    EXPECT_EQ(arena->numOps, reference.size());
    EXPECT_EQ(arena->virtualReserveBytes, live.virtualReserveBytes());
    EXPECT_GT(arena->byteSize(), 0u);
}

TEST(Arena, LanesHoldTwentyBytesPerOpOfCapacity)
{
    // cls, kind, accessSize and flags take a byte each, pc and operand
    // eight: byteSize() counts capacity, so an over-allocated capture
    // is charged for its spare slots too.
    SyntheticTraceGenerator source(params(5000));
    const TraceArena arena = captureArena(source, 6000);
    EXPECT_EQ(arena.numOps, 5000u);
    EXPECT_EQ(arena.lanes.capacity(), 6000u);
    EXPECT_EQ(arena.byteSize(), 20u * 6000u);

    // A spill holds the 24-byte header and 20 bytes per captured op.
    const std::string path =
        std::string(::testing::TempDir()) + "/arena_size.s17a";
    ASSERT_TRUE(saveArena(path, arena));
    EXPECT_EQ(fileBytes(path).size(), 24u + 20u * 5000u);
    std::remove(path.c_str());
}

TEST(Arena, ShiftedReplayMovesOnlyMemoryOperands)
{
    // The operand lane holds Load/Store addresses and Branch targets;
    // a context's offset moves the addresses only.
    const auto arena = capture(params());
    const MicroOpBatch &captured = arena->lanes;
    ReplaySource shifted(arena, 8 * kGiB);
    MicroOpBatch lanes;
    ASSERT_EQ(shifted.nextBatchSoA(lanes, 0, arena->numOps),
              arena->numOps);
    std::size_t memory_ops = 0;
    std::size_t branches = 0;
    for (std::size_t i = 0; i < arena->numOps; ++i) {
        const bool memory = captured.cls[i] == isa::UopClass::Load
            || captured.cls[i] == isa::UopClass::Store;
        memory_ops += memory;
        branches += captured.cls[i] == isa::UopClass::Branch;
        EXPECT_EQ(lanes.operand[i],
                  captured.operand[i] + (memory ? 8 * kGiB : 0))
            << "op " << i;
        EXPECT_EQ(lanes.cls[i], captured.cls[i]) << "op " << i;
        EXPECT_EQ(lanes.kind[i], captured.kind[i]) << "op " << i;
        EXPECT_EQ(lanes.pc[i], captured.pc[i]) << "op " << i;
        EXPECT_EQ(lanes.accessSize[i], captured.accessSize[i])
            << "op " << i;
        EXPECT_EQ(lanes.flags[i], captured.flags[i]) << "op " << i;
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_GT(memory_ops, 0u);
    EXPECT_GT(branches, 0u);
}

TEST(Arena, ReplayMatchesLivePerOp)
{
    // A capture replays as live generation at the replayed offset,
    // whichever offset it was captured at: shifts run both ways, and
    // a downward one wraps exactly.
    for (const std::uint64_t captured : {std::uint64_t(0), 24 * kGiB}) {
        const auto arena = capture(params(20000, 99, captured));
        EXPECT_EQ(arena->addressOffset, captured);
        for (const std::uint64_t offset : kReplayOffsets) {
            SyntheticTraceGenerator live(params(20000, 99, offset));
            ReplaySource replay(arena, offset);
            expectSameStream(drainPerOp(live), drainPerOp(replay));
            EXPECT_EQ(replay.virtualReserveBytes(),
                      live.virtualReserveBytes());
        }
    }
}

TEST(Arena, ReplayMatchesLiveAtAnyBatchSize)
{
    const auto arena = capture(params());
    for (const std::uint64_t offset : kReplayOffsets) {
        SyntheticTraceGenerator live(params(20000, 99, offset));
        const std::vector<isa::MicroOp> reference = drainPerOp(live);
        for (const std::size_t batch :
             {std::size_t(1), std::size_t(7), std::size_t(256),
              std::size_t(1000), std::size_t(1024), std::size_t(4096),
              std::size_t(100000)}) {
            ReplaySource replay(arena, offset);
            expectSameStream(reference, drainSoA(replay, batch));
        }
    }
}

TEST(Arena, SurfacesMixFreelyAndResetRewindsExactly)
{
    const auto arena = capture(params());
    for (const std::uint64_t offset : kReplayOffsets) {
        SyntheticTraceGenerator live(params(20000, 99, offset));
        const std::vector<isa::MicroOp> reference = drainPerOp(live);

        const auto drain_mixed = [&](ReplaySource &replay) {
            std::vector<isa::MicroOp> mixed;
            isa::MicroOp op;
            for (int i = 0; i < 13 && replay.next(op); ++i)
                mixed.push_back(op);
            MicroOpBatch lanes;
            std::size_t got = replay.nextBatchSoA(lanes, 0, 500);
            for (std::size_t i = 0; i < got; ++i)
                mixed.push_back(lanes.get(i));
            // The zero-copy view is the arena's own lanes, so only an
            // unshifted source offers it; a shifted one declines and
            // the pull stages through nextBatchSoA, as the
            // simulator's does.
            std::size_t at = 0;
            const MicroOpBatch *view = replay.nextLanes(1000, at, got);
            EXPECT_EQ(view, offset == 0 ? &arena->lanes : nullptr);
            if (view == nullptr) {
                got = replay.nextBatchSoA(lanes, 0, 1000);
                at = 0;
                view = &lanes;
            }
            for (std::size_t i = 0; i < got; ++i)
                mixed.push_back(view->get(at + i));
            while (replay.next(op))
                mixed.push_back(op);
            return mixed;
        };
        ReplaySource replay(arena, offset);
        expectSameStream(reference, drain_mixed(replay));

        // A second pass is a second source over the same arena: the
        // first one's cursor does not leak into it.
        ReplaySource again(arena, offset);
        EXPECT_EQ(again.deliveredOps(), 0u);
        expectSameStream(reference, drain_mixed(again));
    }
}

TEST(Arena, NextLanesIsZeroCopyIntoTheArena)
{
    const SyntheticTraceParams p = params(5000);
    const auto arena = capture(p);
    ReplaySource replay(arena);

    std::size_t at = 0, got = 0;
    const MicroOpBatch *lanes = replay.nextLanes(1024, at, got);
    ASSERT_NE(lanes, nullptr);
    // Pointer identity: the source serves the arena's own lanes, not
    // a copy, and successive pulls advance the slot offset.
    EXPECT_EQ(lanes, &arena->lanes);
    EXPECT_EQ(at, 0u);
    EXPECT_EQ(got, 1024u);
    lanes = replay.nextLanes(1024, at, got);
    EXPECT_EQ(lanes, &arena->lanes);
    EXPECT_EQ(at, 1024u);

    // The tail pull is short, then the stream reports exhaustion.
    std::size_t drained = 2048;
    while (true) {
        lanes = replay.nextLanes(1024, at, got);
        ASSERT_EQ(lanes, &arena->lanes);
        drained += got;
        if (got < 1024)
            break;
    }
    EXPECT_EQ(drained, arena->numOps);

    // A zero shift, not a zero offset, keeps the view: an arena
    // replayed at the nonzero offset it was captured at is still
    // served in place.
    const auto offset = capture(params(5000, 99, 8 * kGiB));
    ReplaySource unshifted(offset, 8 * kGiB);
    EXPECT_EQ(unshifted.nextLanes(1024, at, got), &offset->lanes);
    EXPECT_EQ(got, 1024u);
}

TEST(Arena, SpillRoundTripsExactly)
{
    const SyntheticTraceParams p = params(9000, 1234);
    const auto arena = capture(p);
    const std::string path =
        std::string(::testing::TempDir()) + "/arena_roundtrip.s17a";
    ASSERT_TRUE(saveArena(path, *arena));

    std::unique_ptr<TraceArena> loaded = loadArena(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->numOps, arena->numOps);
    EXPECT_EQ(loaded->virtualReserveBytes, arena->virtualReserveBytes);
    EXPECT_EQ(loaded->byteSize(), arena->byteSize());
    ReplaySource original(arena);
    ReplaySource reloaded(
        std::shared_ptr<const TraceArena>(std::move(loaded)));
    expectSameStream(drainPerOp(original), drainPerOp(reloaded));
    std::remove(path.c_str());
}

TEST(Arena, LoadRejectsMissingTornAndForeignFiles)
{
    const std::string base = ::testing::TempDir();
    EXPECT_EQ(loadArena(base + "/no_such_arena.s17a"), nullptr);

    // Torn spill: a valid file truncated mid-lanes must be rejected,
    // not partially loaded.
    const SyntheticTraceParams p = params(4000);
    const auto arena = capture(p);
    const std::string path = base + "/arena_torn.s17a";
    ASSERT_TRUE(saveArena(path, *arena));
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 64u);
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn.write(bytes.data(),
               static_cast<std::streamsize>(bytes.size() / 2));
    torn.close();
    EXPECT_EQ(loadArena(path), nullptr);

    // Foreign magic: not an S17A file at all.
    std::ofstream foreign(path, std::ios::binary | std::ios::trunc);
    foreign << "definitely not an arena";
    foreign.close();
    EXPECT_EQ(loadArena(path), nullptr);
    std::remove(path.c_str());
}

TEST(Arena, ForgedOpCountIsRejectedAndRecaptured)
{
    const SyntheticTraceParams p = params(3000);
    const std::string dir =
        std::string(::testing::TempDir()) + "/arena_forged";
    std::filesystem::create_directories(dir);
    const std::string path = suite::TraceArenaStore(kMiB, dir)
                                 .spillPathFor(describeTraceParams(p));

    // Forged header: count = 2^40 over a 3000-op body. The count is
    // refused before it sizes any allocation.
    ASSERT_TRUE(saveArena(path, captureArena(p)));
    {
        std::fstream file(path,
                          std::ios::in | std::ios::out | std::ios::binary);
        const std::uint64_t forged = std::uint64_t(1) << 40;
        file.seekp(8);
        file.write(reinterpret_cast<const char *>(&forged), 8);
    }
    EXPECT_EQ(loadArena(path), nullptr);
    expectCleanRecapture(p, dir);

    // A well-formed spill of another length under this key loads, but
    // the store refuses it for not matching params.numOps.
    ASSERT_TRUE(saveArena(path, captureArena(params(1000))));
    ASSERT_NE(loadArena(path), nullptr);
    expectCleanRecapture(p, dir);
    std::filesystem::remove_all(dir);
}

TEST(Arena, VersionOneSpillIsRejectedAndRecaptured)
{
    // Version 1 held nine lanes; a spill claiming it is refused by its
    // header and the store recaptures.
    const SyntheticTraceParams p = params(3000);
    const std::string dir =
        std::string(::testing::TempDir()) + "/arena_v1";
    std::filesystem::create_directories(dir);
    const std::string path = suite::TraceArenaStore(kMiB, dir)
                                 .spillPathFor(describeTraceParams(p));
    ASSERT_TRUE(saveArena(path, captureArena(p)));
    ASSERT_NE(loadArena(path), nullptr);
    std::string bytes = fileBytes(path);
    const std::uint32_t v1 = 1;
    bytes.replace(4, 4, reinterpret_cast<const char *>(&v1), 4);
    writeBytes(path, bytes);
    EXPECT_EQ(loadArena(path), nullptr);
    expectCleanRecapture(p, dir);
    std::filesystem::remove_all(dir);
}

TEST(Arena, CorruptLaneBytesAreRejected)
{
    // The v2 image holds, after its 24-byte header, the cls, kind, pc,
    // operand, accessSize and flags lanes of n ops, in that order. Each
    // corruption is checked alone, on a fresh copy of a valid spill.
    const auto arena = capture(params(3000));
    const std::size_t n = arena->numOps;
    const std::string path =
        std::string(::testing::TempDir()) + "/arena_lanes.s17a";
    ASSERT_TRUE(saveArena(path, *arena));
    const std::string clean = fileBytes(path);
    ASSERT_EQ(clean.size(), 24 + 20 * n);
    const std::size_t operand_at = 24 + 10 * n;
    const std::size_t flags_at = 24 + 19 * n;
    const auto first = [&](isa::UopClass cls) {
        std::size_t i = 0;
        while (i < n && arena->lanes.cls[i] != cls)
            ++i;
        return i;
    };
    const std::size_t alu = first(isa::UopClass::IntAlu);
    const std::size_t load = first(isa::UopClass::Load);
    const std::size_t branch = first(isa::UopClass::Branch);
    ASSERT_LT(std::max({alu, load, branch}), n);
    const auto load_patched = [&](std::size_t offset, char value) {
        std::string bytes = clean;
        bytes[offset] = value;
        writeBytes(path, bytes);
        return loadArena(path);
    };

    // Every defined flag bit loads; bit 3 does not.
    EXPECT_NE(load_patched(flags_at + alu, 7), nullptr);
    EXPECT_EQ(load_patched(flags_at + alu, 8), nullptr);
    EXPECT_EQ(load_patched(flags_at + load, char(0x80)), nullptr);
    // A load's or branch's operand may hold any value; an ALU op has
    // none.
    EXPECT_NE(load_patched(operand_at + 8 * load + 7, 1), nullptr);
    EXPECT_NE(load_patched(operand_at + 8 * branch + 7, 1), nullptr);
    EXPECT_EQ(load_patched(operand_at + 8 * alu, 1), nullptr);
    EXPECT_EQ(load_patched(operand_at + 8 * alu + 7, 1), nullptr);
    // A branch without a kind would abort the simulator's branch pass;
    // a kind on another op is no op a source delivers.
    const std::size_t kind_at = 24 + n;
    EXPECT_EQ(load_patched(kind_at + branch, 0), nullptr);
    EXPECT_EQ(load_patched(kind_at + alu, 1), nullptr);
    std::remove(path.c_str());
}

TEST(Arena, DescribeTraceParamsIsAnExactKey)
{
    const SyntheticTraceParams a = params();
    EXPECT_EQ(describeTraceParams(a), describeTraceParams(params()));

    SyntheticTraceParams b = params();
    b.seed = 100;
    EXPECT_NE(describeTraceParams(a), describeTraceParams(b));

    // Doubles are keyed exactly (hex-float), so a change below any
    // decimal rounding still produces a distinct key.
    SyntheticTraceParams c = params();
    c.loadFrac = a.loadFrac + 1e-15;
    EXPECT_NE(describeTraceParams(a), describeTraceParams(c));
}

} // namespace
} // namespace trace
} // namespace spec17
