/**
 * @file
 * Batched trace delivery: TraceSource::nextBatchSoA() must describe
 * the same stream as next() -- op for op, at any batch size, across
 * phase boundaries, through the default adapter, and mixed freely with
 * per-op pulls -- and the six lanes must carry every op a source can
 * deliver, field for field.
 */

#include "trace/source.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "trace/file.hh"
#include "trace/kernels.hh"
#include "trace/phased.hh"
#include "trace/synthetic.hh"

namespace spec17 {
namespace trace {
namespace {

SyntheticTraceParams
params(std::uint64_t num_ops = 20000)
{
    SyntheticTraceParams p;
    p.numOps = num_ops;
    p.seed = 99;
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
    }
}

TEST(TraceBatch, SyntheticBatchMatchesPerOpAtAnyBatchSize)
{
    SyntheticTraceGenerator per_op(params());
    const auto golden = drainPerOp(per_op);
    ASSERT_EQ(golden.size(), 20000u);

    // 7 and 999 leave a short final batch; 1 is the degenerate case.
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                    std::size_t{64}, std::size_t{999}}) {
        SyntheticTraceGenerator gen(params());
        expectSameStream(drainSoA(gen, batch), golden);
    }
}

TEST(TraceBatch, PhasedBatchMatchesPerOpAcrossPhaseBoundaries)
{
    const auto make = [] {
        std::vector<std::shared_ptr<TraceSource>> phases;
        phases.push_back(
            std::make_shared<StreamKernel>(64 * 1024, 500, true));
        phases.push_back(
            std::make_shared<SyntheticTraceGenerator>(params(3001)));
        phases.push_back(
            std::make_shared<PointerChaseKernel>(512 * 1024, 700, 16));
        return PhasedTrace(std::move(phases));
    };

    PhasedTrace per_op = make();
    const auto golden = drainPerOp(per_op);

    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{7}, std::size_t{64},
          std::size_t{4096}}) {
        PhasedTrace phased = make();
        expectSameStream(drainSoA(phased, batch), golden);
    }
}

TEST(TraceBatch, DefaultFallbackMatchesPerOp)
{
    // Kernels don't override nextBatchSoA; the base-class adapter
    // (a next() loop scattered into the lanes) must deliver the same
    // stream.
    MatrixWalkKernel per_op(64, 96, /*row_major=*/false, 3);
    const auto golden = drainPerOp(per_op);

    MatrixWalkKernel batched(64, 96, /*row_major=*/false, 3);
    expectSameStream(drainSoA(batched, 13), golden);
}

TEST(TraceBatch, FileTraceBatchMatchesPerOp)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/spec17_batch_trace.s17t";
    SyntheticTraceGenerator gen(params(9000));
    ASSERT_EQ(writeTrace(path, gen), 9000u);

    FileTrace per_op(path);
    const auto golden = drainPerOp(per_op);
    ASSERT_EQ(golden.size(), 9000u);

    // 4096 matches the decode-buffer size; 1000 straddles refills.
    for (const std::size_t batch : {std::size_t{1}, std::size_t{1000},
                                    std::size_t{4096}}) {
        FileTrace file(path);
        expectSameStream(drainSoA(file, batch), golden);
    }
    std::remove(path.c_str());
}

TEST(TraceBatch, MixedPerOpAndBatchPullsAreOneStream)
{
    SyntheticTraceGenerator per_op(params());
    const auto golden = drainPerOp(per_op);

    SyntheticTraceGenerator mixed(params());
    std::vector<isa::MicroOp> ops;
    isa::MicroOp op;
    MicroOpBatch lanes;
    while (true) {
        if (ops.size() % 3 == 0) {
            if (!mixed.next(op))
                break;
            ops.push_back(op);
        } else {
            const std::size_t got = mixed.nextBatchSoA(lanes, 0, 17);
            for (std::size_t i = 0; i < got; ++i)
                ops.push_back(lanes.get(i));
            if (got < 17)
                break;
        }
    }
    expectSameStream(ops, golden);
}

TEST(TraceBatch, SoaPullsAtAnOffsetStitchOneStream)
{
    // The `at` parameter lets a combinator place a child's ops deeper
    // in the lanes; a chunk assembled from two offset pulls must read
    // back as the contiguous stream.
    SyntheticTraceGenerator per_op(params(200));
    const auto golden = drainPerOp(per_op);

    SyntheticTraceGenerator gen(params(200));
    MicroOpBatch lanes;
    ASSERT_EQ(gen.nextBatchSoA(lanes, 0, 80), 80u);
    ASSERT_EQ(gen.nextBatchSoA(lanes, 80, 120), 120u);
    std::vector<isa::MicroOp> ops;
    for (std::size_t i = 0; i < 200; ++i)
        ops.push_back(lanes.get(i));
    expectSameStream(ops, golden);
}

TEST(TraceBatch, PhasedGoldenBatchSplitAcrossATransition)
{
    // Golden case for the phase-boundary remainder contract: a batch
    // sized to straddle the first phase's end must contain the tail
    // of phase 0 followed by the head of phase 1, exactly as a
    // next() loop would deliver them.
    const auto make = [] {
        SyntheticTraceParams second = params(100);
        second.seed = 1234;  // distinct stream on each side
        std::vector<std::shared_ptr<TraceSource>> phases;
        phases.push_back(
            std::make_shared<SyntheticTraceGenerator>(params(100)));
        phases.push_back(
            std::make_shared<SyntheticTraceGenerator>(second));
        return PhasedTrace(std::move(phases));
    };

    PhasedTrace per_op = make();
    const auto golden = drainPerOp(per_op);
    ASSERT_EQ(golden.size(), 200u);

    // One 64-op batch to 64, then a 64-op batch covering ops 64..127
    // -- the second one crosses the boundary at op 100.
    PhasedTrace soa = make();
    MicroOpBatch lanes;
    ASSERT_EQ(soa.nextBatchSoA(lanes, 0, 64), 64u);
    ASSERT_EQ(soa.currentPhase(), 0u);
    ASSERT_EQ(soa.nextBatchSoA(lanes, 64, 64), 64u);
    EXPECT_EQ(soa.currentPhase(), 1u);
    for (std::size_t i = 0; i < 128; ++i) {
        const isa::MicroOp op = lanes.get(i);
        EXPECT_EQ(op.pc, golden[i].pc) << "op " << i;
        EXPECT_EQ(op.cls, golden[i].cls) << "op " << i;
        EXPECT_EQ(op.effAddr, golden[i].effAddr) << "op " << i;
    }
}

TEST(TraceBatch, SetGetRoundTripsEveryClassAboveFourGiB)
{
    // Six lanes carry all nine fields: the operand lane holds a memory
    // op's address or a branch's target at full width, and the flags
    // byte any combination of the three bools.
    constexpr std::uint64_t kHigh = std::uint64_t(0xfedc) << 32;
    std::vector<isa::MicroOp> ops;
    for (std::size_t c = 0; c < isa::kNumUopClasses; ++c) {
        const auto cls = static_cast<isa::UopClass>(c);
        const std::size_t kinds =
            cls == isa::UopClass::Branch ? isa::kNumBranchKinds : 1;
        for (std::size_t k = 0; k < kinds; ++k) {
            for (unsigned bits = 0; bits <= kFlagMask; ++bits) {
                isa::MicroOp op;
                op.cls = cls;
                op.pc = kHigh + 4 * ops.size();
                op.taken = (bits & kFlagTaken) != 0;
                op.depOnLoad = (bits & kFlagDepOnLoad) != 0;
                op.depOnPrev = (bits & kFlagDepOnPrev) != 0;
                if (op.isMemory()) {
                    op.effAddr = kHigh + 0x123456789 + 8 * ops.size();
                    op.size = static_cast<std::uint8_t>(1u << (bits % 4));
                }
                if (op.isBranch()) {
                    op.branch = static_cast<isa::BranchKind>(k + 1);
                    op.target = kHigh + 0x987654321 + 4 * ops.size();
                }
                ops.push_back(op);
            }
        }
    }
    MicroOpBatch lanes;
    lanes.ensure(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        lanes.set(i, ops[i]);
    std::vector<isa::MicroOp> gathered;
    for (std::size_t i = 0; i < ops.size(); ++i)
        gathered.push_back(lanes.get(i));
    expectSameStream(gathered, ops);
}

TEST(TraceBatchDeathTest, SetRejectsAnOpTheLanesCannotCarry)
{
    MicroOpBatch lanes;
    lanes.ensure(1);
    isa::MicroOp alu = isa::makeAlu(0x400000);
    alu.effAddr = 64;
    EXPECT_DEATH(lanes.set(0, alu), "does not fit the lanes");
    isa::MicroOp load = isa::makeLoad(0x400000, 64);
    load.target = 0x400040;
    EXPECT_DEATH(lanes.set(0, load), "does not fit the lanes");
    isa::MicroOp branch = isa::makeBranch(
        0x400000, isa::BranchKind::Conditional, true, 0x400040);
    branch.effAddr = 64;
    EXPECT_DEATH(lanes.set(0, branch), "does not fit the lanes");
}

} // namespace
} // namespace trace
} // namespace spec17
