/**
 * @file
 * Batched trace delivery: TraceSource::nextBatchSoA() must describe
 * the same stream as next() -- op for op, at any batch size, across
 * phase boundaries, through the default adapter, and mixed freely with
 * per-op pulls -- and reset() after a partially consumed batch must
 * replay the identical stream from the top (the contract retry-with-
 * seed-perturbation and record/replay depend on).
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

TEST(TraceBatch, ResetAfterPartialBatchReplaysIdenticalStream)
{
    // The documented reset() contract: no matter how far or in what
    // chunk sizes the stream was consumed, reset() replays it
    // identically from the first op.
    const std::string path =
        std::string(::testing::TempDir()) + "/spec17_batch_reset.s17t";
    {
        SyntheticTraceGenerator gen(params(5000));
        ASSERT_EQ(writeTrace(path, gen), 5000u);
    }

    const auto check = [](TraceSource &source) {
        const auto golden = drainPerOp(source);
        source.reset();

        // Consume a partial batch (an odd count, mid-stream), then
        // rewind and replay in full.
        MicroOpBatch lanes;
        ASSERT_EQ(source.nextBatchSoA(lanes, 0, 37), 37u);
        source.reset();
        expectSameStream(drainSoA(source, 64), golden);
    };

    SyntheticTraceGenerator synthetic(params(5000));
    check(synthetic);

    std::vector<std::shared_ptr<TraceSource>> phases;
    phases.push_back(
        std::make_shared<StreamKernel>(32 * 1024, 200, false));
    phases.push_back(
        std::make_shared<SyntheticTraceGenerator>(params(2000)));
    PhasedTrace phased(std::move(phases));
    check(phased);

    FileTrace file(path);
    check(file);

    PointerChaseKernel kernel(256 * 1024, 900, 8);
    check(kernel);

    std::remove(path.c_str());
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

TEST(TraceBatch, CancellationStopsABatchAtTheFlag)
{
    bool cancelled = false;
    SyntheticTraceGenerator gen(params());
    gen.setCancelFlag(&cancelled);

    MicroOpBatch lanes;
    ASSERT_EQ(gen.nextBatchSoA(lanes, 0, 64), 64u);
    cancelled = true;
    EXPECT_EQ(gen.nextBatchSoA(lanes, 0, 64), 0u);
    EXPECT_EQ(gen.emittedOps(), 64u);

    // Clearing the flag resumes exactly where the stream stopped,
    // like next() does.
    cancelled = false;
    EXPECT_EQ(gen.nextBatchSoA(lanes, 0, 64), 64u);
    EXPECT_EQ(gen.emittedOps(), 128u);
}

TEST(TraceBatch, PhasedDoesNotDropACancelledPhaseRemainder)
{
    // Regression: a child returning short because its cancel flag is
    // raised is paused, not exhausted. PhasedTrace used to advance
    // past it anyway, silently dropping the phase's remaining ops and
    // splicing the next phase's head into the stream. cancelled()
    // distinguishes the two cases on every surface.
    const auto make = [](const bool *flag) {
        auto first =
            std::make_shared<SyntheticTraceGenerator>(params(100));
        first->setCancelFlag(flag);
        SyntheticTraceParams second = params(100);
        second.seed = 4321;
        std::vector<std::shared_ptr<TraceSource>> phases;
        phases.push_back(first);
        phases.push_back(
            std::make_shared<SyntheticTraceGenerator>(second));
        return PhasedTrace(std::move(phases));
    };

    PhasedTrace golden_trace = make(nullptr);
    const auto golden = drainPerOp(golden_trace);
    ASSERT_EQ(golden.size(), 200u);

    // Cancel mid-phase-0, observe the pause, resume, and check the
    // full stream is intact on each surface.
    const auto check = [&](auto &&pull) {
        bool cancelled = false;
        PhasedTrace phased = make(&cancelled);
        std::vector<isa::MicroOp> ops = pull(phased, 64);
        ASSERT_EQ(ops.size(), 64u);

        cancelled = true;
        EXPECT_TRUE(phased.cancelled());
        EXPECT_TRUE(pull(phased, 64).empty());
        // The cursor must still be on the paused phase 0.
        EXPECT_EQ(phased.currentPhase(), 0u);

        cancelled = false;
        while (true) {
            const auto got = pull(phased, 64);
            ops.insert(ops.end(), got.begin(), got.end());
            if (got.size() < 64)
                break;
        }
        expectSameStream(ops, golden);
    };

    check([](PhasedTrace &source, std::size_t n) {
        MicroOpBatch lanes;
        const std::size_t got = source.nextBatchSoA(lanes, 0, n);
        std::vector<isa::MicroOp> ops;
        for (std::size_t i = 0; i < got; ++i)
            ops.push_back(lanes.get(i));
        return ops;
    });
    check([](PhasedTrace &source, std::size_t n) {
        std::vector<isa::MicroOp> ops;
        isa::MicroOp op;
        while (ops.size() < n && source.next(op))
            ops.push_back(op);
        return ops;
    });
}

} // namespace
} // namespace trace
} // namespace spec17
