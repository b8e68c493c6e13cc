#include "trace/kernels.hh"

#include <gtest/gtest.h>

#include <set>

namespace spec17 {
namespace trace {
namespace {

std::vector<isa::MicroOp>
drain(TraceSource &source)
{
    std::vector<isa::MicroOp> ops;
    isa::MicroOp op;
    while (source.next(op))
        ops.push_back(op);
    return ops;
}

TEST(StreamKernel, EmitsExpectedOpSequence)
{
    StreamKernel kernel(1024, 3, /*with_store=*/true);
    const auto ops = drain(kernel);
    ASSERT_EQ(ops.size(), 3u * kernel.opsPerIteration());
    EXPECT_TRUE(ops[0].isLoad());
    EXPECT_TRUE(ops[1].isStore());
    EXPECT_EQ(ops[2].cls, isa::UopClass::IntAlu);
    EXPECT_TRUE(ops[3].isBranch());
    // Loop branch taken except on the last iteration.
    EXPECT_TRUE(ops[3].taken);
    EXPECT_FALSE(ops.back().taken);
}

TEST(StreamKernel, SequentialAddressesWrap)
{
    StreamKernel kernel(64, 16, false); // 8 elements, 2 passes
    const auto ops = drain(kernel);
    std::uint64_t last = 0;
    int loads = 0;
    for (const auto &op : ops) {
        if (!op.isLoad())
            continue;
        if (loads > 0 && loads % 8 != 0) {
            EXPECT_EQ(op.effAddr, last + 8);
        }
        last = op.effAddr;
        ++loads;
    }
    EXPECT_EQ(loads, 16);
}

TEST(PointerChase, EveryLoadAfterFirstIsDependent)
{
    PointerChaseKernel kernel(64 * 64, 50);
    const auto ops = drain(kernel);
    int loads = 0;
    for (const auto &op : ops) {
        if (!op.isLoad())
            continue;
        if (loads == 0)
            EXPECT_FALSE(op.depOnLoad);
        else
            EXPECT_TRUE(op.depOnLoad);
        ++loads;
    }
    EXPECT_EQ(loads, 50);
}

TEST(PointerChase, VisitsAllNodesBeforeRepeating)
{
    const std::uint64_t nodes = 32;
    PointerChaseKernel kernel(nodes * 64, nodes);
    const auto ops = drain(kernel);
    std::set<std::uint64_t> seen;
    for (const auto &op : ops) {
        if (op.isLoad())
            seen.insert(op.effAddr);
    }
    // Sattolo cycle: all nodes visited exactly once per lap.
    EXPECT_EQ(seen.size(), nodes);
}

TEST(PointerChase, DeterministicPermutationPerSeed)
{
    PointerChaseKernel a(4096, 30, 9);
    PointerChaseKernel b(4096, 30, 9);
    PointerChaseKernel c(4096, 30, 10);
    const auto oa = drain(a);
    const auto ob = drain(b);
    const auto oc = drain(c);
    bool all_same_ab = true, all_same_ac = true;
    for (std::size_t i = 0; i < oa.size(); ++i) {
        all_same_ab &= oa[i].effAddr == ob[i].effAddr;
        all_same_ac &= oa[i].effAddr == oc[i].effAddr;
    }
    EXPECT_TRUE(all_same_ab);
    EXPECT_FALSE(all_same_ac);
}

TEST(MatrixWalk, RowMajorIsSequential)
{
    MatrixWalkKernel kernel(4, 8, /*row_major=*/true);
    const auto ops = drain(kernel);
    std::uint64_t expect = 0;
    for (const auto &op : ops) {
        if (!op.isLoad())
            continue;
        EXPECT_EQ(op.effAddr % (4 * 8 * 8), expect % (4 * 8 * 8));
        expect += 8;
    }
}

TEST(MatrixWalk, ColumnMajorStridesByRow)
{
    MatrixWalkKernel kernel(4, 8, /*row_major=*/false);
    const auto ops = drain(kernel);
    std::vector<std::uint64_t> loads;
    for (const auto &op : ops) {
        if (op.isLoad())
            loads.push_back(op.effAddr);
    }
    ASSERT_GE(loads.size(), 3u);
    // Walking down a column of a row-major matrix strides by the row
    // size (8 cols x 8 bytes).
    EXPECT_EQ(loads[1] - loads[0], 8u * 8u);
    EXPECT_EQ(loads[2] - loads[1], 8u * 8u);
}

TEST(MatrixWalk, PassesRepeatTheWholeMatrix)
{
    MatrixWalkKernel kernel(2, 2, true, 3);
    const auto ops = drain(kernel);
    int loads = 0;
    for (const auto &op : ops)
        loads += op.isLoad();
    EXPECT_EQ(loads, 2 * 2 * 3);
}

TEST(VectorTrace, ReplaysAndResets)
{
    std::vector<isa::MicroOp> ops = {
        isa::makeAlu(0x1000),
        isa::makeLoad(0x1004, 0x2000),
    };
    VectorTrace source(ops);
    isa::MicroOp op;
    ASSERT_TRUE(source.next(op));
    EXPECT_EQ(op.pc, 0x1000u);
    ASSERT_TRUE(source.next(op));
    EXPECT_TRUE(op.isLoad());
    EXPECT_FALSE(source.next(op));
    VectorTrace again(ops);
    ASSERT_TRUE(again.next(op));
    EXPECT_EQ(op.pc, 0x1000u);
}

TEST(KernelsDeathTest, RejectDegenerateShapes)
{
    EXPECT_DEATH(StreamKernel(4, 10), "too small");
    EXPECT_DEATH(PointerChaseKernel(64, 10), ">= 2 nodes");
    EXPECT_DEATH(MatrixWalkKernel(0, 4, true), "non-empty");
}

} // namespace
} // namespace trace
} // namespace spec17
