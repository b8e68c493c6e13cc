#include "trace/phased.hh"

#include <gtest/gtest.h>

#include "trace/kernels.hh"

namespace spec17 {
namespace trace {
namespace {

PhasedTrace
threePhases()
{
    std::vector<std::shared_ptr<TraceSource>> phases;
    phases.push_back(std::make_shared<StreamKernel>(1024, 10));
    phases.push_back(std::make_shared<PointerChaseKernel>(4096, 20));
    phases.push_back(std::make_shared<StreamKernel>(2048, 5, true));
    return PhasedTrace(std::move(phases));
}

TEST(PhasedTrace, PlaysChildrenInOrder)
{
    PhasedTrace trace = threePhases();
    EXPECT_EQ(trace.numPhases(), 3u);
    isa::MicroOp op;
    std::uint64_t count = 0;
    std::size_t last_phase = 0;
    while (trace.next(op)) {
        ++count;
        // Phase index is monotone.
        EXPECT_GE(trace.currentPhase(), last_phase);
        last_phase = trace.currentPhase();
    }
    // stream(10 iters x3) + chase(20 hops x2) + stream-store(5 x4).
    EXPECT_EQ(count, 10u * 3 + 20u * 2 + 5u * 4);
    EXPECT_EQ(trace.currentPhase(), 3u);
}

TEST(PhasedTrace, ReserveIsMaxOfChildren)
{
    PhasedTrace trace = threePhases();
    // Children reserve 1024, 4096 and 2*2048.
    EXPECT_EQ(trace.virtualReserveBytes(), 4096u);
}

TEST(PhasedTraceDeathTest, RejectsEmptyAndNull)
{
    EXPECT_DEATH(PhasedTrace({}), ">= 1 phase");
    std::vector<std::shared_ptr<TraceSource>> with_null = {nullptr};
    EXPECT_DEATH(PhasedTrace(std::move(with_null)), "null phase");
}

} // namespace
} // namespace trace
} // namespace spec17
