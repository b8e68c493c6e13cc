#include "trace/file.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "trace/kernels.hh"
#include "trace/synthetic.hh"

#include "sim/simulator.hh"

namespace spec17 {
namespace trace {
namespace {

std::string
tempTrace(const char *tag)
{
    return std::string(::testing::TempDir()) + "/spec17_trace_" + tag
        + ".s17t";
}

TEST(TraceFile, RoundTripsEveryField)
{
    SyntheticTraceParams params;
    params.numOps = 5000;
    params.regions = {
        {AccessPattern::Random, 1 << 20, 64, 1.0, 1.0},
        {AccessPattern::PointerChase, 1 << 20, 64, 0.3, 0.0},
    };
    SyntheticTraceGenerator written(params);

    const std::string path = tempTrace("roundtrip");
    EXPECT_EQ(writeTrace(path, written), 5000u);

    SyntheticTraceGenerator original(params);
    FileTrace replay(path);
    EXPECT_EQ(replay.size(), 5000u);
    EXPECT_EQ(replay.virtualReserveBytes(),
              original.virtualReserveBytes());

    isa::MicroOp a, b;
    std::uint64_t compared = 0;
    while (original.next(a)) {
        ASSERT_TRUE(replay.next(b)) << "record " << compared;
        ASSERT_EQ(a.cls, b.cls);
        ASSERT_EQ(a.branch, b.branch);
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.effAddr, b.effAddr);
        ASSERT_EQ(a.size, b.size);
        ASSERT_EQ(a.taken, b.taken);
        ASSERT_EQ(a.target, b.target);
        ASSERT_EQ(a.depOnLoad, b.depOnLoad);
        ASSERT_EQ(a.depOnPrev, b.depOnPrev);
        ++compared;
    }
    EXPECT_FALSE(replay.next(b));
    EXPECT_EQ(compared, 5000u);
    std::remove(path.c_str());
}

TEST(TraceFile, SpansMultipleReadBuffers)
{
    // More than one 4096-record buffer.
    StreamKernel kernel(1 << 20, 5000, true); // 20000 ops
    const std::string path = tempTrace("buffers");
    EXPECT_EQ(writeTrace(path, kernel), 20000u);
    FileTrace replay(path);
    isa::MicroOp op;
    std::uint64_t count = 0;
    while (replay.next(op))
        ++count;
    EXPECT_EQ(count, 20000u);
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, RejectsMissingAndCorruptFiles)
{
    EXPECT_EXIT(FileTrace("/nonexistent/path.s17t"),
                ::testing::ExitedWithCode(1), "cannot open");

    const std::string path = tempTrace("corrupt");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace";
    }
    EXPECT_EXIT(FileTrace{path}, ::testing::ExitedWithCode(1),
                "not a spec17 trace");
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, TruncationIsDetected)
{
    StreamKernel kernel(4096, 100);
    const std::string path = tempTrace("truncated");
    writeTrace(path, kernel);
    // Chop the last record in half.
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        const auto full = in.tellg();
        std::ifstream src(path, std::ios::binary);
        std::vector<char> bytes(static_cast<std::size_t>(full) - 10);
        src.read(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    FileTrace replay(path);
    isa::MicroOp op;
    EXPECT_DEATH(
        {
            while (replay.next(op)) {
            }
        },
        "truncated");
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, RecordsTheLanesCannotCarryAreRejected)
{
    // A record the SoA lanes cannot carry -- an undefined flag bit, a
    // target on a non-branch, an address on a non-memory op -- would
    // make next() and nextBatchSoA() deliver different ops, so both
    // surfaces reject it like a bad enum byte.
    StreamKernel kernel(4096, 100); // load, alu, branch per iteration
    const std::string path = tempTrace("unfit");
    writeTrace(path, kernel);
    std::string clean;
    {
        std::ifstream in(path, std::ios::binary);
        clean.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    constexpr std::size_t kHeader = 24, kRecord = 28;
    const auto record = [&](std::size_t index) {
        return kHeader + index * kRecord;
    };
    ASSERT_EQ(clean[record(0)], char(isa::UopClass::Load));
    ASSERT_EQ(clean[record(1)], char(isa::UopClass::IntAlu));
    ASSERT_EQ(clean[record(2)], char(isa::UopClass::Branch));

    struct Corruption
    {
        std::size_t offset; //!< byte patched to 0x08
        const char *message;
    };
    const Corruption cases[] = {
        {record(0) + 2, "bad flags 8"}, // flag bit 3
        {record(3) + 20, "load op with effAddr .* and target 8"},
        {record(1) + 12, "int_alu op with effAddr 8 and target 0"},
        {record(2) + 12, "branch op with effAddr 8 and target"},
    };
    for (const Corruption &c : cases) {
        SCOPED_TRACE(c.message);
        std::string bytes = clean;
        bytes[c.offset] = 0x08;
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }
        EXPECT_DEATH(
            {
                FileTrace replay(path);
                isa::MicroOp op;
                while (replay.next(op)) {
                }
            },
            c.message);
        EXPECT_DEATH(
            {
                FileTrace replay(path);
                MicroOpBatch lanes;
                while (replay.nextBatchSoA(lanes, 0, 64) == 64) {
                }
            },
            c.message);
    }
    std::remove(path.c_str());
}

TEST(TraceFile, ReplayedTraceDrivesTheSimulatorIdentically)
{
    SyntheticTraceParams params;
    params.numOps = 20000;
    params.regions = {
        {AccessPattern::Random, 4 << 20, 64, 1.0, 1.0},
    };
    SyntheticTraceGenerator written(params);
    const std::string path = tempTrace("simdrive");
    writeTrace(path, written);
    SyntheticTraceGenerator live(params);
    FileTrace replay(path);

    sim::CpuSimulator sim_live(sim::SystemConfig::haswellXeonE52650Lv3());
    sim::CpuSimulator sim_replay(
        sim::SystemConfig::haswellXeonE52650Lv3());
    const auto live_result = sim_live.run(live);
    const auto replay_result = sim_replay.run(replay);
    EXPECT_DOUBLE_EQ(live_result.cycles, replay_result.cycles);
    EXPECT_EQ(live_result.counters.get(
                  counters::PerfEvent::MemLoadUopsRetiredL1Miss),
              replay_result.counters.get(
                  counters::PerfEvent::MemLoadUopsRetiredL1Miss));
}

} // namespace
} // namespace trace
} // namespace spec17
