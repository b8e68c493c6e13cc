/**
 * @file
 * ReadAheadSource contract tests: the stream a helper thread generates
 * a block ahead equals a fresh generator's on every surface, mixed at
 * random pull sizes that straddle block edges; it ends where the
 * generator ends (mid-block, on a block edge, at zero ops); destroying
 * it after a partial read joins the helper promptly; its telemetry
 * counts what the consumer received; and a wrapped source's exception
 * reaches the consumer after every op the source delivered before it,
 * at the pull a bare consumer would have failed at.
 */

#include "trace/read_ahead.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "trace/synthetic.hh"
#include "util/random.hh"

namespace spec17 {
namespace trace {
namespace {

constexpr std::size_t kBlock = ReadAheadSource::kBlockOps;

SyntheticTraceParams
params(std::uint64_t num_ops)
{
    SyntheticTraceParams p;
    p.numOps = num_ops;
    p.seed = 2017;
    p.regions = {
        {AccessPattern::Sequential, 256 * 1024, 64, 1.0, 1.0},
        {AccessPattern::PointerChase, 2 * 1024 * 1024, 64, 1.0, 0.5},
    };
    return p;
}

/** A fresh generator's whole stream, in lanes. */
MicroOpBatch
reference(const SyntheticTraceParams &p, std::size_t &ops)
{
    SyntheticTraceGenerator generator(p);
    MicroOpBatch lanes;
    ops = generator.nextBatchSoA(lanes, 0,
                                 static_cast<std::size_t>(p.numOps));
    return lanes;
}

enum class Surface { Op, Batch, Lanes };

/**
 * Pulls up to @p n ops from @p source through @p surface and appends
 * them to @p into, whose first @p size ops are filled. A declined
 * nextLanes() pull is staged through nextBatchSoA(), as the
 * simulator's batched lane does. Returns the ops delivered.
 */
std::size_t
pull(TraceSource &source, Surface surface, std::size_t n,
     MicroOpBatch &into, std::size_t &size)
{
    into.ensure(size + n);
    std::size_t got = 0;
    switch (surface) {
      case Surface::Op: {
        isa::MicroOp op;
        while (got < n && source.next(op))
            into.set(size + got++, op);
        break;
      }
      case Surface::Batch:
        got = source.nextBatchSoA(into, size, n);
        break;
      case Surface::Lanes: {
        std::size_t at = 0;
        if (const MicroOpBatch *view = source.nextLanes(n, at, got)) {
            for (std::size_t i = 0; i < got; ++i)
                into.set(size + i, view->get(at + i));
        } else {
            got = source.nextBatchSoA(into, size, n);
        }
        break;
      }
    }
    size += got;
    return got;
}

/** A random surface and pull size: small pulls, pulls up to a block,
 *  exactly a block, and pulls spanning several blocks. */
std::pair<Surface, std::size_t>
randomPull(Rng &rng)
{
    const auto surface = static_cast<Surface>(rng.nextBounded(3));
    switch (rng.nextBounded(4)) {
      case 0: return {surface, 1 + rng.nextBounded(64)};
      case 1: return {surface, 1 + rng.nextBounded(kBlock)};
      case 2: return {surface, kBlock};
      default: return {surface, 1 + rng.nextBounded(3 * kBlock)};
    }
}

/** Drains @p source with random mixed pulls into @p into. */
std::size_t
drainMixed(TraceSource &source, MicroOpBatch &into, std::uint64_t seed)
{
    Rng rng(seed);
    std::size_t size = 0;
    while (true) {
        const auto [surface, n] = randomPull(rng);
        if (pull(source, surface, n, into, size) < n)
            return size;
    }
}

void
expectSameLanes(const MicroOpBatch &got, std::size_t got_ops,
                const MicroOpBatch &want, std::size_t want_ops)
{
    ASSERT_EQ(got_ops, want_ops);
    MicroOpBatch::forEachLane(
        [&](const auto &a, const auto &b) {
            const auto diverged =
                std::mismatch(a.begin(), a.begin() + got_ops, b.begin());
            EXPECT_EQ(diverged.first - a.begin(),
                      static_cast<std::ptrdiff_t>(got_ops))
                << "a lane diverges from the generator's";
        },
        got, want);
}

/** The stream has ended: every surface now delivers nothing. */
void
expectEnded(TraceSource &source)
{
    isa::MicroOp op;
    EXPECT_FALSE(source.next(op));
    MicroOpBatch lanes;
    EXPECT_EQ(source.nextBatchSoA(lanes, 0, 16), 0u);
    std::size_t at = 0;
    std::size_t got = 0;
    if (source.nextLanes(16, at, got) != nullptr) {
        EXPECT_EQ(got, 0u);
    }
}

TEST(ReadAhead, MixedSurfacesMatchAFreshGenerator)
{
    const SyntheticTraceParams p = params(300'000);
    std::size_t want_ops = 0;
    const MicroOpBatch want = reference(p, want_ops);
    ASSERT_EQ(want_ops, 300'000u);
    for (std::uint64_t seed : {1, 2, 3}) {
        ReadAheadSource ahead(
            std::make_shared<SyntheticTraceGenerator>(p));
        MicroOpBatch got;
        const std::size_t got_ops = drainMixed(ahead, got, seed);
        expectSameLanes(got, got_ops, want, want_ops);
        expectEnded(ahead);
    }
}

TEST(ReadAhead, ZeroCopyViewsStayInsideOneBlock)
{
    // Block-sized pulls on the block grid come back as views; a pull
    // that would run past a full block is declined, never short.
    ReadAheadSource ahead(std::make_shared<SyntheticTraceGenerator>(
        params(2 * kBlock + 100)));
    std::size_t at = 0;
    std::size_t got = 0;
    ASSERT_NE(ahead.nextLanes(kBlock, at, got), nullptr);
    EXPECT_EQ(got, kBlock);
    ASSERT_NE(ahead.nextLanes(kBlock - 10, at, got), nullptr);
    EXPECT_EQ(got, kBlock - 10);
    EXPECT_EQ(ahead.nextLanes(11, at, got), nullptr);
    ASSERT_NE(ahead.nextLanes(10, at, got), nullptr);
    EXPECT_EQ(got, 10u);
    // A short last block ends the stream, so its short view may too.
    ASSERT_NE(ahead.nextLanes(kBlock + 5, at, got), nullptr);
    EXPECT_EQ(got, 100u);
    expectEnded(ahead);
}

TEST(ReadAhead, EndsWhereTheGeneratorEnds)
{
    // Mid-block, exactly on a block edge, one op past one, and empty.
    for (std::uint64_t ops : {std::uint64_t{300'000},
                              std::uint64_t{4 * kBlock},
                              std::uint64_t{4 * kBlock + 1},
                              std::uint64_t{0}}) {
        SCOPED_TRACE(ops);
        const SyntheticTraceParams p = params(ops);
        std::size_t want_ops = 0;
        const MicroOpBatch want = reference(p, want_ops);
        for (Surface surface : {Surface::Op, Surface::Batch,
                                Surface::Lanes}) {
            ReadAheadSource ahead(
                std::make_shared<SyntheticTraceGenerator>(p));
            MicroOpBatch got;
            std::size_t got_ops = 0;
            while (pull(ahead, surface, 256, got, got_ops) == 256) {
            }
            expectSameLanes(got, got_ops, want, want_ops);
            expectEnded(ahead);
            EXPECT_EQ(ahead.deliveredOps(), ops);
        }
    }
}

TEST(ReadAhead, DestroyingAfterAPartialReadJoinsTheHelperPromptly)
{
    // A stream far longer than the test could generate: destruction
    // must stop the helper, not drain the stream.
    const SyntheticTraceParams p = params(std::uint64_t{1} << 40);
    using Clock = std::chrono::steady_clock;
    for (int parked = 0; parked < 2; ++parked) {
        auto generator = std::make_shared<SyntheticTraceGenerator>(p);
        std::uint64_t delivered = 0;
        const Clock::time_point start = Clock::now();
        {
            ReadAheadSource ahead(generator);
            MicroOpBatch lanes;
            std::size_t size = 0;
            pull(ahead, Surface::Batch, 3 * kBlock + 7, lanes, size);
            // Past its spin budget the helper parks, and only the
            // destructor can wake it.
            if (parked)
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            delivered = ahead.deliveredOps();
        }
        EXPECT_LT(Clock::now() - start, std::chrono::seconds(10));
        EXPECT_EQ(delivered, 3 * kBlock + 7);
        // The helper ran at most one block past the block being read.
        EXPECT_LE(generator->emittedOps(),
                  (delivered / kBlock + 2) * kBlock);
    }
    // A source destroyed before its first pull never started one.
    ReadAheadSource unread(std::make_shared<SyntheticTraceGenerator>(p));
}

TEST(ReadAhead, TelemetryReadsTheConsumerSide)
{
    const SyntheticTraceParams p = params(50'000);
    auto generator = std::make_shared<SyntheticTraceGenerator>(p);
    const std::uint64_t reserve = generator->virtualReserveBytes();
    ReadAheadSource ahead(generator);
    EXPECT_EQ(ahead.virtualReserveBytes(), reserve);
    EXPECT_EQ(ahead.deliveredOps(), 0u);
    Rng rng(11);
    MicroOpBatch lanes;
    std::size_t size = 0;
    for (int i = 0; i < 40; ++i) {
        const auto [surface, n] = randomPull(rng);
        pull(ahead, surface, n, lanes, size);
        ASSERT_EQ(ahead.deliveredOps(), size);
    }
    EXPECT_EQ(ahead.virtualReserveBytes(), reserve);
}

/** Serves a generator's first @p limit ops and throws on any pull
 *  that asks for more. */
class FailingSource : public TraceSource
{
  public:
    FailingSource(const SyntheticTraceParams &p, std::size_t limit)
        : generator_(p), limit_(limit)
    {
    }

    bool
    next(isa::MicroOp &op) override
    {
        take(1);
        return generator_.next(op);
    }

    std::size_t
    nextBatchSoA(MicroOpBatch &out, std::size_t at,
                 std::size_t n) override
    {
        take(n);
        return generator_.nextBatchSoA(out, at, n);
    }

    /** Ops the source delivered. */
    std::size_t served() const { return served_; }

  private:
    void
    take(std::size_t n)
    {
        if (n > limit_ - served_)
            throw std::runtime_error("trace source failed");
        served_ += n;
    }

    SyntheticTraceGenerator generator_;
    std::size_t limit_;
    std::size_t served_ = 0;
};

/** Where a random mixed drain of @p source stopped: ops received and
 *  the index of the pull that threw. */
struct Failure
{
    std::size_t ops = 0;
    std::size_t pull = 0;
    bool threw = false;
};

Failure
drainUntilThrow(TraceSource &source, MicroOpBatch &into)
{
    Rng rng(5);
    Failure failure;
    for (;; ++failure.pull) {
        const auto [surface, n] = randomPull(rng);
        std::size_t size = failure.ops;
        try {
            if (pull(source, surface, n, into, size) < n)
                return failure;
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "trace source failed");
            failure.threw = true;
            return failure;
        }
        failure.ops = size;
    }
}

TEST(ReadAhead, ExceptionsReachTheConsumerAtThePullThatWouldThrow)
{
    const SyntheticTraceParams p = params(300'000);
    std::size_t want_ops = 0;
    const MicroOpBatch want = reference(p, want_ops);

    // A source that fails on a block edge fails the read-ahead
    // consumer exactly where it fails a bare one: every op before it,
    // and the same pull throws.
    for (std::size_t limit : {std::size_t{0}, 5 * kBlock}) {
        SCOPED_TRACE(limit);
        FailingSource bare(p, limit);
        MicroOpBatch bare_ops;
        const Failure bare_failure = drainUntilThrow(bare, bare_ops);
        ASSERT_TRUE(bare_failure.threw);

        auto failing = std::make_shared<FailingSource>(p, limit);
        ReadAheadSource ahead(failing);
        MicroOpBatch got;
        const Failure failure = drainUntilThrow(ahead, got);
        ASSERT_TRUE(failure.threw);
        EXPECT_EQ(failure.ops, bare_failure.ops);
        EXPECT_EQ(failure.pull, bare_failure.pull);
        expectSameLanes(got, failure.ops, want, failure.ops);
        // The stream stays failed.
        isa::MicroOp op;
        EXPECT_THROW(ahead.next(op), std::runtime_error);
    }

    // Mid-block, the helper's fill of that block is the pull that
    // throws: the consumer receives every op the source delivered
    // before it, then fails at the pull that asks for the next one.
    auto failing = std::make_shared<FailingSource>(p, 5 * kBlock + 100);
    {
        ReadAheadSource ahead(failing);
        MicroOpBatch got;
        std::size_t size = 0;
        EXPECT_EQ(pull(ahead, Surface::Batch, 5 * kBlock, got, size),
                  5 * kBlock);
        expectSameLanes(got, size, want, size);
        std::size_t at = 0;
        std::size_t n = 0;
        EXPECT_THROW(ahead.nextLanes(1, at, n), std::runtime_error);
        MicroOpBatch lanes;
        EXPECT_THROW(ahead.nextBatchSoA(lanes, 0, 1), std::runtime_error);
        EXPECT_EQ(ahead.deliveredOps(), 5 * kBlock);
    }
    EXPECT_EQ(failing->served(), 5 * kBlock);
}

} // namespace
} // namespace trace
} // namespace spec17
