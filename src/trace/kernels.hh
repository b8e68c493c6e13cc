/**
 * @file
 * Hand-written deterministic kernel traces.
 *
 * Unlike the statistical generator, these emit exactly predictable
 * micro-op streams (a streaming loop, a pointer chase, a 2-D array
 * walk), which makes them the right fixtures for validating cache and
 * predictor behaviour analytically, and useful as simple example
 * workloads.
 */

#ifndef SPEC17_TRACE_KERNELS_HH_
#define SPEC17_TRACE_KERNELS_HH_

#include <cstdint>
#include <vector>

#include "trace/source.hh"
#include "util/random.hh"

namespace spec17 {
namespace trace {

/**
 * STREAM-like kernel: `for i: sum += a[i]` repeated over a working
 * set, with an optional store stream `b[i] = ...` and a loop-back
 * conditional branch per iteration. Sequential 8-byte accesses.
 */
class StreamKernel : public TraceSource
{
  public:
    /**
     * @param array_bytes working-set size of the load array.
     * @param num_iterations loop iterations to run.
     * @param with_store also emit a store per iteration to a second
     *        array of the same size.
     */
    StreamKernel(std::uint64_t array_bytes, std::uint64_t num_iterations,
                 bool with_store = false);

    bool next(isa::MicroOp &op) override;
    std::uint64_t virtualReserveBytes() const override;

    /** Micro-ops per loop iteration (load[, store], add, branch). */
    std::uint64_t opsPerIteration() const { return withStore_ ? 4 : 3; }

  private:
    std::uint64_t arrayBytes_;
    std::uint64_t numIterations_;
    bool withStore_;
    std::uint64_t iter_ = 0;
    unsigned phase_ = 0;
};

/**
 * Linked-list traversal over a shuffled permutation: every load's
 * address is produced by the previous load (depOnLoad), so there is
 * no memory-level parallelism -- the classic latency-bound workload.
 */
class PointerChaseKernel : public TraceSource
{
  public:
    /**
     * @param region_bytes size of the node pool (one node per line).
     * @param num_hops dependent loads to perform.
     * @param seed permutation seed.
     */
    PointerChaseKernel(std::uint64_t region_bytes, std::uint64_t num_hops,
                       std::uint64_t seed = 7);

    bool next(isa::MicroOp &op) override;
    std::uint64_t virtualReserveBytes() const override;

  private:
    std::uint64_t regionBytes_;
    std::uint64_t numHops_;
    std::vector<std::uint32_t> nextIndex_; //!< permutation cycle
    std::uint64_t hop_ = 0;
    std::uint32_t node_ = 0;
    unsigned phase_ = 0;
};

/**
 * Row-major or column-major walk over a rows x cols matrix of 8-byte
 * elements; the column-major variant strides by the row length and
 * demonstrates pathological spatial locality.
 */
class MatrixWalkKernel : public TraceSource
{
  public:
    MatrixWalkKernel(std::uint64_t rows, std::uint64_t cols,
                     bool row_major, std::uint64_t passes = 1);

    bool next(isa::MicroOp &op) override;
    std::uint64_t virtualReserveBytes() const override;

  private:
    std::uint64_t rows_;
    std::uint64_t cols_;
    bool rowMajor_;
    std::uint64_t passes_;
    std::uint64_t index_ = 0;
    unsigned phase_ = 0;
};

/** Wraps a pre-recorded vector of micro-ops as a TraceSource. */
class VectorTrace : public TraceSource
{
  public:
    explicit VectorTrace(std::vector<isa::MicroOp> ops);

    bool next(isa::MicroOp &op) override;

  private:
    std::vector<isa::MicroOp> ops_;
    std::size_t pos_ = 0;
};

} // namespace trace
} // namespace spec17

#endif // SPEC17_TRACE_KERNELS_HH_
