#include "trace/kernels.hh"

#include <numeric>

#include "util/logging.hh"

namespace spec17 {
namespace trace {

namespace {

constexpr std::uint64_t kCodeBase = 0x400000;
constexpr std::uint64_t kLoadArrayBase = 0x10000000;
constexpr std::uint64_t kStoreArrayBase = 0x30000000;
constexpr std::uint64_t kLineBytes = 64;

} // namespace

// ---------------------------------------------------------------------
// StreamKernel
// ---------------------------------------------------------------------

StreamKernel::StreamKernel(std::uint64_t array_bytes,
                           std::uint64_t num_iterations, bool with_store)
    : arrayBytes_(array_bytes / 8 * 8), numIterations_(num_iterations),
      withStore_(with_store)
{
    SPEC17_ASSERT(arrayBytes_ >= 8, "stream array too small");
    SPEC17_ASSERT(numIterations_ > 0, "stream kernel needs iterations");
}

bool
StreamKernel::next(isa::MicroOp &op)
{
    if (iter_ >= numIterations_)
        return false;

    const std::uint64_t offset = (iter_ * 8) % arrayBytes_;
    switch (phase_) {
      case 0:
        op = isa::makeLoad(kCodeBase + 0, kLoadArrayBase + offset);
        break;
      case 1:
        if (withStore_) {
            op = isa::makeStore(kCodeBase + 4, kStoreArrayBase + offset);
            break;
        }
        ++phase_;
        [[fallthrough]];
      case 2:
        op = isa::makeAlu(kCodeBase + 8);
        break;
      case 3: {
        const bool last = (iter_ + 1 == numIterations_);
        op = isa::makeBranch(kCodeBase + 12, isa::BranchKind::Conditional,
                             !last, kCodeBase + 0);
        break;
      }
      default:
        SPEC17_PANIC("bad stream kernel phase");
    }
    if (++phase_ > 3) {
        phase_ = 0;
        ++iter_;
    }
    return true;
}

std::uint64_t
StreamKernel::virtualReserveBytes() const
{
    return arrayBytes_ * (withStore_ ? 2 : 1);
}

// ---------------------------------------------------------------------
// PointerChaseKernel
// ---------------------------------------------------------------------

PointerChaseKernel::PointerChaseKernel(std::uint64_t region_bytes,
                                       std::uint64_t num_hops,
                                       std::uint64_t seed)
    : regionBytes_(region_bytes), numHops_(num_hops)
{
    const std::uint64_t nodes = regionBytes_ / kLineBytes;
    SPEC17_ASSERT(nodes >= 2, "pointer chase needs >= 2 nodes");
    SPEC17_ASSERT(numHops_ > 0, "pointer chase needs hops");

    // Sattolo's algorithm: a single cycle through all nodes, so the
    // chase touches the whole region before repeating.
    nextIndex_.resize(nodes);
    std::iota(nextIndex_.begin(), nextIndex_.end(), 0u);
    Rng rng(deriveSeed(seed, "chase-perm"));
    for (std::uint64_t i = nodes - 1; i > 0; --i) {
        const std::uint64_t j = rng.nextBounded(i);
        std::swap(nextIndex_[i], nextIndex_[j]);
    }
}

bool
PointerChaseKernel::next(isa::MicroOp &op)
{
    if (hop_ >= numHops_)
        return false;

    switch (phase_) {
      case 0:
        // The pointer load: address depends on the previous load.
        op = isa::makeLoad(kCodeBase + 0,
                           kLoadArrayBase
                               + static_cast<std::uint64_t>(node_)
                                     * kLineBytes,
                           8, hop_ > 0);
        node_ = nextIndex_[node_];
        break;
      case 1: {
        const bool last = (hop_ + 1 == numHops_);
        op = isa::makeBranch(kCodeBase + 4, isa::BranchKind::Conditional,
                             !last, kCodeBase + 0, true);
        break;
      }
      default:
        SPEC17_PANIC("bad chase kernel phase");
    }
    if (++phase_ > 1) {
        phase_ = 0;
        ++hop_;
    }
    return true;
}

std::uint64_t
PointerChaseKernel::virtualReserveBytes() const
{
    return regionBytes_;
}

// ---------------------------------------------------------------------
// MatrixWalkKernel
// ---------------------------------------------------------------------

MatrixWalkKernel::MatrixWalkKernel(std::uint64_t rows, std::uint64_t cols,
                                   bool row_major, std::uint64_t passes)
    : rows_(rows), cols_(cols), rowMajor_(row_major), passes_(passes)
{
    SPEC17_ASSERT(rows_ > 0 && cols_ > 0, "matrix must be non-empty");
    SPEC17_ASSERT(passes_ > 0, "matrix walk needs passes");
}

bool
MatrixWalkKernel::next(isa::MicroOp &op)
{
    const std::uint64_t total = rows_ * cols_ * passes_;
    if (index_ >= total)
        return false;

    const std::uint64_t flat = index_ % (rows_ * cols_);
    std::uint64_t element;
    if (rowMajor_) {
        element = flat; // natural layout order
    } else {
        // Walk column by column over a row-major layout.
        const std::uint64_t r = flat % rows_;
        const std::uint64_t c = flat / rows_;
        element = r * cols_ + c;
    }

    switch (phase_) {
      case 0:
        op = isa::makeLoad(kCodeBase + 0, kLoadArrayBase + element * 8);
        break;
      case 1: {
        const bool last = (index_ + 1 == total);
        op = isa::makeBranch(kCodeBase + 4, isa::BranchKind::Conditional,
                             !last, kCodeBase + 0);
        break;
      }
      default:
        SPEC17_PANIC("bad matrix kernel phase");
    }
    if (++phase_ > 1) {
        phase_ = 0;
        ++index_;
    }
    return true;
}

std::uint64_t
MatrixWalkKernel::virtualReserveBytes() const
{
    return rows_ * cols_ * 8;
}

// ---------------------------------------------------------------------
// VectorTrace
// ---------------------------------------------------------------------

VectorTrace::VectorTrace(std::vector<isa::MicroOp> ops)
    : ops_(std::move(ops))
{
}

bool
VectorTrace::next(isa::MicroOp &op)
{
    if (pos_ >= ops_.size())
        return false;
    op = ops_[pos_++];
    return true;
}

} // namespace trace
} // namespace spec17
