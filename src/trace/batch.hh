/**
 * @file
 * Structure-of-arrays micro-op batch: the delivery format of the
 * simulator's batched fast lane.
 *
 * A MicroOpBatch carries the same nine fields as isa::MicroOp, but as
 * parallel lanes (one contiguous array per field) instead of an array
 * of structs. The simulator's per-component passes each walk only the
 * lanes they consume -- the branch pass never loads effective
 * addresses, the footprint pass never loads branch kinds -- which
 * keeps the hot loops dense and lets the compiler vectorize the lane
 * arithmetic (line/set/page decomposition, class tests).
 *
 * Every writer fills every lane for every op (lanes irrelevant to an
 * op's class hold the same defaults isa::MicroOp construction would:
 * zero / None / false), so get(i) reproduces the exact op a next()
 * pull would have delivered and lane-level tests can compare streams
 * field for field.
 */

#ifndef SPEC17_TRACE_BATCH_HH_
#define SPEC17_TRACE_BATCH_HH_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "isa/uop.hh"

namespace spec17 {
namespace trace {

/** SoA twin of isa::MicroOp (see file comment for the contract). */
struct MicroOpBatch
{
    /** @name Lanes (index i across all lanes describes one op) */
    /// @{
    std::vector<isa::UopClass> cls;
    std::vector<isa::BranchKind> kind;
    std::vector<std::uint64_t> pc;
    std::vector<std::uint64_t> addr;    //!< MicroOp::effAddr
    std::vector<std::uint8_t> accessSize;
    std::vector<std::uint8_t> taken;    //!< bool lane (0/1)
    std::vector<std::uint64_t> target;
    std::vector<std::uint8_t> depOnLoad;
    std::vector<std::uint8_t> depOnPrev;
    /// @}

    /** Lane capacity in ops (all lanes always share one size). */
    std::size_t capacity() const { return cls.size(); }

    /** Grows every lane to hold at least @p n ops (never shrinks --
     *  the simulator reuses one batch across its whole run). */
    void
    ensure(std::size_t n)
    {
        if (capacity() >= n)
            return;
        cls.resize(n, isa::UopClass::IntAlu);
        kind.resize(n, isa::BranchKind::None);
        pc.resize(n, 0);
        addr.resize(n, 0);
        accessSize.resize(n, 0);
        taken.resize(n, 0);
        target.resize(n, 0);
        depOnLoad.resize(n, 0);
        depOnPrev.resize(n, 0);
    }

    /**
     * Resets ops [at, at+n) of every lane except pc to the MicroOp
     * construction defaults (zero / IntAlu / None -- all are
     * representation zero, asserted below). A generator that calls
     * this first only has to store each op's class-relevant fields;
     * the untouched lanes already hold what a full writer would have
     * stored. pc is exempt because every op class writes it.
     */
    void
    zeroFill(std::size_t at, std::size_t n)
    {
        static_assert(static_cast<int>(isa::UopClass::IntAlu) == 0
                          && static_cast<int>(isa::BranchKind::None)
                              == 0,
                      "memset pre-fill relies on zero defaults");
        std::memset(cls.data() + at, 0, n * sizeof(cls[0]));
        std::memset(kind.data() + at, 0, n * sizeof(kind[0]));
        std::memset(addr.data() + at, 0, n * sizeof(addr[0]));
        std::memset(accessSize.data() + at, 0, n);
        std::memset(taken.data() + at, 0, n);
        std::memset(target.data() + at, 0, n * sizeof(target[0]));
        std::memset(depOnLoad.data() + at, 0, n);
        std::memset(depOnPrev.data() + at, 0, n);
    }

    /** Scatters one AoS op into lane slot @p i (i < capacity()). */
    void
    set(std::size_t i, const isa::MicroOp &op)
    {
        cls[i] = op.cls;
        kind[i] = op.branch;
        pc[i] = op.pc;
        addr[i] = op.effAddr;
        accessSize[i] = op.size;
        taken[i] = op.taken ? 1 : 0;
        target[i] = op.target;
        depOnLoad[i] = op.depOnLoad ? 1 : 0;
        depOnPrev[i] = op.depOnPrev ? 1 : 0;
    }

    /** Gathers lane slot @p i back into an AoS op. */
    isa::MicroOp
    get(std::size_t i) const
    {
        isa::MicroOp op;
        op.cls = cls[i];
        op.branch = kind[i];
        op.pc = pc[i];
        op.effAddr = addr[i];
        op.size = accessSize[i];
        op.taken = taken[i] != 0;
        op.target = target[i];
        op.depOnLoad = depOnLoad[i] != 0;
        op.depOnPrev = depOnPrev[i] != 0;
        return op;
    }
};

} // namespace trace
} // namespace spec17

#endif // SPEC17_TRACE_BATCH_HH_
