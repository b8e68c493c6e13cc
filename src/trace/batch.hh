/**
 * @file
 * Structure-of-arrays micro-op batch: the delivery format of the
 * simulator's batched fast lane.
 *
 * A MicroOpBatch carries the same nine fields as isa::MicroOp, in six
 * parallel lanes (one contiguous array per lane) instead of an array
 * of structs. The simulator's per-component passes each walk only the
 * lanes they consume -- the branch pass never loads a load's address,
 * the footprint pass never loads branch kinds -- which keeps the hot
 * loops dense and lets the compiler vectorize the lane arithmetic
 * (line/set/page decomposition, class tests).
 *
 * No op is both a memory access and a branch, so one `operand` lane
 * holds a Load/Store's effAddr or a Branch's target, and the three
 * bools share one `flags` byte: 20 bytes an op. An op fits the lanes
 * only when it sets neither field outside its class (fitsLanes()).
 *
 * Every writer fills every lane for every op (lanes irrelevant to an
 * op's class hold the same defaults isa::MicroOp construction would:
 * zero / None / no flag), so get(i) reproduces the exact op a next()
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
#include "util/logging.hh"

namespace spec17 {
namespace trace {

/** @name MicroOpBatch::flags bits (the S17T record's flag byte) */
/// @{
inline constexpr std::uint8_t kFlagTaken = 1;
inline constexpr std::uint8_t kFlagDepOnLoad = 2;
inline constexpr std::uint8_t kFlagDepOnPrev = 4;
/** Every defined bit; a flags byte above it is corrupt. */
inline constexpr std::uint8_t kFlagMask =
    kFlagTaken | kFlagDepOnLoad | kFlagDepOnPrev;
/// @}

/** @p op's flags byte. */
inline std::uint8_t
packFlags(const isa::MicroOp &op)
{
    return static_cast<std::uint8_t>((op.taken ? kFlagTaken : 0)
                                     | (op.depOnLoad ? kFlagDepOnLoad : 0)
                                     | (op.depOnPrev ? kFlagDepOnPrev : 0));
}

/** True unless @p op sets effAddr off a memory op or target off a
 *  branch: MicroOp construction never does, and set() asserts it. */
inline bool
fitsLanes(const isa::MicroOp &op)
{
    return (op.effAddr == 0 || op.isMemory())
        && (op.target == 0 || op.isBranch());
}

/** SoA twin of isa::MicroOp (see file comment for the contract). */
struct MicroOpBatch
{
    /** @name Lanes (index i across all lanes describes one op) */
    /// @{
    std::vector<isa::UopClass> cls;
    std::vector<isa::BranchKind> kind;
    std::vector<std::uint64_t> pc;
    /** MicroOp::effAddr of a Load/Store, MicroOp::target of a Branch,
     *  0 otherwise. */
    std::vector<std::uint64_t> operand;
    std::vector<std::uint8_t> accessSize;
    std::vector<std::uint8_t> flags; //!< kFlag* bits
    /// @}

    /** Lane capacity in ops (all lanes always share one size). */
    std::size_t capacity() const { return cls.size(); }

    /** Calls @p f once per lane, with that lane of each of
     *  @p batches, in the S17A spill's lane order. */
    template <typename F, typename... Batches>
    static void
    forEachLane(F &&f, Batches &...batches)
    {
        f(batches.cls...);
        f(batches.kind...);
        f(batches.pc...);
        f(batches.operand...);
        f(batches.accessSize...);
        f(batches.flags...);
    }

    /** Grows every lane to hold at least @p n ops, new slots
     *  value-initialized (IntAlu / None / 0), and never shrinks: the
     *  simulator reuses one batch across its whole run. */
    void
    ensure(std::size_t n)
    {
        if (capacity() < n)
            forEachLane([n](auto &lane) { lane.resize(n); }, *this);
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
        if (n == 0)
            return; // an empty batch's lanes have no data() to memset
        std::memset(cls.data() + at, 0, n * sizeof(cls[0]));
        std::memset(kind.data() + at, 0, n * sizeof(kind[0]));
        std::memset(operand.data() + at, 0, n * sizeof(operand[0]));
        std::memset(accessSize.data() + at, 0, n);
        std::memset(flags.data() + at, 0, n);
    }

    /** Scatters one AoS op into lane slot @p i (i < capacity()). */
    void
    set(std::size_t i, const isa::MicroOp &op)
    {
        SPEC17_ASSERT(fitsLanes(op), isa::uopClassName(op.cls),
                      " op does not fit the lanes");
        cls[i] = op.cls;
        kind[i] = op.branch;
        pc[i] = op.pc;
        operand[i] = op.isBranch() ? op.target : op.effAddr;
        accessSize[i] = op.size;
        flags[i] = packFlags(op);
    }

    /** Gathers lane slot @p i back into an AoS op. */
    isa::MicroOp
    get(std::size_t i) const
    {
        isa::MicroOp op;
        op.cls = cls[i];
        op.branch = kind[i];
        op.pc = pc[i];
        (op.isBranch() ? op.target : op.effAddr) = operand[i];
        op.size = accessSize[i];
        op.taken = (flags[i] & kFlagTaken) != 0;
        op.depOnLoad = (flags[i] & kFlagDepOnLoad) != 0;
        op.depOnPrev = (flags[i] & kFlagDepOnPrev) != 0;
        return op;
    }
};

} // namespace trace
} // namespace spec17

#endif // SPEC17_TRACE_BATCH_HH_
