#include "sim/core_model.hh"

#include <algorithm>

#include "trace/batch.hh"
#include "util/logging.hh"

namespace spec17 {
namespace sim {

namespace {

using C = isa::UopClass;

/** ROB-slot attribution classes. */
constexpr std::uint8_t kTagCompute = 0;
constexpr std::uint8_t kTagMemory = 1;

/**
 * A core's loop-invariant retire inputs, as the doubles the
 * unsigned-to-double conversions in the accounting would produce, so
 * hoisting them changes no sum.
 */
struct RetireConsts
{
    explicit RetireConsts(const CoreParams &params)
        : robSize(params.robSize), numMshrs(params.numMshrs),
          dispatchStep(1.0 / params.dispatchWidth),
          resolveLatency(params.branchResolveLatency),
          mispredictPenalty(params.mispredictPenalty)
    {
        computeLat[static_cast<std::size_t>(C::IntAlu)] =
            params.intAluLatency;
        computeLat[static_cast<std::size_t>(C::IntMul)] =
            params.intMulLatency;
        computeLat[static_cast<std::size_t>(C::IntDiv)] =
            params.intDivLatency;
        computeLat[static_cast<std::size_t>(C::FpAdd)] =
            params.fpAddLatency;
        computeLat[static_cast<std::size_t>(C::FpMul)] =
            params.fpMulLatency;
        computeLat[static_cast<std::size_t>(C::FpDiv)] =
            params.fpDivLatency;
    }

    std::size_t robSize;
    std::size_t numMshrs;
    double dispatchStep;
    double resolveLatency;
    double mispredictPenalty;
    double computeLat[isa::kNumUopClasses] = {};
};

/** One op's retire inputs besides its class and mispredict flag:
 *  what every core of a clone group reads alike. */
struct OpInputs
{
    bool onLoad;
    bool onPrev;
    unsigned latency;
    bool missed;
    unsigned stall;
    std::uint8_t dram;
};

OpInputs
opInputs(std::size_t i, const std::uint8_t *__restrict flags,
         const unsigned *__restrict mem_latency,
         const std::uint8_t *__restrict l1_miss,
         const unsigned *__restrict fetch_stall,
         const std::uint8_t *__restrict dram)
{
    return {(flags[i] & trace::kFlagDepOnLoad) != 0,
            (flags[i] & trace::kFlagDepOnPrev) != 0,
            mem_latency[i],
            l1_miss[i] != 0,
            fetch_stall[i],
            dram[i]};
}

/**
 * The per-op retire accounting of one core, written once. @p core is
 * the caller's view of the core: its serial state `r` and its bulk
 * state `rob`, `tags`, `mshr` and `bus`. retireBatch's view holds `r`
 * by value, hoisted into registers for the batch; retireGroup's views
 * reach each core's state in place. @p kClass is Load, Store, Branch
 * or, standing for every compute class, IntAlu; a compute op takes
 * @p compute_latency. The callers dispatch the op's class and pick
 * the instance, so the body tests no class.
 *
 * Always inlined: emitted out of line, as GCC 12 at -O2 emits even a
 * sole caller's helper, it would take retireBatch's view by address,
 * and the serial state would be stored and reloaded around every op,
 * on the FP dependence chain.
 */
template <C kClass, typename Core>
[[gnu::always_inline]] inline void
retireOp(Core &core, const RetireConsts &c, const OpInputs &op,
         bool mispred, double compute_latency)
{
    auto &r = core.r;
    double *__restrict const rob = core.rob;
    std::uint8_t *__restrict const tags = core.tags;

    // (2) ROB window: the slot we are about to occupy still holds the
    // completion time of uop (i - robSize); dispatch must wait for it.
    const std::size_t slot = r.robSlot;
    if (++r.robSlot == c.robSize)
        r.robSlot = 0;
    if (rob[slot] > r.dispatchCycle) {
        const double wait = rob[slot] - r.dispatchCycle;
        if (tags[slot] == kTagMemory)
            r.stack.memory += wait;
        else
            r.stack.compute += wait;
        r.dispatchCycle = rob[slot];
    }

    // Front-end: I-cache miss stalls fetch/dispatch.
    if (op.stall > 0) {
        r.dispatchCycle += op.stall;
        r.stack.frontend += op.stall;
    }

    // (1) dispatch bandwidth.
    r.dispatchCycle += c.dispatchStep;
    r.stack.base += c.dispatchStep;

    double completion;
    if constexpr (kClass == C::Load) {
        double start = r.dispatchCycle;
        if (op.onLoad)
            start = std::max(start, r.chainReady);
        if (op.onPrev)
            start = std::max(start, r.computeChainTail);
        if (op.missed) {
            // (3) allocate an MSHR: take the earliest-free slot; if
            // every slot is still busy past `start`, stall until one
            // frees up.
            double *__restrict const mshr = core.mshr;
            double *slot_it = std::min_element(mshr, mshr + c.numMshrs);
            start = std::max(start, *slot_it);
            if (op.dram != 0)
                start = core.bus.acquire(start, op.dram);
            completion = start + op.latency;
            *slot_it = completion;
        } else {
            completion = start + op.latency;
        }
        if (op.onLoad)
            r.chainReady = completion;
        // Most recent load in program order: the producer proxy for
        // later depOnLoad branches.
        r.lastLoadCompletion = completion;
    } else if constexpr (kClass == C::Store) {
        // Stores drain through the store buffer off the critical path;
        // they retire one cycle after dispatch, but a store that
        // misses to DRAM still consumes channel bandwidth (RFO plus
        // eventual writeback), delaying later demand fills.
        if (op.dram != 0)
            core.bus.acquire(r.dispatchCycle, op.dram);
        completion = r.dispatchCycle + 1.0;
    } else if constexpr (kClass == C::Branch) {
        double resolve = r.dispatchCycle + c.resolveLatency;
        if (op.onLoad) {
            // A branch fed by a load resolves no earlier than the
            // load's data returns (mcf-style late mispredicts).
            resolve = std::max(resolve, r.lastLoadCompletion + 1.0);
        }
        if (mispred) {
            const double squash =
                resolve + c.mispredictPenalty - r.dispatchCycle;
            if (squash > 0.0) {
                r.stack.branch += squash;
                r.dispatchCycle += squash;
            }
        }
        completion = resolve;
    } else {
        double start = r.dispatchCycle;
        if (op.onLoad)
            start = std::max(start, r.chainReady);
        if (op.onPrev)
            start = std::max(start, r.computeChainTail);
        completion = start + compute_latency;
        if (op.onPrev)
            r.computeChainTail = completion;
    }

    rob[slot] = completion;
    tags[slot] = kClass == C::Load && op.missed ? kTagMemory : kTagCompute;
    r.maxCompletion = std::max(r.maxCompletion, completion);
}

} // namespace

double
CpiStack::total() const
{
    return base + frontend + branch + memory + compute;
}

CpiStack
CpiStack::perInstruction(std::uint64_t retired) const
{
    CpiStack out = *this;
    if (retired == 0)
        return out;
    const double n = static_cast<double>(retired);
    out.base /= n;
    out.frontend /= n;
    out.branch /= n;
    out.memory /= n;
    out.compute /= n;
    return out;
}

CoreModel::CoreModel(const CoreParams &params,
                     std::shared_ptr<MemoryBus> bus)
    : params_(params), robCompletion_(params.robSize, 0.0),
      robTag_(params.robSize, kTagCompute),
      mshrFree_(params.numMshrs, 0.0),
      bus_(bus ? std::move(bus) : std::make_shared<MemoryBus>())
{
    SPEC17_ASSERT(params.dispatchWidth >= 1, "width must be >= 1");
    SPEC17_ASSERT(params.robSize >= params.dispatchWidth,
                  "ROB smaller than dispatch width");
    SPEC17_ASSERT(params.numMshrs >= 1, "need at least one MSHR");
    SPEC17_ASSERT(params.frequencyGHz > 0.0, "clock must be positive");
}

void
CoreModel::retire(const isa::MicroOp &op, unsigned mem_latency,
                  bool l1_miss, unsigned fetch_stall, bool mispredicted,
                  std::uint8_t dram)
{
    const std::uint8_t flags = trace::packFlags(op);
    const std::uint8_t missed = l1_miss;
    const std::uint8_t mispred = mispredicted;
    retireBatch(&op.cls, &flags, &mem_latency, &missed, &fetch_stall,
                &mispred, &dram, 1);
}

void
CoreModel::retireBatch(const isa::UopClass *__restrict cls,
                       const std::uint8_t *__restrict flags,
                       const unsigned *__restrict mem_latency,
                       const std::uint8_t *__restrict l1_miss,
                       const unsigned *__restrict fetch_stall,
                       const std::uint8_t *__restrict mispredicted,
                       const std::uint8_t *__restrict dram, std::size_t n)
{
    // The view holds the serial state by value, in a local whose
    // address never escapes the inlined accounting, so it stays in
    // registers for the whole batch.
    struct HoistedCore
    {
        RetireRegs r;
        double *rob;
        std::uint8_t *tags;
        double *mshr;
        MemoryBus &bus;
    } core{state_, robCompletion_.data(), robTag_.data(), mshrFree_.data(),
           *bus_};
    const RetireConsts c(params_);

    for (std::size_t i = 0; i < n; ++i) {
        const OpInputs op =
            opInputs(i, flags, mem_latency, l1_miss, fetch_stall, dram);
        const bool mispred = mispredicted[i] != 0;
        switch (cls[i]) {
          case C::Load:
            retireOp<C::Load>(core, c, op, mispred, 0.0);
            break;
          case C::Store:
            retireOp<C::Store>(core, c, op, mispred, 0.0);
            break;
          case C::Branch:
            retireOp<C::Branch>(core, c, op, mispred, 0.0);
            break;
          default:
            retireOp<C::IntAlu>(
                core, c, op, mispred,
                c.computeLat[static_cast<std::size_t>(cls[i])]);
            break;
        }
    }
    state_ = core.r;
    retired_ += n;
}

void
CoreModel::retireGroup(std::span<CoreModel *const> cores,
                       std::span<const std::uint8_t *const> mispredicted,
                       const isa::UopClass *cls, const std::uint8_t *flags,
                       const unsigned *mem_latency,
                       const std::uint8_t *l1_miss,
                       const unsigned *fetch_stall,
                       const std::uint8_t *dram, std::size_t n)
{
    SPEC17_ASSERT(cores.size() == mispredicted.size(),
                  "one mispredict lane per core");
    if (cores.empty())
        return;
    if (cores.size() == 1) {
        cores[0]->retireBatch(cls, flags, mem_latency, l1_miss,
                              fetch_stall, mispredicted[0], dram, n);
        return;
    }
    for (std::size_t a = 0; a < cores.size(); ++a) {
        SPEC17_ASSERT(cores[a]->params_ == cores[0]->params_,
                      "a clone group's cores share one CoreParams");
        for (std::size_t b = 0; b < a; ++b)
            SPEC17_ASSERT(cores[a]->bus_ != cores[b]->bus_,
                          "a clone group's cores must not share a bus");
    }

    // Each core's view reaches its state in place: unlike
    // retireBatch's one core, a group's cores do not fit in registers,
    // and their independent dependence chains overlap in the
    // out-of-order window instead.
    struct GroupCore
    {
        RetireRegs &r;
        double *rob;
        std::uint8_t *tags;
        double *mshr;
        MemoryBus &bus;
        const std::uint8_t *mispredicted;
    };
    std::vector<GroupCore> group;
    group.reserve(cores.size());
    for (std::size_t k = 0; k < cores.size(); ++k) {
        CoreModel &core = *cores[k];
        group.push_back({core.state_, core.robCompletion_.data(),
                         core.robTag_.data(), core.mshrFree_.data(),
                         *core.bus_, mispredicted[k]});
    }
    const RetireConsts c(cores[0]->params_);

    for (std::size_t i = 0; i < n; ++i) {
        const OpInputs op =
            opInputs(i, flags, mem_latency, l1_miss, fetch_stall, dram);
        switch (cls[i]) {
          case C::Load:
            for (GroupCore &core : group)
                retireOp<C::Load>(core, c, op, false, 0.0);
            break;
          case C::Store:
            for (GroupCore &core : group)
                retireOp<C::Store>(core, c, op, false, 0.0);
            break;
          case C::Branch:
            for (GroupCore &core : group)
                retireOp<C::Branch>(core, c, op,
                                    core.mispredicted[i] != 0, 0.0);
            break;
          default: {
            const double latency =
                c.computeLat[static_cast<std::size_t>(cls[i])];
            for (GroupCore &core : group)
                retireOp<C::IntAlu>(core, c, op, false, latency);
            break;
          }
        }
    }
    for (CoreModel *core : cores)
        core->retired_ += n;
}

double
CoreModel::cycles() const
{
    return std::max(state_.dispatchCycle, state_.maxCompletion);
}

double
CoreModel::secondsFor(double cycle_count) const
{
    return cycle_count / (params_.frequencyGHz * 1e9);
}

} // namespace sim
} // namespace spec17
