#include "sim/core_model.hh"

#include <algorithm>

#include "trace/batch.hh"
#include "util/logging.hh"

namespace spec17 {
namespace sim {

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
    : params_(params), dispatchStep_(1.0 / params.dispatchWidth),
      robCompletion_(params.robSize, 0.0),
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
    // The accounting is written once, as this loop's body, so the
    // serial state in `r` stays in registers for the whole batch. A
    // helper called per op may be emitted out of line (GCC 12 at -O2
    // does so even for a sole caller), and then every field is stored
    // and reloaded around each call, on the FP dependence chain.
    RetireRegs r = state_;
    // Loop-invariant inputs, as the doubles the unsigned-to-double
    // conversions in the accounting would produce, so hoisting them
    // changes no sum.
    const std::size_t rob_size = params_.robSize;
    const std::size_t num_mshrs = mshrFree_.size();
    const double dispatch_step = dispatchStep_;
    const double resolve_latency = params_.branchResolveLatency;
    const double mispredict_penalty = params_.mispredictPenalty;
    using C = isa::UopClass;
    double compute_lat[isa::kNumUopClasses] = {};
    compute_lat[static_cast<std::size_t>(C::IntAlu)] = params_.intAluLatency;
    compute_lat[static_cast<std::size_t>(C::IntMul)] = params_.intMulLatency;
    compute_lat[static_cast<std::size_t>(C::IntDiv)] = params_.intDivLatency;
    compute_lat[static_cast<std::size_t>(C::FpAdd)] = params_.fpAddLatency;
    compute_lat[static_cast<std::size_t>(C::FpMul)] = params_.fpMulLatency;
    compute_lat[static_cast<std::size_t>(C::FpDiv)] = params_.fpDivLatency;
    MemoryBus &bus = *bus_;
    double *__restrict const rob = robCompletion_.data();
    std::uint8_t *__restrict const tags = robTag_.data();
    double *__restrict const mshr = mshrFree_.data();

    for (std::size_t i = 0; i < n; ++i) {
        const C op_cls = cls[i];
        const bool on_load = (flags[i] & trace::kFlagDepOnLoad) != 0;
        const bool on_prev = (flags[i] & trace::kFlagDepOnPrev) != 0;
        const unsigned latency = mem_latency[i];
        const bool missed = l1_miss[i] != 0;
        const unsigned stall = fetch_stall[i];
        const bool mispred = mispredicted[i] != 0;
        const std::uint8_t dram_lines = dram[i];

        // (2) ROB window: the slot we are about to occupy still holds
        // the completion time of uop (i - robSize); dispatch must wait
        // for it.
        const std::size_t slot = r.robSlot;
        if (++r.robSlot == rob_size)
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
        if (stall > 0) {
            r.dispatchCycle += stall;
            r.stack.frontend += stall;
        }

        // (1) dispatch bandwidth.
        r.dispatchCycle += dispatch_step;
        r.stack.base += dispatch_step;

        double completion;
        switch (op_cls) {
          case C::Load: {
            double start = r.dispatchCycle;
            if (on_load)
                start = std::max(start, r.chainReady);
            if (on_prev)
                start = std::max(start, r.computeChainTail);
            if (missed) {
                // (3) allocate an MSHR: take the earliest-free slot;
                // if every slot is still busy past `start`, stall
                // until one frees up.
                double *slot_it = std::min_element(mshr, mshr + num_mshrs);
                start = std::max(start, *slot_it);
                if (dram_lines != 0)
                    start = bus.acquire(start, dram_lines);
                completion = start + latency;
                *slot_it = completion;
            } else {
                completion = start + latency;
            }
            if (on_load)
                r.chainReady = completion;
            // Most recent load in program order: the producer proxy
            // for later depOnLoad branches.
            r.lastLoadCompletion = completion;
            break;
          }
          case C::Store:
            // Stores drain through the store buffer off the critical
            // path; they retire one cycle after dispatch, but a store
            // that misses to DRAM still consumes channel bandwidth
            // (RFO plus eventual writeback), delaying later demand
            // fills.
            if (dram_lines != 0)
                bus.acquire(r.dispatchCycle, dram_lines);
            completion = r.dispatchCycle + 1.0;
            break;
          case C::Branch: {
            double resolve = r.dispatchCycle + resolve_latency;
            if (on_load) {
                // A branch fed by a load resolves no earlier than the
                // load's data returns (mcf-style late mispredicts).
                resolve = std::max(resolve, r.lastLoadCompletion + 1.0);
            }
            if (mispred) {
                const double squash =
                    resolve + mispredict_penalty - r.dispatchCycle;
                if (squash > 0.0) {
                    r.stack.branch += squash;
                    r.dispatchCycle += squash;
                }
            }
            completion = resolve;
            break;
          }
          default: {
            double start = r.dispatchCycle;
            if (on_load)
                start = std::max(start, r.chainReady);
            if (on_prev)
                start = std::max(start, r.computeChainTail);
            completion = start + compute_lat[static_cast<std::size_t>(op_cls)];
            if (on_prev)
                r.computeChainTail = completion;
            break;
          }
        }

        rob[slot] = completion;
        tags[slot] = op_cls == C::Load && missed ? kTagMemory : kTagCompute;
        r.maxCompletion = std::max(r.maxCompletion, completion);
    }
    state_ = r;
    retired_ += n;
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
