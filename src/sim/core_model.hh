/**
 * @file
 * Mechanistic out-of-order core timing model (interval-analysis
 * style, after Eyerman/Eeckhout). Rather than simulating every
 * pipeline structure, the model tracks the three first-order limits
 * of a balanced OoO core:
 *
 *  1. dispatch bandwidth (width W): dispatch advances 1/W cycles/uop;
 *  2. the reorder-buffer window: uop i cannot dispatch before uop
 *     i-ROB has completed (an exact retire-limited bound, kept in a
 *     ring buffer of completion times);
 *  3. finite miss concurrency: outstanding cache misses occupy MSHRs,
 *     and dependent (pointer-chase) loads serialize on the producing
 *     load's completion.
 *
 * Branch mispredicts squash the front end: dispatch resumes only
 * after the branch resolves plus a refill penalty. Together these
 * reproduce the qualitative IPC regimes the paper observes (4-wide
 * ILP-bound code near IPC 3, latency-bound pointer chasing below 1).
 */

#ifndef SPEC17_SIM_CORE_MODEL_HH_
#define SPEC17_SIM_CORE_MODEL_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/uop.hh"

namespace spec17 {
namespace sim {

/**
 * Shared DRAM channel: every line transferred from memory (demand
 * fill, store RFO, writeback) occupies the channel for a fixed number
 * of core cycles. Cores sharing one MemoryBus contend for it -- the
 * mechanism behind the speed-fp "memory wall" the paper observes.
 * Core clocks advance loosely in step (the multicore interleaver runs
 * small chunks), so a single shared free-time is a fair approximation.
 */
struct MemoryBus
{
    /** Channel occupancy per 64 B line, in core cycles. */
    double cyclesPerLine = 4.0;
    /** Time at which the channel next becomes free. */
    double freeAt = 0.0;

    /**
     * Acquires the channel at or after @p when for @p lines line
     * transfers; returns the acquisition time.
     */
    double
    acquire(double when, double lines = 1.0)
    {
        const double start = freeAt > when ? freeAt : when;
        freeAt = start + cyclesPerLine * lines;
        return start;
    }
};

/** Core microarchitecture parameters (defaults: Haswell-like). */
struct CoreParams
{
    unsigned dispatchWidth = 4;
    unsigned robSize = 192;
    unsigned numMshrs = 10;
    /** Front-end refill penalty after a resolved mispredict. */
    unsigned mispredictPenalty = 14;
    /** Cycles from dispatch to branch resolution (no load dep). */
    unsigned branchResolveLatency = 8;
    /**
     * Fetch-ahead the decoupled front end hides on an I-cache miss:
     * the charged stall is max(0, miss latency - this).
     */
    unsigned frontendBufferCycles = 8;
    unsigned intAluLatency = 1;
    unsigned intMulLatency = 3;
    unsigned intDivLatency = 22;
    unsigned fpAddLatency = 3;
    unsigned fpMulLatency = 5;
    unsigned fpDivLatency = 24;
    /** Reference clock in GHz (E5-2650L v3 base clock). */
    double frequencyGHz = 1.8;
};

/**
 * Attribution of consumed cycles to first-order causes -- the
 * classic CPI-stack breakdown. Components sum to cycles().
 */
struct CpiStack
{
    double base = 0.0;     //!< dispatch bandwidth (N / width)
    double frontend = 0.0; //!< I-cache / ITLB fetch stalls
    double branch = 0.0;   //!< mispredict resolve + refill
    double memory = 0.0;   //!< ROB blocked on a load miss
    double compute = 0.0;  //!< ROB blocked on compute latency

    double total() const;
    /** Per-instruction stack for @p retired micro-ops. */
    CpiStack perInstruction(std::uint64_t retired) const;
};

/**
 * Per-uop cycle accounting. Feed every retired micro-op through
 * retireBatch() (or retire(), one op at a time) with its resolved
 * memory latency / misprediction flags; read cycles() at the end.
 */
class CoreModel
{
  public:
    /**
     * @param params microarchitecture parameters.
     * @param bus DRAM channel; pass a bus shared between CoreModels
     *        to model multicore bandwidth contention, or nullptr for
     *        a private channel.
     */
    explicit CoreModel(const CoreParams &params,
                       std::shared_ptr<MemoryBus> bus = nullptr);

    /**
     * Accounts one micro-op: retireBatch() over a batch of one, so
     * the per-op reference lane and the unit tests run the same body
     * as the batched fast lane.
     *
     * @param op the retired micro-op.
     * @param mem_latency for loads: load-to-use latency the hierarchy
     *        reported (hit or miss); ignored for other classes.
     * @param l1_miss for loads: whether the access missed L1 (misses
     *        occupy an MSHR).
     * @param fetch_stall extra front-end cycles charged when the
     *        instruction fetch missed the L1I.
     * @param mispredicted for branches: whether the branch unit
     *        mispredicted it.
     * @param dram DRAM-channel code of a load or store that went all
     *        the way to memory: the line transfers it occupies the
     *        channel for. 0 no DRAM access, 1 one line (a load fill),
     *        2 two lines (a store miss's RFO read plus its eventual
     *        writeback).
     */
    void retire(const isa::MicroOp &op, unsigned mem_latency,
                bool l1_miss, unsigned fetch_stall, bool mispredicted,
                std::uint8_t dram = 0);

    /**
     * Accounts @p n micro-ops from SoA lanes; the one retire body.
     * Lane slot i holds op i's class and MicroOpBatch flags byte (of
     * which only the dependence bits are read) and what the memory
     * side and the branch unit resolved for it, with retire()'s
     * meanings; @p l1_miss and @p mispredicted are bools (nonzero is
     * true). The serial core state stays in registers for the whole
     * batch (see RetireRegs), and results are bit-identical to n
     * retire() calls in op order, at any batch size.
     */
    void retireBatch(const isa::UopClass *__restrict cls,
                     const std::uint8_t *__restrict flags,
                     const unsigned *__restrict mem_latency,
                     const std::uint8_t *__restrict l1_miss,
                     const unsigned *__restrict fetch_stall,
                     const std::uint8_t *__restrict mispredicted,
                     const std::uint8_t *__restrict dram, std::size_t n);

    /** Total cycles consumed so far (never less than dispatch time). */
    double cycles() const;

    /** Micro-ops retired so far. */
    std::uint64_t retired() const { return retired_; }

    /**
     * Cycle attribution so far. Components sum to the dispatch-side
     * cycle count (execution tail beyond the last dispatch is
     * attributed to its cause as well).
     */
    const CpiStack &cpiStack() const { return state_.stack; }

    /** Seconds at the configured clock for @p cycles. */
    double secondsFor(double cycle_count) const;

    const CoreParams &params() const { return params_; }

  private:
    /** ROB-slot attribution classes. */
    static constexpr std::uint8_t kTagCompute = 0;
    static constexpr std::uint8_t kTagMemory = 1;

    /**
     * The serial cross-op retire state. retireBatch() copies it into
     * a local once per call, works on the copy -- whose address is
     * never taken, so the compiler keeps every field in a register
     * across the batch -- and stores it back once at the end. The
     * ROB ring, its tags and the MSHR array are bulk state and stay
     * in memory.
     */
    struct RetireRegs
    {
        /** Ring index into robCompletion_ (retired_ mod robSize). */
        std::size_t robSlot = 0;
        double dispatchCycle = 0.0;
        double maxCompletion = 0.0;
        /** Completion of the load chain dependent ops wait on. */
        double chainReady = 0.0;
        /** Completion time of the most recent load of any kind. */
        double lastLoadCompletion = 0.0;
        /**
         * Tail of the serial compute-dependency chain (loop-carried
         * accumulator): every depOnPrev compute op extends it, so a
         * workload with dependency density f sustains f * latency
         * extra cycles per op -- its inherent ILP limit.
         */
        double computeChainTail = 0.0;
        CpiStack stack;
    };

    CoreParams params_;
    /** 1 / dispatchWidth, hoisted out of the retire body. */
    double dispatchStep_ = 0.25;
    RetireRegs state_;
    std::uint64_t retired_ = 0;
    std::vector<double> robCompletion_; //!< ring buffer, robSize slots
    /** Attribution class of each ROB slot's completion time. */
    std::vector<std::uint8_t> robTag_;
    std::vector<double> mshrFree_;      //!< per-MSHR free timestamps
    std::shared_ptr<MemoryBus> bus_;    //!< DRAM channel (maybe shared)
};

} // namespace sim
} // namespace spec17

#endif // SPEC17_SIM_CORE_MODEL_HH_
