/**
 * @file
 * Branch prediction: direction predictors (static / bimodal / gshare /
 * tournament / TAGE), a branch target buffer for indirect jumps, and an
 * idealized return-address stack, composed into a BranchUnit that
 * classifies each dynamic branch as predicted or mispredicted.
 */

#ifndef SPEC17_SIM_BRANCH_HH_
#define SPEC17_SIM_BRANCH_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/uop.hh"
#include "util/logging.hh"

namespace spec17 {
namespace sim {

namespace detail {

/** 2-bit saturating counter step; >= 2 means predict taken. */
inline std::uint8_t
saturateCounter(std::uint8_t counter, bool taken)
{
    if (taken)
        return counter < 3 ? counter + 1 : 3;
    return counter > 0 ? counter - 1 : 0;
}

} // namespace detail

/** Direction predictor interface for conditional branches. */
class DirectionPredictor
{
  public:
    virtual ~DirectionPredictor() = default;

    /** Predicted direction for the branch at @p pc. */
    virtual bool predict(std::uint64_t pc) = 0;

    /** Trains on the resolved direction. */
    virtual void update(std::uint64_t pc, bool taken) = 0;

    /** Predictor name for reports. */
    virtual std::string name() const = 0;
};

/** Always predicts taken (the paper-era static baseline). */
class StaticTakenPredictor : public DirectionPredictor
{
  public:
    bool predict(std::uint64_t pc) override;
    void update(std::uint64_t pc, bool taken) override;
    std::string name() const override { return "static-taken"; }
};

/** Classic per-PC table of 2-bit saturating counters. */
class BimodalPredictor : public DirectionPredictor
{
  public:
    /** @param table_bits log2 of the counter-table size. */
    explicit BimodalPredictor(unsigned table_bits = 14);

    // Inline (and, on the concrete type, devirtualizable): the
    // tournament predictor consults both component tables on every
    // conditional branch, the hottest single operation in the batched
    // branch pass.
    bool predict(std::uint64_t pc) override
    {
        return table_[index(pc)] >= 2;
    }
    void update(std::uint64_t pc, bool taken) override
    {
        std::uint8_t &counter = table_[index(pc)];
        counter = detail::saturateCounter(counter, taken);
    }
    std::string name() const override { return "bimodal"; }

  private:
    std::size_t index(std::uint64_t pc) const
    {
        return (pc >> 2) & mask_;
    }
    std::vector<std::uint8_t> table_;
    std::size_t mask_;
};

/** Gshare: global history XOR PC indexing into 2-bit counters. */
class GsharePredictor : public DirectionPredictor
{
  public:
    /**
     * @param table_bits log2 of the counter-table size.
     * @param history_bits global-history length (<= table_bits).
     */
    explicit GsharePredictor(unsigned table_bits = 14,
                             unsigned history_bits = 12);

    bool predict(std::uint64_t pc) override
    {
        return table_[index(pc)] >= 2;
    }
    void update(std::uint64_t pc, bool taken) override
    {
        std::uint8_t &counter = table_[index(pc)];
        counter = detail::saturateCounter(counter, taken);
        history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
    }
    std::string name() const override { return "gshare"; }

  private:
    std::size_t index(std::uint64_t pc) const
    {
        return ((pc >> 2) ^ history_) & mask_;
    }
    std::vector<std::uint8_t> table_;
    std::size_t mask_;
    std::uint64_t history_ = 0;
    std::uint64_t historyMask_;
};

/**
 * Tournament predictor (Haswell-flavoured): bimodal and gshare
 * components with a per-PC chooser trained toward whichever component
 * was right.
 */
class TournamentPredictor : public DirectionPredictor
{
  public:
    explicit TournamentPredictor(unsigned table_bits = 14,
                                 unsigned history_bits = 12);

    bool predict(std::uint64_t pc) override;
    void update(std::uint64_t pc, bool taken) override;
    std::string name() const override { return "tournament"; }

    /**
     * Fused predict() + update() with each component consulted once.
     * predict() followed by update() evaluates bimodal and gshare
     * twice each (once to choose, once to train the chooser) against
     * unchanged state; this computes both component predictions a
     * single time and applies the identical chooser / component /
     * history updates in the identical order, so the table state and
     * return value match the two-call sequence exactly. Inline and
     * concrete: the BranchUnit fast path calls it devirtualized.
     */
    bool
    predictAndUpdate(std::uint64_t pc, bool taken)
    {
        const bool bimodal_taken = bimodal_.predict(pc);
        const bool gshare_taken = gshare_.predict(pc);
        std::uint8_t &choice = chooser_[(pc >> 2) & mask_];
        const bool predicted = choice >= 2 ? gshare_taken
                                           : bimodal_taken;
        const bool bimodal_right = bimodal_taken == taken;
        const bool gshare_right = gshare_taken == taken;
        if (gshare_right != bimodal_right)
            choice = detail::saturateCounter(choice, gshare_right);
        bimodal_.update(pc, taken);
        gshare_.update(pc, taken);
        return predicted;
    }

  private:
    BimodalPredictor bimodal_;
    GsharePredictor gshare_;
    std::vector<std::uint8_t> chooser_;
    std::size_t mask_;
};

/**
 * TAGE geometry knobs. Every field is a semantic knob: all of them are
 * printed by SystemConfig::describe() and therefore members of the
 * result-cache config key.
 */
struct TageConfig
{
    /** Number of tagged geometric-history tables (>= 1). */
    unsigned historyTables = 4;
    /** log2 entries per tagged table. */
    unsigned tableBits = 10;
    /** Partial-tag width per tagged entry. */
    unsigned tagBits = 9;
    /** Shortest geometric history length (table 0). */
    unsigned minHistory = 4;
    /** Longest geometric history length (last table, <= 64). */
    unsigned maxHistory = 64;
    /** log2 entries of the base bimodal table. */
    unsigned baseBits = 12;

    /** Most tagged tables the history series holds (61 at the
     *  defaults): their lengths rise strictly from minHistory to
     *  maxHistory, so a further table would overshoot maxHistory or,
     *  at the 64 clamp, repeat a length. */
    unsigned
    maxHistoryTables() const
    {
        return maxHistory - minHistory + 1;
    }
};

/**
 * TAGE-style direction predictor: a base bimodal table backing a bank
 * of partially-tagged tables indexed by geometrically increasing
 * slices of global history. The longest-history tag match provides
 * the prediction; a per-entry useful counter arbitrates replacement,
 * and mispredictions allocate into a longer-history table whose
 * victim entry has gone un-useful. Deterministic throughout: the
 * allocation victim is the first (shortest-history) candidate and
 * useful counters age on a fixed update-count period.
 */
class TagePredictor : public DirectionPredictor
{
  public:
    explicit TagePredictor(const TageConfig &config = TageConfig());

    bool predict(std::uint64_t pc) override;
    void update(std::uint64_t pc, bool taken) override;
    std::string name() const override { return "tage"; }

    /**
     * Fused predict() + update() with the table lookup done once.
     * predict() followed by update() performs the identical lookup
     * against unchanged state, so the fused form is provably the same
     * sequence; the BranchUnit fast path calls it devirtualized.
     */
    bool predictAndUpdate(std::uint64_t pc, bool taken);

    /** Geometric history length of tagged table @p table (tests). */
    unsigned historyLength(unsigned table) const;

    const TageConfig &config() const { return config_; }

  private:
    struct Entry
    {
        std::uint16_t tag = 0;
        std::uint8_t ctr = 0;     // 3-bit: >= 4 predicts taken
        std::uint8_t useful = 0;  // 2-bit replacement guard
        std::uint8_t valid = 0;
    };

    /** One resolved lookup: provider/alternate tables and indices. */
    struct Lookup
    {
        int provider = -1;  // tagged table index, -1 = base table
        int alt = -1;
        std::size_t providerIndex = 0;
        std::size_t altIndex = 0;
        bool providerPred = false;
        bool altPred = false;
        bool pred = false;
    };

    Lookup lookup(std::uint64_t pc) const;
    void train(const Lookup &l, std::uint64_t pc, bool taken);
    std::size_t index(unsigned table, std::uint64_t pc) const;
    std::uint16_t tagOf(unsigned table, std::uint64_t pc) const;
    static std::uint64_t fold(std::uint64_t value, unsigned bits);

    TageConfig config_;
    std::vector<unsigned> histLen_;
    std::vector<std::vector<Entry>> tables_;
    std::vector<std::uint8_t> base_;  // 2-bit counters
    std::size_t baseMask_;
    std::size_t tableMask_;
    std::uint16_t tagMask_;
    std::uint64_t history_ = 0;
    std::uint64_t updates_ = 0;
};

/** Names accepted by makeDirectionPredictor(). */
std::unique_ptr<DirectionPredictor> makeDirectionPredictor(
    const std::string &name);

/** As above, with explicit TAGE geometry for name == "tage". */
std::unique_ptr<DirectionPredictor> makeDirectionPredictor(
    const std::string &name, const TageConfig &tage);

/** Per-kind branch statistics kept by the BranchUnit. */
struct BranchStats
{
    std::uint64_t executed = 0;
    std::uint64_t mispredicted = 0;
    /** mispredicted / executed, or 0 if never executed. */
    double mispredictRate() const;
};

/**
 * The full branch-resolution unit: direction prediction for
 * conditionals, a direct-mapped BTB for indirect jump targets, and an
 * idealized return-address stack (returns always predicted, matching
 * the near-perfect RAS of modern cores).
 */
class BranchUnit
{
  public:
    /**
     * @param direction conditional-direction predictor (owned).
     * @param btb_bits log2 of BTB entries for indirect targets.
     */
    explicit BranchUnit(std::unique_ptr<DirectionPredictor> direction,
                        unsigned btb_bits = 12);

    /**
     * Resolves one dynamic branch.
     * @return true when the branch was MISpredicted.
     */
    bool execute(const isa::MicroOp &op);

    /**
     * Lane form of execute() taking the four MicroOp fields branch
     * resolution reads as scalars (the batched fast lane's branch
     * pass feeds it from SoA lanes). This is the single real body;
     * the MicroOp overload delegates. Inline, with the dominant
     * conditional case devirtualized onto the tournament predictor
     * when that is the configured direction predictor (the cached
     * downcast below): a conditional branch then resolves without a
     * function call or virtual dispatch.
     */
    bool
    execute(isa::BranchKind kind, std::uint64_t pc, bool taken,
            std::uint64_t target)
    {
        bool mispredicted = false;

        switch (kind) {
          case isa::BranchKind::Conditional: {
            const bool predicted = tournament_ != nullptr
                ? tournament_->predictAndUpdate(pc, taken)
                : tage_ != nullptr
                    ? tage_->predictAndUpdate(pc, taken)
                    : predictUpdateSlow(pc, taken);
            mispredicted = predicted != taken;
            break;
          }
          case isa::BranchKind::DirectJump:
          case isa::BranchKind::DirectNearCall:
            // Direct targets are decoded in the front end; treated as
            // always predicted once seen. Model as never mispredicted.
            mispredicted = false;
            break;
          case isa::BranchKind::IndirectJumpNonCallRet: {
            std::uint64_t &entry = btb_[(pc >> 2) & btbMask_];
            mispredicted = entry != target;
            entry = target;
            break;
          }
          case isa::BranchKind::IndirectNearReturn:
            // Idealized return-address stack.
            mispredicted = false;
            break;
          case isa::BranchKind::None:
            SPEC17_PANIC("branch op with BranchKind::None");
        }

        ++totals_.executed;
        totals_.mispredicted += mispredicted;
        return mispredicted;
    }

    const BranchStats &totals() const { return totals_; }
    const DirectionPredictor &direction() const { return *direction_; }

  private:
    /** Generic predictor path: predict then train, two virtual
     *  dispatches. The tournament fast path above is provably the
     *  same sequence fused (see TournamentPredictor::predictAndUpdate). */
    bool predictUpdateSlow(std::uint64_t pc, bool taken);

    std::unique_ptr<DirectionPredictor> direction_;
    /** direction_ downcast when it is a TournamentPredictor (the
     *  common configuration), else nullptr. */
    TournamentPredictor *tournament_ = nullptr;
    /** direction_ downcast when it is a TagePredictor, else nullptr;
     *  gives the conditional path a direct (non-virtual) fused call. */
    TagePredictor *tage_ = nullptr;
    std::vector<std::uint64_t> btb_;
    std::size_t btbMask_;
    BranchStats totals_;
};

} // namespace sim
} // namespace spec17

#endif // SPEC17_SIM_BRANCH_HH_
