#include "sim/branch.hh"

#include <cmath>

#include "util/logging.hh"

namespace spec17 {
namespace sim {

// ---------------------------------------------------------------------
// StaticTakenPredictor
// ---------------------------------------------------------------------

bool
StaticTakenPredictor::predict(std::uint64_t)
{
    return true;
}

void
StaticTakenPredictor::update(std::uint64_t, bool)
{
}

// ---------------------------------------------------------------------
// BimodalPredictor
// ---------------------------------------------------------------------

BimodalPredictor::BimodalPredictor(unsigned table_bits)
    : table_(std::size_t(1) << table_bits, 1),
      mask_((std::size_t(1) << table_bits) - 1)
{
    SPEC17_ASSERT(table_bits >= 4 && table_bits <= 24,
                  "bimodal table bits out of sane range");
}

// ---------------------------------------------------------------------
// GsharePredictor
// ---------------------------------------------------------------------

GsharePredictor::GsharePredictor(unsigned table_bits,
                                 unsigned history_bits)
    : table_(std::size_t(1) << table_bits, 1),
      mask_((std::size_t(1) << table_bits) - 1),
      historyMask_((std::uint64_t(1) << history_bits) - 1)
{
    SPEC17_ASSERT(table_bits >= 4 && table_bits <= 24,
                  "gshare table bits out of sane range");
    SPEC17_ASSERT(history_bits <= table_bits,
                  "gshare history longer than table index");
}

// ---------------------------------------------------------------------
// TournamentPredictor
// ---------------------------------------------------------------------

TournamentPredictor::TournamentPredictor(unsigned table_bits,
                                         unsigned history_bits)
    : bimodal_(table_bits), gshare_(table_bits, history_bits),
      chooser_(std::size_t(1) << table_bits, 2),
      mask_((std::size_t(1) << table_bits) - 1)
{
}

bool
TournamentPredictor::predict(std::uint64_t pc)
{
    const bool use_gshare = chooser_[(pc >> 2) & mask_] >= 2;
    return use_gshare ? gshare_.predict(pc) : bimodal_.predict(pc);
}

void
TournamentPredictor::update(std::uint64_t pc, bool taken)
{
    const bool bimodal_right = bimodal_.predict(pc) == taken;
    const bool gshare_right = gshare_.predict(pc) == taken;
    std::uint8_t &choice = chooser_[(pc >> 2) & mask_];
    if (gshare_right != bimodal_right)
        choice = detail::saturateCounter(choice, gshare_right);
    bimodal_.update(pc, taken);
    gshare_.update(pc, taken);
}

// ---------------------------------------------------------------------
// TagePredictor
// ---------------------------------------------------------------------

namespace {

/** 3-bit saturating counter step; >= 4 means predict taken. */
std::uint8_t
saturateCounter3(std::uint8_t counter, bool taken)
{
    if (taken)
        return counter < 7 ? counter + 1 : 7;
    return counter > 0 ? counter - 1 : 0;
}

/** Useful counters age (halve) every this many updates. */
constexpr std::uint64_t kUsefulAgingPeriod = std::uint64_t(1) << 18;

} // namespace

TagePredictor::TagePredictor(const TageConfig &config)
    : config_(config),
      base_(std::size_t(1) << config.baseBits, 1),
      baseMask_((std::size_t(1) << config.baseBits) - 1),
      tableMask_((std::size_t(1) << config.tableBits) - 1),
      tagMask_(static_cast<std::uint16_t>(
          (std::uint32_t(1) << config.tagBits) - 1))
{
    if (config.historyTables == 0)
        SPEC17_FATAL("tage predictor needs at least one history table "
                     "(historyTables == 0)");
    SPEC17_ASSERT(config.tableBits >= 4 && config.tableBits <= 24,
                  "tage table bits out of sane range");
    SPEC17_ASSERT(config.baseBits >= 4 && config.baseBits <= 24,
                  "tage base table bits out of sane range");
    SPEC17_ASSERT(config.tagBits >= 4 && config.tagBits <= 15,
                  "tage tag bits out of sane range");
    SPEC17_ASSERT(config.minHistory >= 1 &&
                      config.minHistory <= config.maxHistory &&
                      config.maxHistory <= 64,
                  "tage history lengths out of sane range");
    SPEC17_ASSERT(config.historyTables <= config.maxHistoryTables(),
                  "tage history tables out of sane range (at most ",
                  config.maxHistoryTables(), ")");

    // Geometric history series: L(i) = min * (max/min)^(i/(N-1)),
    // rounded, clamped monotonic. With one table, L(0) = minHistory.
    histLen_.resize(config.historyTables);
    const double ratio = config.historyTables > 1
        ? static_cast<double>(config.maxHistory) / config.minHistory
        : 1.0;
    for (unsigned i = 0; i < config.historyTables; ++i) {
        double exponent = config.historyTables > 1
            ? static_cast<double>(i) / (config.historyTables - 1)
            : 0.0;
        double raw = config.minHistory * std::pow(ratio, exponent);
        unsigned len = static_cast<unsigned>(raw + 0.5);
        if (i > 0 && len <= histLen_[i - 1])
            len = histLen_[i - 1] + 1;
        histLen_[i] = len < 64 ? len : 64;
    }

    tables_.assign(config.historyTables,
                   std::vector<Entry>(std::size_t(1) << config.tableBits));
}

unsigned
TagePredictor::historyLength(unsigned table) const
{
    SPEC17_ASSERT(table < histLen_.size(), "tage table out of range");
    return histLen_[table];
}

std::uint64_t
TagePredictor::fold(std::uint64_t value, unsigned bits)
{
    if (bits >= 64)
        return value;
    const std::uint64_t mask = (std::uint64_t(1) << bits) - 1;
    std::uint64_t folded = 0;
    while (value) {
        folded ^= value & mask;
        value >>= bits;
    }
    return folded;
}

std::size_t
TagePredictor::index(unsigned table, std::uint64_t pc) const
{
    const unsigned len = histLen_[table];
    const std::uint64_t hist = len >= 64
        ? history_
        : history_ & ((std::uint64_t(1) << len) - 1);
    const std::uint64_t addr = pc >> 2;
    return (fold(hist, config_.tableBits) ^ addr ^ (addr >> (table + 1)))
        & tableMask_;
}

std::uint16_t
TagePredictor::tagOf(unsigned table, std::uint64_t pc) const
{
    const unsigned len = histLen_[table];
    const std::uint64_t hist = len >= 64
        ? history_
        : history_ & ((std::uint64_t(1) << len) - 1);
    const std::uint64_t addr = pc >> 2;
    // A different mix than index() so entries that collide on the
    // index still disambiguate on the tag (and vice versa).
    return static_cast<std::uint16_t>(
        (fold(hist, config_.tagBits) ^ addr ^ (addr >> 5)) & tagMask_);
}

TagePredictor::Lookup
TagePredictor::lookup(std::uint64_t pc) const
{
    Lookup l;
    // Scan from the longest history down: the first tag match is the
    // provider, the next one the alternate.
    for (int t = static_cast<int>(config_.historyTables) - 1; t >= 0;
         --t) {
        const std::size_t idx = index(static_cast<unsigned>(t), pc);
        const Entry &e = tables_[static_cast<std::size_t>(t)][idx];
        if (!e.valid || e.tag != tagOf(static_cast<unsigned>(t), pc))
            continue;
        if (l.provider < 0) {
            l.provider = t;
            l.providerIndex = idx;
            l.providerPred = e.ctr >= 4;
        } else {
            l.alt = t;
            l.altIndex = idx;
            l.altPred = e.ctr >= 4;
            break;
        }
    }
    const bool base_pred = base_[(pc >> 2) & baseMask_] >= 2;
    if (l.provider < 0) {
        l.pred = base_pred;
    } else {
        if (l.alt < 0)
            l.altPred = base_pred;
        l.pred = l.providerPred;
    }
    return l;
}

void
TagePredictor::train(const Lookup &l, std::uint64_t pc, bool taken)
{
    const bool mispredicted = l.pred != taken;

    if (l.provider >= 0) {
        Entry &p = tables_[static_cast<std::size_t>(l.provider)]
                          [l.providerIndex];
        // The useful counter only learns when provider and alternate
        // disagree -- that is when the provider entry carried signal.
        if (l.providerPred != l.altPred) {
            if (l.providerPred == taken) {
                if (p.useful < 3)
                    ++p.useful;
            } else if (p.useful > 0) {
                --p.useful;
            }
        }
        p.ctr = saturateCounter3(p.ctr, taken);
    } else {
        std::uint8_t &counter = base_[(pc >> 2) & baseMask_];
        counter = detail::saturateCounter(counter, taken);
    }

    // Allocation on mispredict: claim the first un-useful entry in a
    // longer-history table (deterministic: shortest candidate wins);
    // when every candidate is defended, age them all by one instead.
    if (mispredicted) {
        bool allocated = false;
        for (unsigned t = static_cast<unsigned>(l.provider + 1);
             t < config_.historyTables && !allocated; ++t) {
            Entry &e = tables_[t][index(t, pc)];
            if (e.useful == 0) {
                e.valid = 1;
                e.tag = tagOf(t, pc);
                e.ctr = taken ? 4 : 3;
                e.useful = 0;
                allocated = true;
            }
        }
        if (!allocated) {
            for (unsigned t = static_cast<unsigned>(l.provider + 1);
                 t < config_.historyTables; ++t) {
                Entry &e = tables_[t][index(t, pc)];
                if (e.useful > 0)
                    --e.useful;
            }
        }
    }

    // Periodic aging keeps stale useful bits from pinning the tables.
    if ((++updates_ & (kUsefulAgingPeriod - 1)) == 0) {
        for (auto &table : tables_)
            for (Entry &e : table)
                e.useful >>= 1;
    }

    history_ = (history_ << 1) | (taken ? 1 : 0);
}

bool
TagePredictor::predict(std::uint64_t pc)
{
    return lookup(pc).pred;
}

void
TagePredictor::update(std::uint64_t pc, bool taken)
{
    // Recomputes the lookup predict() just did; state is unchanged in
    // between, so the fused predictAndUpdate() below is exactly this
    // two-call sequence with the lookup hoisted.
    train(lookup(pc), pc, taken);
}

bool
TagePredictor::predictAndUpdate(std::uint64_t pc, bool taken)
{
    const Lookup l = lookup(pc);
    train(l, pc, taken);
    return l.pred;
}

std::unique_ptr<DirectionPredictor>
makeDirectionPredictor(const std::string &name)
{
    return makeDirectionPredictor(name, TageConfig());
}

std::unique_ptr<DirectionPredictor>
makeDirectionPredictor(const std::string &name, const TageConfig &tage)
{
    if (name == "static-taken")
        return std::make_unique<StaticTakenPredictor>();
    if (name == "bimodal")
        return std::make_unique<BimodalPredictor>();
    if (name == "gshare")
        return std::make_unique<GsharePredictor>();
    if (name == "tournament")
        return std::make_unique<TournamentPredictor>();
    if (name == "tage")
        return std::make_unique<TagePredictor>(tage);
    SPEC17_FATAL("unknown direction predictor '", name,
                 "' (want static-taken|bimodal|gshare|tournament|tage)");
}

// ---------------------------------------------------------------------
// BranchUnit
// ---------------------------------------------------------------------

BranchUnit::BranchUnit(std::unique_ptr<DirectionPredictor> direction,
                       unsigned btb_bits)
    : direction_(std::move(direction)),
      tournament_(dynamic_cast<TournamentPredictor *>(direction_.get())),
      tage_(dynamic_cast<TagePredictor *>(direction_.get())),
      btb_(std::size_t(1) << btb_bits, 0),
      btbMask_((std::size_t(1) << btb_bits) - 1)
{
    SPEC17_ASSERT(direction_ != nullptr, "BranchUnit needs a predictor");
}

bool
BranchUnit::execute(const isa::MicroOp &op)
{
    SPEC17_ASSERT(op.isBranch(), "BranchUnit fed a non-branch op");
    return execute(op.branch, op.pc, op.taken, op.target);
}

bool
BranchUnit::predictUpdateSlow(std::uint64_t pc, bool taken)
{
    const bool predicted = direction_->predict(pc);
    direction_->update(pc, taken);
    return predicted;
}

} // namespace sim
} // namespace spec17
