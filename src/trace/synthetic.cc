#include "trace/synthetic.hh"

#include <algorithm>

#include "util/logging.hh"

namespace spec17 {
namespace trace {

namespace {

/** Page granularity used to separate region base addresses. */
constexpr std::uint64_t kPageBytes = 4096;

std::uint64_t
pageAlignUp(std::uint64_t bytes)
{
    return (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
}

void
checkFraction(double value, const char *what)
{
    SPEC17_ASSERT(value >= 0.0 && value <= 1.0,
                  what, " must be in [0, 1], got ", value);
}

} // namespace

const char *
accessPatternName(AccessPattern pattern)
{
    switch (pattern) {
      case AccessPattern::Sequential: return "sequential";
      case AccessPattern::Strided: return "strided";
      case AccessPattern::Random: return "random";
      case AccessPattern::PointerChase: return "pointer_chase";
    }
    SPEC17_PANIC("unknown AccessPattern");
}

void
SyntheticTraceParams::validate() const
{
    checkFraction(loadFrac, "loadFrac");
    checkFraction(storeFrac, "storeFrac");
    checkFraction(branchFrac, "branchFrac");
    SPEC17_ASSERT(loadFrac + storeFrac + branchFrac <= 1.0 + 1e-9,
                  "instruction mix exceeds 100%");
    checkFraction(fpFrac, "fpFrac");
    checkFraction(mulFrac, "mulFrac");
    checkFraction(divFrac, "divFrac");
    checkFraction(hardBranchFrac, "hardBranchFrac");
    checkFraction(easyTakenBias, "easyTakenBias");
    checkFraction(branchDepOnLoadFrac, "branchDepOnLoadFrac");
    checkFraction(computeDepFrac, "computeDepFrac");
    checkFraction(indirectSwitchProb, "indirectSwitchProb");
    checkFraction(hotCodeFrac, "hotCodeFrac");
    const double kinds = condFrac + directJumpFrac + nearCallFrac
        + indirectJumpFrac + nearReturnFrac;
    SPEC17_ASSERT(kinds <= 1.0 + 1e-9,
                  "branch kind fractions exceed 100%");
    SPEC17_ASSERT(numBranchSites >= 2, "need at least two branch sites");
    SPEC17_ASSERT(codeFootprintBytes >= 4096,
                  "code footprint implausibly small");
    if (loadFrac > 0.0 || storeFrac > 0.0) {
        SPEC17_ASSERT(!regions.empty(),
                      "memory mix requires at least one region");
    }
    double load_w = 0.0, store_w = 0.0;
    for (const auto &region : regions) {
        SPEC17_ASSERT(region.sizeBytes >= 64,
                      "region smaller than one cache line");
        SPEC17_ASSERT(region.loadWeight >= 0.0 && region.storeWeight >= 0.0,
                      "region weights must be non-negative");
        load_w += region.loadWeight;
        store_w += region.storeWeight;
    }
    if (loadFrac > 0.0)
        SPEC17_ASSERT(load_w > 0.0, "loads emitted but no load weight");
    if (storeFrac > 0.0)
        SPEC17_ASSERT(store_w > 0.0, "stores emitted but no store weight");
}

SyntheticTraceGenerator::SyntheticTraceGenerator(SyntheticTraceParams params)
    : params_(std::move(params)),
      rng_(deriveSeed(params_.seed, "uop-stream"))
{
    params_.validate();
    rebuildStaticStructure();
}

void
SyntheticTraceGenerator::rebuildStaticStructure()
{
    // The static program shape (branch sites, indirect targets, region
    // bases) comes from its own RNG stream, so it draws nothing from
    // the op stream's.
    Rng srng(deriveSeed(params_.seed, "static-structure"));

    const std::uint64_t code_span = params_.codeFootprintBytes;
    // Branch sites concentrate in the hot (L1I-resident) code like
    // the rest of the fetch stream; a small tail lives in cold code.
    const std::uint64_t hot_span =
        std::min<std::uint64_t>(code_span, 16 * 1024);
    // Sites get distinct, evenly spaced PCs inside the hot span so
    // that predictor-table aliasing reflects table capacity, not
    // random birthday collisions the per-site bias model would read
    // as noise. The population is capped at one site per 8 bytes.
    const std::size_t num_sites = std::min<std::size_t>(
        params_.numBranchSites,
        static_cast<std::size_t>(hot_span / 8));
    const std::uint64_t spacing =
        std::max<std::uint64_t>(4, hot_span / num_sites / 4 * 4);
    condSites_.clear();
    condSites_.reserve(num_sites);
    // At least one hard site so hardBranchFrac > 0 always has a source.
    const std::size_t num_hard = std::max<std::size_t>(1, num_sites / 8);
    for (std::size_t i = 0; i < num_sites; ++i) {
        BranchSite site;
        site.pc = kCodeBase + (i * spacing) % hot_span;
        site.hard = i < num_hard;
        if (site.hard) {
            site.takenProb = 0.5;
        } else {
            // Biased one way or the other. The per-site jitter is
            // multiplicative in the miss side (1 - bias) so that very
            // predictable workloads keep their tiny floors.
            const double floor = 1.0 - params_.easyTakenBias;
            const double jittered =
                floor * (0.75 + 0.5 * srng.nextDouble());
            const double clamped =
                std::clamp(1.0 - jittered, 0.5, 0.99995);
            site.takenProb =
                srng.nextBernoulli(0.5) ? clamped : 1.0 - clamped;
        }
        condSites_.push_back(site);
    }

    const std::size_t num_indirect_sites =
        std::max<std::size_t>(1, params_.numIndirectSites);
    indirectSitePcs_.clear();
    indirectSiteTargets_.clear();
    for (std::size_t i = 0; i < num_indirect_sites; ++i) {
        // Spread through hot code; BTB entries are distinct from the
        // direction tables, so overlap with conditional sites is
        // harmless.
        indirectSitePcs_.push_back(kCodeBase
                                   + (i * 64 + 32) % hot_span);
        std::vector<std::uint64_t> targets;
        const std::size_t fanout =
            std::max<std::size_t>(1, params_.indirectTargets);
        for (std::size_t t = 0; t < fanout; ++t) {
            targets.push_back(
                kCodeBase + (srng.nextBounded(code_span / 4) * 4));
        }
        indirectSiteTargets_.push_back(std::move(targets));
    }

    regionState_.clear();
    loadWeights_.clear();
    storeWeights_.clear();
    std::uint64_t next_base = kDataBase + params_.addressOffset;
    for (const auto &region : params_.regions) {
        RegionState state;
        state.base = next_base;
        state.cursor = 0;
        regionState_.push_back(state);
        // Guard page between regions keeps them disjoint.
        next_base += pageAlignUp(region.sizeBytes) + kPageBytes;
        loadWeights_.push_back(region.loadWeight);
        storeWeights_.push_back(region.storeWeight);
    }
    // Index-order sums, exactly as nextDiscrete would accumulate them
    // per call; caching them here keeps the emitted stream identical.
    loadWeightTotal_ = 0.0;
    storeWeightTotal_ = 0.0;
    for (double w : loadWeights_)
        loadWeightTotal_ += w;
    for (double w : storeWeights_)
        storeWeightTotal_ += w;

    // Every bounded draw in the emission path uses a bound fixed by
    // the static structure; precompute the division pair each would
    // otherwise pay per call. Bounds of guarded-off draws (no easy
    // sites, monomorphic indirect sites) are pinned to 1 unused.
    regionOffsetDraw_.clear();
    for (const auto &region : params_.regions) {
        const std::uint64_t span = region.sizeBytes / 8 * 8;
        regionOffsetDraw_.emplace_back(span / 8);
    }
    hotTargetDraw_ = BoundedDraw(hot_span / 4);
    coldTargetDraw_ = BoundedDraw(code_span / 4);
    hardSiteDraw_ = BoundedDraw(num_hard);
    easySiteDraw_ = BoundedDraw(
        num_sites > num_hard ? num_sites - num_hard : 1);
    allSiteDraw_ = BoundedDraw(num_sites);
    indirectSiteDraw_ = BoundedDraw(indirectSitePcs_.size());
    indirectPickDraw_.clear();
    for (const auto &targets : indirectSiteTargets_)
        indirectPickDraw_.emplace_back(
            targets.size() > 1 ? targets.size() - 1 : 1);

    // Likewise for every fixed-probability Bernoulli draw, including
    // the per-site taken biases.
    hardBranchDraw_ = BernoulliDraw(params_.hardBranchFrac);
    branchDepDraw_ = BernoulliDraw(params_.branchDepOnLoadFrac);
    hotCodeDraw_ = BernoulliDraw(params_.hotCodeFrac);
    indirectSwitchDraw_ = BernoulliDraw(params_.indirectSwitchProb);
    fpDraw_ = BernoulliDraw(params_.fpFrac);
    computeDepDraw_ = BernoulliDraw(params_.computeDepFrac);
    condSiteTakenDraw_.clear();
    condSiteTakenDraw_.reserve(condSites_.size());
    for (const BranchSite &site : condSites_)
        condSiteTakenDraw_.emplace_back(site.takenProb);
}

std::size_t
SyntheticTraceGenerator::pickWeighted(const std::vector<double> &weights,
                                      double total)
{
    SPEC17_ASSERT(total > 0.0, "weights sum to zero in pickWeighted");
    double pick = rng_.nextDouble() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        pick -= weights[i];
        if (pick < 0.0)
            return i;
    }
    // Floating-point slack: fall back to the last non-zero weight.
    for (std::size_t i = weights.size(); i-- > 0;) {
        if (weights[i] > 0.0)
            return i;
    }
    SPEC17_PANIC("unreachable in pickWeighted");
}

std::uint64_t
SyntheticTraceGenerator::virtualReserveBytes() const
{
    std::uint64_t total =
        pageAlignUp(params_.codeFootprintBytes) + params_.extraVirtualBytes;
    for (const auto &region : params_.regions)
        total += pageAlignUp(region.sizeBytes) + kPageBytes;
    return total;
}

std::uint64_t
SyntheticTraceGenerator::regionBase(std::size_t index) const
{
    SPEC17_ASSERT(index < regionState_.size(), "region index out of range");
    return regionState_[index].base;
}

std::uint64_t
SyntheticTraceGenerator::pickAddress(std::size_t region_index,
                                     bool &dep_on_load)
{
    const MemoryRegionParams &region = params_.regions[region_index];
    RegionState &state = regionState_[region_index];
    const std::uint64_t span = region.sizeBytes / 8 * 8;
    dep_on_load = false;

    switch (region.pattern) {
      case AccessPattern::Sequential:
        state.cursor = (state.cursor + 8) % span;
        return state.base + state.cursor;
      case AccessPattern::Strided: {
        const std::uint64_t stride =
            std::max<std::uint64_t>(8, region.strideBytes / 8 * 8);
        state.cursor = (state.cursor + stride) % span;
        return state.base + state.cursor;
      }
      case AccessPattern::Random:
        return state.base
            + regionOffsetDraw_[region_index].draw(rng_) * 8;
      case AccessPattern::PointerChase:
        dep_on_load = true;
        return state.base
            + regionOffsetDraw_[region_index].draw(rng_) * 8;
    }
    SPEC17_PANIC("unknown AccessPattern");
}

std::uint64_t
SyntheticTraceGenerator::pickBranchTarget()
{
    // Hot targets concentrate in an L1I-resident prefix of the code
    // (inner loops), matching the strong fetch locality real
    // applications show even with multi-megabyte binaries.
    const BoundedDraw &zone = hotCodeDraw_.draw(rng_)
        ? hotTargetDraw_
        : coldTargetDraw_;
    return kCodeBase + zone.draw(rng_) * 4;
}

SyntheticTraceGenerator::EmitConsts
SyntheticTraceGenerator::emitConsts() const
{
    // Everything here is a pure function of params_ and the static
    // structure, recomputed per op before the batched lane existed;
    // hoisting it cannot perturb the RNG stream.
    EmitConsts k;
    k.hotSpan =
        std::min<std::uint64_t>(params_.codeFootprintBytes, 16 * 1024);
    // Cumulative cuts are summed in double exactly as the original
    // per-op comparisons did, then mapped to their integer images:
    // thresholdOf() preserves every (roll < cut) outcome bit-exactly.
    const double load_cut = params_.loadFrac;
    const double store_cut = load_cut + params_.storeFrac;
    const double branch_cut = store_cut + params_.branchFrac;
    k.loadCut = BernoulliDraw::thresholdOf(load_cut);
    k.storeCut = BernoulliDraw::thresholdOf(store_cut);
    k.branchCut = BernoulliDraw::thresholdOf(branch_cut);
    const double cond_cut = params_.condFrac;
    const double direct_jump_cut = cond_cut + params_.directJumpFrac;
    const double near_call_cut = direct_jump_cut + params_.nearCallFrac;
    const double indirect_jump_cut =
        near_call_cut + params_.indirectJumpFrac;
    const double near_return_cut =
        indirect_jump_cut + params_.nearReturnFrac;
    k.condCut = BernoulliDraw::thresholdOf(cond_cut);
    k.directJumpCut = BernoulliDraw::thresholdOf(direct_jump_cut);
    k.nearCallCut = BernoulliDraw::thresholdOf(near_call_cut);
    k.indirectJumpCut = BernoulliDraw::thresholdOf(indirect_jump_cut);
    k.nearReturnCut = BernoulliDraw::thresholdOf(near_return_cut);
    k.divCut = BernoulliDraw::thresholdOf(params_.divFrac);
    k.mulCut =
        BernoulliDraw::thresholdOf(params_.divFrac + params_.mulFrac);
    k.numHardSites = std::max<std::size_t>(1, condSites_.size() / 8);
    return k;
}

namespace {

/** emitOpTo() writer landing fields in one AoS MicroOp. */
struct AosOpWriter
{
    isa::MicroOp &op;

    void
    load(std::uint64_t pc, std::uint64_t addr, std::uint8_t size,
         bool dep_on_load)
    {
        op = isa::makeLoad(pc, addr, size, dep_on_load);
    }
    void
    store(std::uint64_t pc, std::uint64_t addr, std::uint8_t size)
    {
        op = isa::makeStore(pc, addr, size);
    }
    void
    branch(std::uint64_t pc, isa::BranchKind kind, bool taken,
           std::uint64_t target, bool dep_on_load)
    {
        op = isa::makeBranch(pc, kind, taken, target, dep_on_load);
    }
    void
    compute(std::uint64_t pc, isa::UopClass cls, bool dep_on_prev)
    {
        op = isa::makeAlu(pc, cls);
        op.depOnPrev = dep_on_prev;
    }
};

/** emitOpTo() writer landing fields directly in SoA batch lanes.
 *  The caller zeroFill()s the batch span first, so each method only
 *  stores the fields its op class can set away from the construction
 *  defaults -- three to five of the six lanes an op. Holds
 *  raw restrict-qualified lane pointers captured once per batch: the
 *  byte-typed lanes would otherwise make every store a universal-
 *  aliasing store (std::uint8_t is unsigned char) and force the
 *  emit loop to reload the vector data pointers and RNG state after
 *  each one. */
struct SoaLaneWriter
{
    isa::UopClass *__restrict clsLane;
    isa::BranchKind *__restrict kindLane;
    std::uint64_t *__restrict pcLane;
    std::uint64_t *__restrict operandLane;
    std::uint8_t *__restrict sizeLane;
    std::uint8_t *__restrict flagsLane;
    std::size_t i = 0;

    explicit SoaLaneWriter(MicroOpBatch &b)
        : clsLane(b.cls.data()), kindLane(b.kind.data()),
          pcLane(b.pc.data()), operandLane(b.operand.data()),
          sizeLane(b.accessSize.data()), flagsLane(b.flags.data())
    {}

    void
    load(std::uint64_t pc, std::uint64_t addr, std::uint8_t size,
         bool dep_on_load)
    {
        clsLane[i] = isa::UopClass::Load;
        pcLane[i] = pc;
        operandLane[i] = addr;
        sizeLane[i] = size;
        flagsLane[i] = dep_on_load ? kFlagDepOnLoad : 0;
    }
    void
    store(std::uint64_t pc, std::uint64_t addr, std::uint8_t size)
    {
        clsLane[i] = isa::UopClass::Store;
        pcLane[i] = pc;
        operandLane[i] = addr;
        sizeLane[i] = size;
    }
    void
    branch(std::uint64_t pc, isa::BranchKind kind, bool taken,
           std::uint64_t target, bool dep_on_load)
    {
        clsLane[i] = isa::UopClass::Branch;
        kindLane[i] = kind;
        pcLane[i] = pc;
        operandLane[i] = target;
        flagsLane[i] = (taken ? kFlagTaken : 0)
            | (dep_on_load ? kFlagDepOnLoad : 0);
    }
    void
    compute(std::uint64_t pc, isa::UopClass cls, bool dep_on_prev)
    {
        clsLane[i] = cls;
        pcLane[i] = pc;
        flagsLane[i] = dep_on_prev ? kFlagDepOnPrev : 0;
    }
};

} // namespace

template <typename Writer>
void
SyntheticTraceGenerator::emitOpTo(Writer &&w, const EmitConsts &k)
{
    // Sequential fetch. Execution loops within the hot (L1I-sized)
    // code prefix; a fall-through from colder code walks linearly
    // until some taken branch redirects it (usually back to hot
    // code), mirroring the loop-dominated fetch behaviour of real
    // programs.
    // pc_ always lies inside the code footprint, so the advanced
    // offset can exceed a span by at most the 4-byte step: the modulo
    // reduces to a single conditional subtraction.
    const std::uint64_t offset = pc_ - kCodeBase + 4;
    if (offset <= k.hotSpan)
        pc_ = kCodeBase + (offset == k.hotSpan ? 0 : offset);
    else
        pc_ = kCodeBase
            + (offset >= params_.codeFootprintBytes
                   ? offset - params_.codeFootprintBytes
                   : offset);

    // One raw 53-bit roll against the integer cut images; identical
    // outcomes to the nextDouble()-vs-double-cut comparisons (see
    // EmitConsts), with no int->double conversion per op.
    const std::uint64_t roll = rng_.next() >> 11;
    if (roll < k.loadCut) {
        const std::size_t region =
            pickWeighted(loadWeights_, loadWeightTotal_);
        bool dep = false;
        const std::uint64_t addr = pickAddress(region, dep);
        w.load(pc_, addr, 8, dep);
        return;
    }
    if (roll < k.storeCut) {
        const std::size_t region =
            pickWeighted(storeWeights_, storeWeightTotal_);
        bool dep = false;
        const std::uint64_t addr = pickAddress(region, dep);
        w.store(pc_, addr, 8);
        return;
    }
    if (roll < k.branchCut) {
        // All kinds funnel through one writer call so the taken-pc
        // redirect below sees the same (taken, target) pair in every
        // surface; RNG draw order matches the pre-SoA emitOp exactly.
        isa::BranchKind kind;
        std::uint64_t br_pc;
        bool taken;
        std::uint64_t target;
        bool dep = false;
        const std::uint64_t kind_roll = rng_.next() >> 11;
        if (kind_roll < k.condCut || kind_roll >= k.nearReturnCut) {
            // Conditional branch from a static site population.
            const bool hard = hardBranchDraw_.draw(rng_);
            std::size_t site_index;
            if (hard) {
                site_index = hardSiteDraw_.draw(rng_);
            } else {
                site_index = k.numHardSites == condSites_.size()
                    ? allSiteDraw_.draw(rng_)
                    : k.numHardSites + easySiteDraw_.draw(rng_);
            }
            const BranchSite &site = condSites_[site_index];
            kind = isa::BranchKind::Conditional;
            br_pc = site.pc;
            taken = condSiteTakenDraw_[site_index].draw(rng_);
            dep = branchDepDraw_.draw(rng_);
            target = pickBranchTarget();
        } else if (kind_roll < k.directJumpCut) {
            kind = isa::BranchKind::DirectJump;
            br_pc = pc_;
            taken = true;
            target = pickBranchTarget();
        } else if (kind_roll < k.nearCallCut) {
            kind = isa::BranchKind::DirectNearCall;
            br_pc = pc_;
            taken = true;
            target = pickBranchTarget();
        } else if (kind_roll < k.indirectJumpCut) {
            const std::size_t site = indirectSiteDraw_.draw(rng_);
            const auto &targets = indirectSiteTargets_[site];
            // Mostly-monomorphic dispatch: the first target dominates.
            std::size_t pick = 0;
            if (targets.size() > 1 && indirectSwitchDraw_.draw(rng_))
                pick = 1 + indirectPickDraw_[site].draw(rng_);
            kind = isa::BranchKind::IndirectJumpNonCallRet;
            br_pc = indirectSitePcs_[site];
            taken = true;
            target = targets[pick];
        } else {
            kind = isa::BranchKind::IndirectNearReturn;
            br_pc = pc_;
            taken = true;
            target = pickBranchTarget();
        }
        w.branch(br_pc, kind, taken, target, dep);
        if (taken)
            pc_ = target;
        return;
    }

    // Compute op.
    isa::UopClass cls;
    const bool fp = fpDraw_.draw(rng_);
    const std::uint64_t unit_roll = rng_.next() >> 11;
    if (unit_roll < k.divCut)
        cls = fp ? isa::UopClass::FpDiv : isa::UopClass::IntDiv;
    else if (unit_roll < k.mulCut)
        cls = fp ? isa::UopClass::FpMul : isa::UopClass::IntMul;
    else
        cls = fp ? isa::UopClass::FpAdd : isa::UopClass::IntAlu;
    const bool dep_on_prev = computeDepDraw_.draw(rng_);
    w.compute(pc_, cls, dep_on_prev);
}

bool
SyntheticTraceGenerator::next(isa::MicroOp &op)
{
    if (emitted_ >= params_.numOps)
        return false;
    emitOpTo(AosOpWriter{op}, emitConsts());
    ++emitted_;
    return true;
}

std::size_t
SyntheticTraceGenerator::nextBatchSoA(MicroOpBatch &out, std::size_t at,
                                      std::size_t n)
{
    const std::uint64_t remaining = params_.numOps - emitted_;
    if (remaining < n)
        n = static_cast<std::size_t>(remaining);
    out.ensure(at + n);
    out.zeroFill(at, n);
    const EmitConsts k = emitConsts();
    SoaLaneWriter w(out);
    for (std::size_t i = 0; i < n; ++i) {
        w.i = at + i;
        emitOpTo(w, k);
    }
    emitted_ += n;
    return n;
}

} // namespace trace
} // namespace spec17
