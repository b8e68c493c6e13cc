#include "sim/branch.hh"

#include <gtest/gtest.h>

#include "util/random.hh"

namespace spec17 {
namespace sim {
namespace {

using isa::BranchKind;
using isa::makeBranch;

/** Runs @p n Bernoulli(p) branches at one PC; returns mispredict rate. */
double
bernoulliRate(DirectionPredictor &predictor, double p, int n,
              std::uint64_t seed)
{
    Rng rng(seed);
    int wrong = 0;
    for (int i = 0; i < n; ++i) {
        const bool taken = rng.nextBernoulli(p);
        wrong += predictor.predict(0x4000) != taken;
        predictor.update(0x4000, taken);
    }
    return wrong / static_cast<double>(n);
}

TEST(StaticTaken, AlwaysPredictsTaken)
{
    StaticTakenPredictor predictor;
    EXPECT_TRUE(predictor.predict(0x1000));
    predictor.update(0x1000, false);
    EXPECT_TRUE(predictor.predict(0x1000));
    EXPECT_EQ(predictor.name(), "static-taken");
}

TEST(Bimodal, LearnsBiasedBranches)
{
    BimodalPredictor predictor;
    EXPECT_LT(bernoulliRate(predictor, 0.95, 20000, 1), 0.08);
    BimodalPredictor predictor2;
    EXPECT_LT(bernoulliRate(predictor2, 0.05, 20000, 2), 0.08);
}

TEST(Bimodal, CannotLearnAlternatingPattern)
{
    // T,N,T,N ... defeats a 2-bit counter but not global history.
    BimodalPredictor bimodal;
    GsharePredictor gshare;
    int bimodal_wrong = 0, gshare_wrong = 0;
    for (int i = 0; i < 10000; ++i) {
        const bool taken = (i % 2) == 0;
        bimodal_wrong += bimodal.predict(0x4000) != taken;
        bimodal.update(0x4000, taken);
        gshare_wrong += gshare.predict(0x4000) != taken;
        gshare.update(0x4000, taken);
    }
    EXPECT_GT(bimodal_wrong, 3000);
    EXPECT_LT(gshare_wrong, 200); // learns after warmup
}

TEST(Gshare, LearnsShortPeriodicPatterns)
{
    GsharePredictor predictor;
    int wrong = 0;
    const bool pattern[] = {true, true, false, true, false, false};
    for (int i = 0; i < 12000; ++i) {
        const bool taken = pattern[i % 6];
        wrong += predictor.predict(0x8000) != taken;
        predictor.update(0x8000, taken);
    }
    EXPECT_LT(wrong / 12000.0, 0.05);
}

TEST(Gshare, RandomBranchesMispredictNearHalf)
{
    GsharePredictor predictor;
    const double rate = bernoulliRate(predictor, 0.5, 50000, 3);
    EXPECT_NEAR(rate, 0.5, 0.05);
}

TEST(Tournament, AtLeastAsGoodAsBothComponentsOnMixedLoad)
{
    // Alternating branch at one PC (gshare-friendly) plus a biased
    // branch at another (bimodal-friendly).
    TournamentPredictor tournament;
    Rng rng(4);
    int wrong = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
        const bool alt_taken = (i % 2) == 0;
        wrong += tournament.predict(0x4000) != alt_taken;
        tournament.update(0x4000, alt_taken);
        const bool biased_taken = rng.nextBernoulli(0.9);
        wrong += tournament.predict(0x8000) != biased_taken;
        tournament.update(0x8000, biased_taken);
    }
    EXPECT_LT(wrong / double(2 * n), 0.10);
}

TEST(Tage, CannotBeFooledByAlternatingPattern)
{
    // T,N,T,N ... defeats the base bimodal table; the tagged
    // history tables pick it up after allocation warmup.
    TagePredictor tage;
    int wrong = 0;
    for (int i = 0; i < 10000; ++i) {
        const bool taken = (i % 2) == 0;
        wrong += tage.predictAndUpdate(0x4000, taken) != taken;
    }
    EXPECT_LT(wrong, 200);
}

TEST(Tage, AllocationOnMispredictLetsTaggedTablesTakeOver)
{
    // Period-4 pattern T,T,T,N at one PC: the base bimodal counter
    // saturates toward taken and keeps missing every fourth branch
    // (a 25% floor), so each miss allocates a tagged entry keyed on
    // the history leading into the N. Once those providers take
    // over, the second half should be near-perfect.
    TageConfig config;
    config.historyTables = 2;
    TagePredictor tage(config);
    BimodalPredictor bimodal;
    int tage_late_wrong = 0, bimodal_late_wrong = 0;
    for (int i = 0; i < 8000; ++i) {
        const bool taken = (i % 4) != 3;
        const bool tage_wrong =
            tage.predictAndUpdate(0x4000, taken) != taken;
        const bool bimodal_wrong = bimodal.predict(0x4000) != taken;
        bimodal.update(0x4000, taken);
        if (i >= 4000) {
            tage_late_wrong += tage_wrong;
            bimodal_late_wrong += bimodal_wrong;
        }
    }
    EXPECT_LT(tage_late_wrong, 40);
    EXPECT_GE(bimodal_late_wrong, 1000); // the 25% bimodal floor
}

TEST(Tage, FusedPredictAndUpdateMatchesTwoCallSequence)
{
    // The batched branch pass relies on predictAndUpdate() being
    // exactly predict() followed by update(); drive both forms with
    // an identical mixed stream and require identical predictions.
    TagePredictor fused;
    TagePredictor sequential;
    Rng rng(11);
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t pc = 0x1000 + 4 * (i % 37);
        const bool taken = rng.nextBernoulli(0.5);
        const bool a = fused.predictAndUpdate(pc, taken);
        const bool b = sequential.predict(pc);
        sequential.update(pc, taken);
        ASSERT_EQ(a, b) << "diverged at branch " << i;
    }
}

TEST(Tage, HistoryLengthsAreGeometricAndMonotonic)
{
    TageConfig config;
    config.historyTables = 4;
    config.minHistory = 4;
    config.maxHistory = 64;
    TagePredictor tage(config);
    EXPECT_EQ(tage.historyLength(0), 4u);
    EXPECT_EQ(tage.historyLength(3), 64u);
    for (unsigned t = 1; t < config.historyTables; ++t)
        EXPECT_GT(tage.historyLength(t), tage.historyLength(t - 1));
}

TEST(Tage, SingleTableUsesTheShortHistory)
{
    TageConfig config;
    config.historyTables = 1;
    TagePredictor tage(config);
    EXPECT_EQ(tage.historyLength(0), config.minHistory);
    // Still functional as a predictor.
    int wrong = 0;
    for (int i = 0; i < 4000; ++i) {
        const bool taken = (i % 2) == 0;
        wrong += tage.predictAndUpdate(0x4000, taken) != taken;
    }
    EXPECT_LT(wrong, 400);
}

TEST(Tage, SurvivesAliasingInTinyTables)
{
    // 16-entry tables with 4-bit tags force heavy aliasing across
    // PCs; useful counters must keep defended entries alive enough
    // to stay well below coin-flip on per-PC biased branches.
    TageConfig config;
    config.tableBits = 4;
    config.tagBits = 4;
    config.baseBits = 4;
    TagePredictor tage(config);
    Rng rng(5);
    int wrong = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t pc = 0x2000 + 4 * (i % 113);
        // Bias direction keyed on the PC: learnable despite aliases.
        const bool taken = ((pc >> 2) & 1) != 0
            ? rng.nextBernoulli(0.95)
            : rng.nextBernoulli(0.05);
        wrong += tage.predictAndUpdate(pc, taken) != taken;
    }
    EXPECT_LT(wrong / double(n), 0.25);
}

TEST(TageDeathTest, RejectsZeroHistoryTables)
{
    TageConfig config;
    config.historyTables = 0;
    EXPECT_EXIT(TagePredictor{config}, ::testing::ExitedWithCode(1),
                "at least one history table");
}

TEST(Factory, MakesEveryKnownPredictor)
{
    EXPECT_EQ(makeDirectionPredictor("static-taken")->name(),
              "static-taken");
    EXPECT_EQ(makeDirectionPredictor("bimodal")->name(), "bimodal");
    EXPECT_EQ(makeDirectionPredictor("gshare")->name(), "gshare");
    EXPECT_EQ(makeDirectionPredictor("tournament")->name(), "tournament");
    EXPECT_EQ(makeDirectionPredictor("tage")->name(), "tage");
    EXPECT_EXIT(makeDirectionPredictor("tage9000"),
                ::testing::ExitedWithCode(1), "unknown direction");
}

TEST(Factory, ForwardsTageGeometry)
{
    TageConfig config;
    config.historyTables = 3;
    const auto predictor = makeDirectionPredictor("tage", config);
    const auto *tage = dynamic_cast<TagePredictor *>(predictor.get());
    ASSERT_NE(tage, nullptr);
    EXPECT_EQ(tage->config().historyTables, 3u);
}

TEST(BranchUnit, DirectBranchesNeverMispredict)
{
    BranchUnit unit(makeDirectionPredictor("gshare"));
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(unit.execute(makeBranch(
            0x1000, BranchKind::DirectJump, true, 0x9000)));
        EXPECT_FALSE(unit.execute(makeBranch(
            0x2000, BranchKind::DirectNearCall, true, 0xa000)));
        EXPECT_FALSE(unit.execute(makeBranch(
            0x3000, BranchKind::IndirectNearReturn, true, 0xb000)));
    }
    EXPECT_EQ(unit.totals().mispredicted, 0u);
    EXPECT_EQ(unit.totals().executed, 300u);
}

TEST(BranchUnit, IndirectJumpMispredictsOnTargetChange)
{
    BranchUnit unit(makeDirectionPredictor("gshare"));
    // First sight: BTB cold -> mispredict.
    EXPECT_TRUE(unit.execute(makeBranch(
        0x5000, BranchKind::IndirectJumpNonCallRet, true, 0x9000)));
    // Stable target -> predicted.
    EXPECT_FALSE(unit.execute(makeBranch(
        0x5000, BranchKind::IndirectJumpNonCallRet, true, 0x9000)));
    // Target change -> mispredict once, then learned.
    EXPECT_TRUE(unit.execute(makeBranch(
        0x5000, BranchKind::IndirectJumpNonCallRet, true, 0xc000)));
    EXPECT_FALSE(unit.execute(makeBranch(
        0x5000, BranchKind::IndirectJumpNonCallRet, true, 0xc000)));
}

TEST(BranchUnitDeathTest, RejectsNonBranchOps)
{
    BranchUnit unit(makeDirectionPredictor("gshare"));
    EXPECT_DEATH(unit.execute(isa::makeAlu(0x100)), "non-branch");
}

} // namespace
} // namespace sim
} // namespace spec17
