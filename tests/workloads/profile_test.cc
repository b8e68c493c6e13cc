#include "workloads/profile.hh"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

namespace spec17 {
namespace workloads {
namespace {

TEST(Cpu2017Suite, HasAll43Applications)
{
    const auto &suite = cpu2017Suite();
    EXPECT_EQ(suite.size(), 43u);
    std::map<SuiteKind, int> per_suite;
    for (const auto &p : suite)
        ++per_suite[p.suite];
    EXPECT_EQ(per_suite[SuiteKind::RateInt], 10);
    EXPECT_EQ(per_suite[SuiteKind::RateFp], 13);
    EXPECT_EQ(per_suite[SuiteKind::SpeedInt], 10);
    EXPECT_EQ(per_suite[SuiteKind::SpeedFp], 10);
}

TEST(Cpu2017Suite, PairCountsMatchThePaper)
{
    // Paper Section II: 69 test / 61 train / 64 ref pairs.
    const auto &suite = cpu2017Suite();
    EXPECT_EQ(enumeratePairs(suite, InputSize::Test).size(), 69u);
    EXPECT_EQ(enumeratePairs(suite, InputSize::Train).size(), 61u);
    EXPECT_EQ(enumeratePairs(suite, InputSize::Ref).size(), 64u);
}

TEST(Cpu2017Suite, ExactlyFivePairsErrored)
{
    // Paper Section III: 627.cam4_s on all three sizes plus
    // perlbench_r/_s test.pl.
    const auto &suite = cpu2017Suite();
    int errored = 0;
    for (InputSize size : kAllInputSizes) {
        for (const auto &pair : enumeratePairs(suite, size)) {
            errored +=
                pair.profile->isErrored(size, pair.inputIndex) ? 1 : 0;
        }
    }
    EXPECT_EQ(errored, 5);
    EXPECT_TRUE(findProfile(suite, "627.cam4_s")
                    .isErrored(InputSize::Ref, 0));
    EXPECT_TRUE(findProfile(suite, "500.perlbench_r")
                    .isErrored(InputSize::Test, 0));
    EXPECT_FALSE(findProfile(suite, "500.perlbench_r")
                     .isErrored(InputSize::Ref, 0));
}

TEST(Cpu2017Suite, NamesAreUniqueAndWellFormed)
{
    std::set<std::string> names;
    std::set<int> ids;
    for (const auto &p : cpu2017Suite()) {
        EXPECT_TRUE(names.insert(p.name).second) << p.name;
        EXPECT_TRUE(ids.insert(p.benchmarkId).second) << p.benchmarkId;
        // "NNN.something_r" or "_s".
        EXPECT_EQ(p.name.find(std::to_string(p.benchmarkId) + "."), 0u);
        const char tail = p.name.back();
        if (workloads::isSpeedSuite(p.suite))
            EXPECT_EQ(tail, 's') << p.name;
        else
            EXPECT_EQ(tail, 'r') << p.name;
    }
}

TEST(Cpu2017Suite, SpeedFpAndXzRunFourThreads)
{
    const auto &suite = cpu2017Suite();
    for (const auto &p : suite) {
        if (p.suite == SuiteKind::SpeedFp) {
            EXPECT_EQ(p.numThreads, 4u) << p.name;
        }
    }
    EXPECT_EQ(findProfile(suite, "657.xz_s").numThreads, 4u);
    EXPECT_EQ(findProfile(suite, "605.mcf_s").numThreads, 1u);
    EXPECT_EQ(findProfile(suite, "505.mcf_r").numThreads, 1u);
}

TEST(Cpu2017Suite, RefInstructionAveragesMatchTableTwo)
{
    // Table II ref averages (billions): rate int 1751.5, rate fp
    // 2291.1, speed int 2265.2, speed fp 21880.1 -- per application.
    std::map<SuiteKind, std::pair<double, int>> acc;
    for (const auto &p : cpu2017Suite()) {
        acc[p.suite].first += p.refInstrBillions;
        acc[p.suite].second += 1;
    }
    EXPECT_NEAR(acc[SuiteKind::RateInt].first / 10, 1751.5, 10.0);
    EXPECT_NEAR(acc[SuiteKind::RateFp].first / 13, 2291.1, 10.0);
    EXPECT_NEAR(acc[SuiteKind::SpeedInt].first / 10, 2265.2, 10.0);
    EXPECT_NEAR(acc[SuiteKind::SpeedFp].first / 10, 21880.1, 10.0);
}

TEST(Cpu2017Suite, PaperNamedExtremesAreEncoded)
{
    const auto &suite = cpu2017Suite();
    const auto &mcf = findProfile(suite, "505.mcf_r");
    EXPECT_NEAR(mcf.branchFrac, 0.31277, 1e-9);
    EXPECT_NEAR(mcf.memory.l2MissRate, 0.657, 1e-3);
    const auto &leela = findProfile(suite, "541.leela_r");
    EXPECT_NEAR(leela.branches.mispredictRate, 0.08656, 1e-9);
    const auto &xchg = findProfile(suite, "548.exchange2_r");
    EXPECT_NEAR(xchg.storeFrac, 0.15911, 1e-9);
    EXPECT_NEAR(xchg.rssRefMiB, 1.148, 1e-6);
    const auto &xz = findProfile(suite, "657.xz_s");
    EXPECT_NEAR(xz.rssRefMiB / 1024.0, 12.385, 0.01); // GiB
    const auto &roms = findProfile(suite, "654.roms_s");
    EXPECT_NEAR(roms.loadFrac, 0.11504, 1e-9);
    EXPECT_NEAR(roms.storeFrac, 0.00895, 1e-9);
    const auto &lbm = findProfile(suite, "519.lbm_r");
    EXPECT_NEAR(lbm.branchFrac, 0.01198, 1e-9);
}

TEST(Cpu2006Suite, Has29ApplicationsSplitTwelveSeventeen)
{
    const auto &suite = cpu2006Suite();
    EXPECT_EQ(suite.size(), 29u);
    int ints = 0, fps = 0;
    for (const auto &p : suite) {
        EXPECT_EQ(p.generation, SuiteGeneration::Cpu2006);
        (isIntSuite(p.suite) ? ints : fps) += 1;
    }
    EXPECT_EQ(ints, 12);
    EXPECT_EQ(fps, 17);
}

TEST(Profiles, InstrBillionsScalesWithInputSize)
{
    const auto &gcc = findProfile(cpu2017Suite(), "502.gcc_r");
    EXPECT_GT(gcc.instrBillions(InputSize::Ref),
              gcc.instrBillions(InputSize::Train));
    EXPECT_GT(gcc.instrBillions(InputSize::Train),
              gcc.instrBillions(InputSize::Test));
    EXPECT_DOUBLE_EQ(gcc.instrBillions(InputSize::Ref),
                     gcc.refInstrBillions);
}

TEST(Profiles, FootprintScalesWithInputSize)
{
    const auto &xz = findProfile(cpu2017Suite(), "557.xz_r");
    EXPECT_LT(xz.rssMiB(InputSize::Test), xz.rssMiB(InputSize::Ref));
    EXPECT_LE(xz.rssMiB(InputSize::Ref), xz.vszMiB(InputSize::Ref));
}

TEST(Pairs, DisplayNamesDisambiguateInputs)
{
    const auto &suite = cpu2017Suite();
    const auto pairs = enumeratePairs(suite, InputSize::Ref);
    std::set<std::string> names;
    for (const auto &pair : pairs)
        EXPECT_TRUE(names.insert(pair.displayName()).second)
            << pair.displayName();
    // Multi-input apps get -inN suffixes; single-input apps don't.
    bool found_gcc_in3 = false, found_plain_mcf = false;
    for (const auto &name : names) {
        found_gcc_in3 |= name == "502.gcc_r-in3";
        found_plain_mcf |= name == "505.mcf_r";
    }
    EXPECT_TRUE(found_gcc_in3);
    EXPECT_TRUE(found_plain_mcf);
}

TEST(Pairs, SuiteKindFilterWorks)
{
    const auto &suite = cpu2017Suite();
    const auto rate_int =
        enumeratePairs(suite, InputSize::Ref, SuiteKind::RateInt);
    // 10 apps: perlbench x3, gcc x5, x264 x3, xz x3 + 6 singles = 20.
    EXPECT_EQ(rate_int.size(), 20u);
    for (const auto &pair : rate_int)
        EXPECT_EQ(pair.profile->suite, SuiteKind::RateInt);
}

TEST(ProfilesDeathTest, FindProfilePanicsOnUnknown)
{
    EXPECT_DEATH(findProfile(cpu2017Suite(), "999.nope_r"),
                 "no profile");
}

TEST(Profiles, EveryProfileValidates)
{
    for (const auto &p : cpu2017Suite())
        p.validate();
    for (const auto &p : cpu2006Suite())
        p.validate();
    SUCCEED();
}

TEST(Profiles, NonFiniteScalesAndInstructionCountsAreMalformed)
{
    const WorkloadProfile base = cpu2006Suite().front();
    const auto error_of = [&](auto mutate) {
        WorkloadProfile p = base;
        mutate(p);
        return p.validationError();
    };
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_NE(error_of([&](WorkloadProfile &p) { p.testScale = inf; })
                  .find("input scales"),
              std::string::npos);
    EXPECT_NE(error_of([&](WorkloadProfile &p) { p.trainScale = nan; })
                  .find("input scales"),
              std::string::npos);
    // Finite factors whose paper-scale product overflows, at each size.
    EXPECT_NE(error_of([](WorkloadProfile &p) {
                  p.refInstrBillions = 1e300;
                  p.testScale = 1e10;
              }).find("test instruction count is not finite"),
              std::string::npos);
    EXPECT_NE(error_of([](WorkloadProfile &p) {
                  p.refInstrBillions = 1e300;
              }).find("ref instruction count is not finite"),
              std::string::npos);
    // A count near the limit whose products stay finite is well-formed.
    EXPECT_EQ(error_of([](WorkloadProfile &p) {
                  p.refInstrBillions = 1e299;
              }),
              "");
}

TEST(Profiles, SuiteKindNames)
{
    EXPECT_EQ(suiteKindName(SuiteKind::RateInt), "rate int");
    EXPECT_EQ(suiteKindName(SuiteKind::SpeedFp), "speed fp");
    EXPECT_EQ(inputSizeName(InputSize::Ref), "ref");
}

} // namespace
} // namespace workloads
} // namespace spec17
