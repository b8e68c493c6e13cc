/**
 * @file
 * The paper-shape regression suite: the qualitative claims of
 * Limaye & Adegbija that EXPERIMENTS.md documents, asserted as
 * tests so a refactor that silently breaks the reproduction fails
 * CI instead of shipping wrong tables. Runs one shared reduced-size
 * sweep (~8s).
 */

#include <gtest/gtest.h>

#include <map>

#include "core/compare.hh"
#include "core/metrics.hh"
#include "suite/result_cache.hh"

namespace spec17 {
namespace core {
namespace {

using workloads::InputSize;
using workloads::SuiteKind;

const std::vector<Metrics> &
refMetrics()
{
    static const std::vector<Metrics> metrics = [] {
        suite::RunnerOptions options;
        options.sampleOps = 500000;
        options.warmupOps = 150000;
        return withoutErrored(deriveMetrics(
            suite::ResultCache("").runOrLoad(
                suite::SuiteRunner(options), workloads::cpu2017Suite(),
                InputSize::Ref)));
    }();
    return metrics;
}

const Metrics &
metricOf(const std::string &prefix)
{
    for (const auto &m : refMetrics()) {
        if (m.name.rfind(prefix, 0) == 0)
            return m;
    }
    ADD_FAILURE() << prefix << " not found";
    static Metrics dummy;
    return dummy;
}

TEST(PaperShape, X264IsTheIntIpcChampion)
{
    // Paper Fig. 1: 525.x264_r 3.024 and 625.x264_s 3.038 are the
    // highest int IPCs.
    for (const auto &m : intSubset(refMetrics())) {
        if (m.name.rfind("525.x264", 0) == 0
            || m.name.rfind("625.x264", 0) == 0) {
            continue;
        }
        EXPECT_LT(m.ipc, metricOf("525.x264_r").ipc + 0.05) << m.name;
    }
    EXPECT_GT(metricOf("525.x264_r").ipc, 2.5);
}

TEST(PaperShape, McfIsTheRateIntIpcFloor)
{
    const double mcf = metricOf("505.mcf_r").ipc;
    for (const auto &m : bySuite(refMetrics(), SuiteKind::RateInt))
        EXPECT_GE(m.ipc, mcf - 0.05) << m.name;
    EXPECT_LT(mcf, 1.1);
}

TEST(PaperShape, LbmSIsTheSuiteIpcFloor)
{
    const double lbm = metricOf("619.lbm_s").ipc;
    for (const auto &m : refMetrics())
        EXPECT_GE(m.ipc, lbm - 0.02) << m.name;
    EXPECT_LT(lbm, 0.5);
}

TEST(PaperShape, Pop2TopsSpeedFp)
{
    const double pop2 = metricOf("628.pop2_s").ipc;
    for (const auto &m : bySuite(refMetrics(), SuiteKind::SpeedFp))
        EXPECT_LE(m.ipc, pop2 + 0.05) << m.name;
}

TEST(PaperShape, LeelaHasTheWorstMispredicts)
{
    const double leela = metricOf("541.leela_r").mispredictPct;
    for (const auto &m : refMetrics()) {
        if (m.name.rfind("541.leela", 0) == 0
            || m.name.rfind("641.leela", 0) == 0) {
            continue;
        }
        EXPECT_LT(m.mispredictPct, leela) << m.name;
    }
    EXPECT_NEAR(leela, 8.656, 1.5);
}

TEST(PaperShape, McfBranchiestLbmLeastBranchy)
{
    // Paper Fig. 3.
    const double mcf = metricOf("505.mcf_r").branchPct;
    const double lbm = metricOf("519.lbm_r").branchPct;
    for (const auto &m : refMetrics()) {
        if (m.name.rfind("505.mcf", 0) == 0
            || m.name.rfind("605.mcf", 0) == 0) {
            continue;
        }
        EXPECT_LT(m.branchPct, mcf) << m.name;
        if (m.name != "519.lbm_r") {
            EXPECT_GT(m.branchPct, lbm - 0.01) << m.name;
        }
    }
    EXPECT_NEAR(mcf, 31.277, 2.0);
    EXPECT_NEAR(lbm, 1.198, 0.3);
}

TEST(PaperShape, SpeedFpIpcCollapsesVsRateFp)
{
    // Paper: speed fp IPC drops 57-60% vs rate fp.
    const double rate_fp =
        aggregate(bySuite(refMetrics(), SuiteKind::RateFp)).ipc.mean;
    const double speed_fp =
        aggregate(bySuite(refMetrics(), SuiteKind::SpeedFp)).ipc.mean;
    EXPECT_LT(speed_fp, 0.6 * rate_fp);
    // ... while int IPC stays close between rate and speed.
    const double rate_int =
        aggregate(bySuite(refMetrics(), SuiteKind::RateInt)).ipc.mean;
    const double speed_int =
        aggregate(bySuite(refMetrics(), SuiteKind::SpeedInt)).ipc.mean;
    EXPECT_NEAR(speed_int, rate_int, 0.25 * rate_int);
}

TEST(PaperShape, IntMispredictsWorseThanFp)
{
    // Paper Table VII / Fig. 6.
    const double int_misp =
        aggregate(intSubset(refMetrics())).mispredictPct.mean;
    const double fp_misp =
        aggregate(fpSubset(refMetrics())).mispredictPct.mean;
    EXPECT_GT(int_misp, 1.5 * fp_misp);
}

TEST(PaperShape, L2MissRatesExceedL3ForMostPairs)
{
    // Paper Section IV-D: L2 miss rate > L3 miss rate for most pairs
    // on this 30 MB-L3 machine.
    int l2_gt_l3 = 0;
    for (const auto &m : refMetrics())
        l2_gt_l3 += m.l2MissPct > m.l3MissPct;
    EXPECT_GT(l2_gt_l3, int(refMetrics().size() / 2));
}

TEST(PaperShape, FootprintCorrelatesNegativelyWithIpc)
{
    // Paper Section IV-C: RSS -0.465, VSZ -0.510 vs IPC.
    EXPECT_LT(correlationWithIpc(refMetrics(), &Metrics::rssGiB),
              -0.2);
    EXPECT_LT(correlationWithIpc(refMetrics(), &Metrics::vszGiB),
              -0.2);
    // And all three miss-rate correlations are negative too.
    EXPECT_LT(correlationWithIpc(refMetrics(), &Metrics::l1MissPct),
              0.0);
    EXPECT_LT(correlationWithIpc(refMetrics(), &Metrics::l2MissPct),
              0.0);
    EXPECT_LT(correlationWithIpc(refMetrics(), &Metrics::l3MissPct),
              0.0);
}

TEST(PaperShape, XzSHasTheLargestFootprint)
{
    const double xz = metricOf("657.xz_s").rssGiB;
    for (const auto &m : refMetrics())
        EXPECT_LE(m.rssGiB, xz + 1e-9) << m.name;
    EXPECT_NEAR(xz, 12.385, 0.05);
}

} // namespace
} // namespace core
} // namespace spec17
