/**
 * @file
 * Property tests swept across analysis configurations: PCA
 * invariants at several problem shapes and clustering invariants
 * under every linkage.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "cluster/hierarchical.hh"
#include "cluster/sse.hh"
#include "stats/descriptive.hh"
#include "stats/pca.hh"
#include "util/random.hh"

namespace spec17 {
namespace {

// ---------------------------------------------------------------
// PCA invariants across problem shapes
// ---------------------------------------------------------------

using PcaShape = std::tuple<std::size_t /*rows*/, std::size_t /*cols*/>;

class PcaProperties : public ::testing::TestWithParam<PcaShape>
{
  protected:
    stats::Matrix
    data(std::uint64_t seed) const
    {
        const auto [rows, cols] = GetParam();
        Rng rng(seed);
        stats::Matrix m(rows, cols);
        // Half the columns correlated, half independent, one noisy
        // duplicate -- realistic characterization data.
        for (std::size_t r = 0; r < rows; ++r) {
            const double factor = rng.nextGaussian();
            for (std::size_t c = 0; c < cols; ++c) {
                m.at(r, c) = (c % 2 == 0)
                    ? factor + 0.3 * rng.nextGaussian()
                    : rng.nextGaussian();
            }
        }
        return m;
    }
};

TEST_P(PcaProperties, VarianceIsPreservedAndSorted)
{
    const auto pca = stats::computePca(data(1));
    double total = 0.0;
    for (std::size_t i = 0; i < pca.eigenvalues.size(); ++i) {
        total += pca.eigenvalues[i];
        if (i > 0) {
            EXPECT_LE(pca.eigenvalues[i], pca.eigenvalues[i - 1] + 1e-9);
        }
        EXPECT_GE(pca.eigenvalues[i], -1e-9);
    }
    // Standardized data: total variance == number of non-constant
    // columns (all columns here are stochastic).
    EXPECT_NEAR(total, double(std::get<1>(GetParam())), 1e-6);
}

TEST_P(PcaProperties, ScoresAreUncorrelated)
{
    const auto pca = stats::computePca(data(2));
    const std::size_t k =
        std::min<std::size_t>(4, pca.scores.cols());
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = i + 1; j < k; ++j) {
            if (pca.eigenvalues[i] < 1e-9
                || pca.eigenvalues[j] < 1e-9) {
                continue;
            }
            EXPECT_NEAR(stats::pearson(pca.scores.col(i),
                                       pca.scores.col(j)),
                        0.0, 1e-6);
        }
    }
}

TEST_P(PcaProperties, ComponentsAreOrthonormal)
{
    const auto pca = stats::computePca(data(3));
    const auto gram =
        pca.components.transpose().multiply(pca.components);
    EXPECT_LT(gram.maxAbsDiff(
                  stats::Matrix::identity(gram.rows())),
              1e-8);
}

TEST_P(PcaProperties, CumulativeVarianceMonotoneToOne)
{
    const auto pca = stats::computePca(data(4));
    double prev = 0.0;
    for (double v : pca.cumulativeVariance) {
        EXPECT_GE(v, prev - 1e-12);
        prev = v;
    }
    EXPECT_NEAR(prev, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PcaProperties,
    ::testing::Values(PcaShape{10, 3}, PcaShape{64, 4},
                      PcaShape{194, 20}, PcaShape{36, 20}),
    [](const ::testing::TestParamInfo<PcaShape> &info) {
        return std::to_string(std::get<0>(info.param)) + "x"
            + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------
// Clustering invariants under every linkage
// ---------------------------------------------------------------

class LinkageProperties
    : public ::testing::TestWithParam<cluster::Linkage>
{
  protected:
    stats::Matrix
    blobs(std::size_t per, std::size_t k, std::uint64_t seed) const
    {
        Rng rng(seed);
        stats::Matrix m(per * k, 3);
        for (std::size_t b = 0; b < k; ++b) {
            for (std::size_t i = 0; i < per; ++i) {
                for (std::size_t d = 0; d < 3; ++d) {
                    m.at(b * per + i, d) =
                        25.0 * double(b == d)
                        + 0.5 * rng.nextGaussian();
                }
            }
        }
        return m;
    }
};

TEST_P(LinkageProperties, EveryCutIsAPartition)
{
    const auto points = blobs(7, 3, 1);
    const auto dendrogram = cluster::agglomerate(points, GetParam());
    for (std::size_t k = 1; k <= points.rows(); ++k) {
        const auto labels = dendrogram.cut(k);
        std::set<std::size_t> distinct(labels.begin(), labels.end());
        EXPECT_EQ(distinct.size(), k);
        for (std::size_t label : labels)
            EXPECT_LT(label, k);
    }
}

TEST_P(LinkageProperties, MergeDistancesMonotone)
{
    const auto points = blobs(6, 3, 2);
    const auto dendrogram = cluster::agglomerate(points, GetParam());
    for (std::size_t i = 1; i < dendrogram.steps().size(); ++i) {
        EXPECT_GE(dendrogram.steps()[i].distance,
                  dendrogram.steps()[i - 1].distance - 1e-9);
    }
}

TEST_P(LinkageProperties, SseMonotoneInClusterCount)
{
    const auto points = blobs(6, 3, 3);
    const auto dendrogram = cluster::agglomerate(points, GetParam());
    double prev = std::numeric_limits<double>::infinity();
    for (std::size_t k = 1; k <= points.rows(); ++k) {
        const double sse =
            cluster::sumSquaredError(points, dendrogram.cut(k));
        EXPECT_LE(sse, prev + 1e-9);
        prev = sse;
    }
}

TEST_P(LinkageProperties, WellSeparatedBlobsRecovered)
{
    const std::size_t per = 8;
    const auto points = blobs(per, 3, 4);
    const auto dendrogram = cluster::agglomerate(points, GetParam());
    const auto labels = dendrogram.cut(3);
    for (std::size_t b = 0; b < 3; ++b) {
        for (std::size_t i = 1; i < per; ++i) {
            EXPECT_EQ(labels[b * per + i], labels[b * per])
                << cluster::linkageName(GetParam());
        }
    }
}

TEST_P(LinkageProperties, MergeSizesAccountForEveryLeaf)
{
    const auto points = blobs(5, 3, 5);
    const auto dendrogram = cluster::agglomerate(points, GetParam());
    EXPECT_EQ(dendrogram.steps().back().size, points.rows());
}

INSTANTIATE_TEST_SUITE_P(
    AllLinkages, LinkageProperties,
    ::testing::Values(cluster::Linkage::Single,
                      cluster::Linkage::Complete,
                      cluster::Linkage::Average, cluster::Linkage::Ward),
    [](const ::testing::TestParamInfo<cluster::Linkage> &info) {
        return cluster::linkageName(info.param);
    });

} // namespace
} // namespace spec17
