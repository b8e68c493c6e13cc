/**
 * @file
 * Clustering quality (sum of squared error) and the Pareto-knee
 * cluster-count selection of Section V-C: the paper sweeps the number
 * of clusters, computes the SSE of each clustering and the total
 * execution time of the representative subset it implies, and picks
 * the Pareto-optimal trade-off (12 clusters for rate, 10 for speed).
 */

#ifndef SPEC17_CLUSTER_SSE_HH_
#define SPEC17_CLUSTER_SSE_HH_

#include <cstddef>
#include <vector>

#include "cluster/hierarchical.hh"
#include "stats/matrix.hh"

namespace spec17 {
namespace cluster {

/**
 * Cluster centroids: row g is the mean of the rows of @p points
 * labelled g, summed in row order. @p labels holds one cluster id per
 * row, and every id below the largest must label at least one row.
 */
stats::Matrix centroids(const stats::Matrix &points,
                        const std::vector<std::size_t> &labels);

/**
 * Sum over clusters of squared Euclidean distances between members
 * and their cluster centroid. @p labels holds one cluster id per row
 * of @p points.
 */
double sumSquaredError(const stats::Matrix &points,
                       const std::vector<std::size_t> &labels);

/** One candidate operating point in the SSE / cost trade-off. */
struct TradeoffPoint
{
    std::size_t numClusters = 0;
    double sse = 0.0;   //!< clustering error at this cluster count
    double cost = 0.0;  //!< subset execution time at this cluster count
};

/**
 * Sweeps k = 1..numLeaves over @p dendrogram, computing SSE and the
 * cost of the cheapest representative per cluster.
 *
 * @param points the clustered observations (PC coordinates).
 * @param dendrogram merge history from agglomerate().
 * @param cost one cost (execution time) per observation; each
 *             cluster's representative is its minimum-cost member,
 *             matching the paper's subsetting rule.
 */
std::vector<TradeoffPoint> sweepTradeoff(
    const stats::Matrix &points, const Dendrogram &dendrogram,
    const std::vector<double> &cost);

/**
 * Picks the knee of the Pareto frontier: both objectives are
 * normalized to [0, 1] over the sweep and the point closest (L2) to
 * the ideal (0, 0) wins. Ties break toward fewer clusters.
 *
 * @return index into @p sweep of the selected trade-off point.
 */
std::size_t paretoKnee(const std::vector<TradeoffPoint> &sweep);

} // namespace cluster
} // namespace spec17

#endif // SPEC17_CLUSTER_SSE_HH_
