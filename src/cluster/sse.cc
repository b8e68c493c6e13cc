#include "cluster/sse.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace spec17 {
namespace cluster {

stats::Matrix
centroids(const stats::Matrix &points,
          const std::vector<std::size_t> &labels)
{
    SPEC17_ASSERT(labels.size() == points.rows(),
                  "one label per observation required");
    std::size_t k = 0;
    for (std::size_t label : labels)
        k = std::max(k, label + 1);

    stats::Matrix means(k, points.cols());
    std::vector<std::size_t> count(k, 0);
    for (std::size_t r = 0; r < points.rows(); ++r) {
        ++count[labels[r]];
        for (std::size_t c = 0; c < points.cols(); ++c)
            means.at(labels[r], c) += points.at(r, c);
    }
    for (std::size_t g = 0; g < k; ++g) {
        SPEC17_ASSERT(count[g] > 0, "empty cluster label ", g);
        for (std::size_t c = 0; c < points.cols(); ++c)
            means.at(g, c) /= static_cast<double>(count[g]);
    }
    return means;
}

double
sumSquaredError(const stats::Matrix &points,
                const std::vector<std::size_t> &labels)
{
    const stats::Matrix means = centroids(points, labels);
    double sse = 0.0;
    for (std::size_t r = 0; r < points.rows(); ++r) {
        for (std::size_t c = 0; c < points.cols(); ++c) {
            const double diff = points.at(r, c) - means.at(labels[r], c);
            sse += diff * diff;
        }
    }
    return sse;
}

std::vector<TradeoffPoint>
sweepTradeoff(const stats::Matrix &points, const Dendrogram &dendrogram,
              const std::vector<double> &cost)
{
    SPEC17_ASSERT(cost.size() == points.rows(),
                  "one cost per observation required");
    SPEC17_ASSERT(dendrogram.numLeaves() == points.rows(),
                  "dendrogram and points disagree on observation count");

    std::vector<TradeoffPoint> sweep;
    sweep.reserve(points.rows());
    for (std::size_t k = 1; k <= points.rows(); ++k) {
        TradeoffPoint tp;
        tp.numClusters = k;
        const std::vector<std::size_t> labels = dendrogram.cut(k);
        tp.sse = sumSquaredError(points, labels);

        std::vector<double> cheapest(
            k, std::numeric_limits<double>::infinity());
        for (std::size_t r = 0; r < points.rows(); ++r)
            cheapest[labels[r]] = std::min(cheapest[labels[r]], cost[r]);
        tp.cost = 0.0;
        for (double c : cheapest)
            tp.cost += c;
        sweep.push_back(tp);
    }
    return sweep;
}

std::size_t
paretoKnee(const std::vector<TradeoffPoint> &sweep)
{
    SPEC17_ASSERT(!sweep.empty(), "empty trade-off sweep");
    double sse_lo = std::numeric_limits<double>::infinity(), sse_hi = 0.0;
    double cost_lo = std::numeric_limits<double>::infinity(), cost_hi = 0.0;
    for (const auto &tp : sweep) {
        sse_lo = std::min(sse_lo, tp.sse);
        sse_hi = std::max(sse_hi, tp.sse);
        cost_lo = std::min(cost_lo, tp.cost);
        cost_hi = std::max(cost_hi, tp.cost);
    }
    const double sse_span = std::max(sse_hi - sse_lo, 1e-12);
    const double cost_span = std::max(cost_hi - cost_lo, 1e-12);

    std::size_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const double u = (sweep[i].sse - sse_lo) / sse_span;
        const double v = (sweep[i].cost - cost_lo) / cost_span;
        const double dist = std::sqrt(u * u + v * v);
        const bool better = dist < best_dist - 1e-12
            || (std::fabs(dist - best_dist) <= 1e-12
                && sweep[i].numClusters < sweep[best].numClusters);
        if (better) {
            best_dist = dist;
            best = i;
        }
    }
    return best;
}

} // namespace cluster
} // namespace spec17
