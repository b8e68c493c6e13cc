#include "explore/runner.hh"

#include <cmath>

#include "cluster/sse.hh"
#include "core/metrics.hh"
#include "suite/fanout.hh"
#include "util/logging.hh"

namespace spec17 {
namespace explore {

namespace {

/** `label` made path-safe: alnum and '.' kept, the rest becomes '-'. */
std::string
sanitize(const std::string &label)
{
    std::string safe = label;
    for (char &c : safe) {
        const bool keep = (c >= 'a' && c <= 'z')
                          || (c >= 'A' && c <= 'Z')
                          || (c >= '0' && c <= '9') || c == '.';
        if (!keep)
            c = '-';
    }
    return safe;
}

} // namespace

double
pairSse(const suite::PairResult &result)
{
    SPEC17_ASSERT(result.profile != nullptr,
                  "pair result without a profile");
    const core::Metrics m = core::deriveMetrics(result);
    const workloads::WorkloadProfile &p = *result.profile;
    const double dev[4] = {
        m.l1MissPct - 100.0 * p.memory.l1MissRate,
        m.l2MissPct - 100.0 * p.memory.l2MissRate,
        m.l3MissPct - 100.0 * p.memory.l3MissRate,
        m.mispredictPct - 100.0 * p.branches.mispredictRate,
    };
    double sse = 0.0;
    for (double d : dev)
        sse += d * d;
    return sse;
}

ExploreRunner::ExploreRunner(ExploreOptions options)
    : options_(std::move(options))
{
}

std::string
ExploreRunner::pointCachePath(const ExplorePoint &point,
                              const std::string &step_tag) const
{
    if (options_.cachePath.empty())
        return {};
    std::string path = options_.cachePath + ".explore.";
    if (!step_tag.empty())
        path += sanitize(step_tag) + ".";
    return path + sanitize(point.axis) + "." + sanitize(point.label);
}

namespace {

/** Folds one point's sweep rows into its accuracy/cost score. */
PointResult
scorePoint(const ExplorePoint &point,
           const std::vector<suite::PairResult> &rows)
{
    PointResult scored;
    scored.point = point;
    double ipc_sum = 0.0;
    for (const suite::PairResult &pair : rows) {
        if (pair.errored) {
            ++scored.errored;
            continue;
        }
        scored.sse += pairSse(pair);
        ipc_sum += core::deriveMetrics(pair).ipc;
        ++scored.pairs;
    }
    if (scored.pairs > 0)
        scored.meanIpc = ipc_sum / double(scored.pairs);
    return scored;
}

} // namespace

std::vector<PointResult>
ExploreRunner::runPoints(const std::vector<ExplorePoint> &points,
                         const std::string &step_tag) const
{
    // One sweep session per point: the point's config key differs, so
    // it gets its own runner and journal. All sessions run on the one
    // sweep engine (suite/fanout.hh) -- with an arena store, each
    // pair's trace is captured once and every point replays it in
    // lockstep -- with jobs, shard and resume inherited from the
    // suite machinery.
    // Reserved up front: the sessions hold references into both.
    std::vector<suite::SuiteRunner> runners;
    std::vector<suite::ResultCache> caches;
    runners.reserve(points.size());
    caches.reserve(points.size());
    std::vector<suite::FanoutSession> sessions;
    for (const ExplorePoint &point : points) {
        suite::RunnerOptions runner = options_.runner;
        runner.system = point.system;
        runners.emplace_back(std::move(runner));
        caches.emplace_back(pointCachePath(point, step_tag),
                            options_.resume);
        caches.back().setShard(options_.shard);
        sessions.push_back(
            {runners.back(), caches.back(), options_.pairObserver});
    }
    const std::vector<std::vector<suite::PairResult>> sweeps =
        suite::runFanoutSweep(
            sessions,
            options_.generation == workloads::SuiteGeneration::Cpu2017
                ? workloads::cpu2017Suite()
                : workloads::cpu2006Suite(),
            options_.size);

    std::vector<PointResult> results;
    results.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        results.push_back(scorePoint(points[i], sweeps[i]));
    markPareto(results);
    return results;
}

std::vector<PointResult>
ExploreRunner::runAxis(const std::string &axis) const
{
    SPEC17_ASSERT(isAxis(axis), "unknown explore axis '", axis, "'");
    return runPoints(planAxis(axis, options_.runner.system));
}

std::vector<PointResult>
ExploreRunner::runCross(const std::vector<std::string> &axes) const
{
    return runPoints(planCross(axes, options_.runner.system));
}

std::vector<DescentStep>
ExploreRunner::runDescent(const std::vector<std::string> &axes) const
{
    SPEC17_ASSERT(!axes.empty(), "coordinate descent without axes");
    std::vector<DescentStep> steps;
    sim::SystemConfig base = options_.runner.system;
    for (std::size_t k = 0; k < axes.size(); ++k) {
        const std::string &axis = axes[k];
        const std::string error = axisPlanError(axis, base);
        if (!error.empty()) {
            // An earlier stage's winner disabled this mechanism; its
            // grid would score identical points, so skip the stage
            // rather than waste a full sweep per grid cell.
            warn("descent skips axis '", axis, "': ", error);
            continue;
        }
        DescentStep step;
        step.axis = axis;
        step.points =
            runPoints(planAnyAxis(axis, base),
                      "step" + std::to_string(k) + "." + axis);
        for (std::size_t i = 0; i < step.points.size(); ++i)
            if (step.points[i].knee)
                step.chosen = i;
        base = step.points[step.chosen].point.system;
        steps.push_back(std::move(step));
    }
    return steps;
}

void
markPareto(std::vector<PointResult> &points)
{
    if (points.empty())
        return;

    // Dominance within the axis: another point at most as expensive
    // and at most as wrong, strictly better on one objective.
    for (PointResult &candidate : points) {
        candidate.dominated = false;
        candidate.knee = false;
        for (const PointResult &other : points) {
            const bool no_worse =
                other.sse <= candidate.sse
                && other.point.costBits <= candidate.point.costBits;
            const bool better =
                other.sse < candidate.sse
                || other.point.costBits < candidate.point.costBits;
            if (no_worse && better) {
                candidate.dominated = true;
                break;
            }
        }
    }

    // Knee via the Section V-C selector: both objectives normalized
    // to [0, 1], closest point to the ideal corner wins (ties break
    // toward the earlier plan index, matching paretoKnee's tie rule).
    std::vector<cluster::TradeoffPoint> sweep;
    sweep.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        sweep.push_back({i, points[i].sse, points[i].point.costBits});
    points[cluster::paretoKnee(sweep)].knee = true;
}

} // namespace explore
} // namespace spec17
