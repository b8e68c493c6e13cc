#include "core/phase.hh"

#include <algorithm>
#include <exception>
#include <limits>

#include "cluster/sse.hh"
#include "sim/simulator.hh"
#include "stats/matrix.hh"
#include "suite/runner.hh"
#include "telemetry/registry.hh"
#include "util/logging.hh"

namespace spec17 {
namespace core {

const std::vector<std::string> &
phaseSignatureNames()
{
    static const std::vector<std::string> names = {
        "ipc",        "load_frac",   "store_frac", "branch_frac",
        "l1_missrate", "l2_missrate", "l3_missrate", "mispredict_rate",
    };
    SPEC17_ASSERT(names.size() == kPhaseSignatureDims,
                  "signature names out of sync");
    return names;
}

double
PhaseAnalysis::fullIpc() const
{
    double ops = 0.0, weighted = 0.0;
    for (const IntervalRecord &interval : intervals) {
        ops += static_cast<double>(interval.numOps);
        weighted += interval.ipc * static_cast<double>(interval.numOps);
    }
    return ops > 0.0 ? weighted / ops : 0.0;
}

double
PhaseAnalysis::sampledIpcEstimate() const
{
    double estimate = 0.0;
    for (const Phase &phase : phases)
        estimate += phase.weight * intervals[phase.representative].ipc;
    return estimate;
}

PhaseAnalysis
analyzePhases(trace::TraceSource &source, const sim::SystemConfig &config,
              const PhaseOptions &options)
{
    SPEC17_ASSERT(options.intervalOps >= 1000,
                  "intervals too small to have stable signatures");
    SPEC17_ASSERT(options.maxPhases >= 1, "need at least one phase");

    // ---- 1-2: execute in intervals, collect signatures ----
    // The simulator is the one cell of a lockstep row whose interval
    // sampler cuts the measured window into intervals: each series row
    // holds one interval's counter deltas and derived rates.
    sim::CpuSimulator simulator(config);
    telemetry::MetricsRegistry registry;
    telemetry::registerSimulatorMetrics(registry, simulator);
    suite::RunnerOptions stepping;
    stepping.warmupOps = options.warmupOps;
    stepping.sampleIntervalOps = options.intervalOps;
    const suite::LockstepOutcome run =
        suite::runLockstep({{&simulator, &source, &registry}}, stepping)
            .front();
    if (run.error)
        std::rethrow_exception(run.error);
    const telemetry::TimeSeries &series = *run.series;
    SPEC17_ASSERT(series.numIntervals() > 0, "trace produced no intervals");

    const auto column = [&series](const char *name) {
        return series.columnIndex(name);
    };
    const std::size_t ipc = column("ipc");
    const std::size_t instr = column("perf.inst_retired.any");
    const std::size_t loads = column("perf.mem_uops_retired.all_loads");
    const std::size_t stores = column("perf.mem_uops_retired.all_stores");
    const std::size_t branches = column("perf.br_inst_exec.all_branches");
    const std::size_t l1m = column("l1_miss_rate");
    const std::size_t l2m = column("l2_miss_rate");
    const std::size_t l3m = column("l3_miss_rate");
    const std::size_t mispredicts = column("mispredict_rate");
    PhaseAnalysis out;
    std::uint64_t measured = 0;
    for (std::size_t i = 0; i < series.numIntervals(); ++i) {
        const std::vector<double> &row = series.rows[i];
        const auto per_instr = [&row, instr](std::size_t count) {
            return row[instr] > 0.0 ? row[count] / row[instr] : 0.0;
        };
        IntervalRecord interval;
        interval.firstOp = options.warmupOps + measured;
        interval.numOps = series.endOps[i] - measured;
        interval.ipc = row[ipc];
        interval.signature = {
            row[ipc],           per_instr(loads), per_instr(stores),
            per_instr(branches), row[l1m],        row[l2m],
            row[l3m],           row[mispredicts],
        };
        out.intervals.push_back(std::move(interval));
        measured = series.endOps[i];
    }

    // A very short run (or maxPhases == 1) degenerates gracefully.
    const std::size_t n = out.intervals.size();
    std::vector<std::vector<double>> rows;
    rows.reserve(n);
    for (const IntervalRecord &interval : out.intervals)
        rows.push_back(interval.signature);
    const stats::Matrix points = stats::Matrix::fromRows(rows);

    // ---- 3: cluster; pick the smallest k explaining the variance --
    const cluster::Dendrogram dendrogram =
        cluster::agglomerate(points, options.linkage);
    const std::size_t k_max = std::min(options.maxPhases, n);
    std::size_t k = 1;
    const double sse_one =
        cluster::sumSquaredError(points, dendrogram.cut(1));
    // A candidate cut must both explain the variance and separate
    // its centroids by a material absolute distance.
    auto max_centroid_separation = [&](std::size_t candidate) {
        const stats::Matrix means =
            cluster::centroids(points, dendrogram.cut(candidate));
        double separation = 0.0;
        for (std::size_t a = 0; a < candidate; ++a)
            for (std::size_t b = a + 1; b < candidate; ++b)
                separation =
                    std::max(separation, cluster::euclidean(means, a, b));
        return separation;
    };

    if (sse_one > 1e-9) {
        for (std::size_t candidate = 2; candidate <= k_max;
             ++candidate) {
            const double sse = cluster::sumSquaredError(
                points, dendrogram.cut(candidate));
            if (sse > options.residualVarianceThreshold * sse_one)
                continue;
            if (max_centroid_separation(candidate)
                >= options.minPhaseSeparation) {
                k = candidate;
            }
            break; // variance explained; accept or stay single-phase
        }
    }
    out.labels = dendrogram.cut(k);

    // ---- 4: summarize phases, pick representatives ----
    std::uint64_t total_ops = 0;
    for (const IntervalRecord &interval : out.intervals)
        total_ops += interval.numOps;

    const stats::Matrix means = cluster::centroids(points, out.labels);
    for (std::size_t phase_id = 0; phase_id < k; ++phase_id) {
        Phase phase;
        phase.id = phase_id;
        std::uint64_t phase_ops = 0;
        double ipc_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (out.labels[i] != phase_id)
                continue;
            phase.intervals.push_back(i);
            phase_ops += out.intervals[i].numOps;
            ipc_sum += out.intervals[i].ipc;
        }
        phase.weight = static_cast<double>(phase_ops)
            / static_cast<double>(total_ops);
        phase.meanIpc =
            ipc_sum / static_cast<double>(phase.intervals.size());

        double best = std::numeric_limits<double>::infinity();
        for (std::size_t i : phase.intervals) {
            double dist = 0.0;
            for (std::size_t d = 0; d < kPhaseSignatureDims; ++d) {
                const double diff =
                    points.at(i, d) - means.at(phase_id, d);
                dist += diff * diff;
            }
            if (dist < best) {
                best = dist;
                phase.representative = i;
            }
        }
        out.phases.push_back(std::move(phase));
    }
    return out;
}

} // namespace core
} // namespace spec17
