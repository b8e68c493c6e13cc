/**
 * @file
 * Phase analysis -- the paper's stated future work ("explore their
 * phase behavior in order to identify the applications' simulation
 * phases"), implemented SimPoint-style over simulated perf counters:
 *
 *  1. execute the workload in fixed-size intervals: the simulator
 *     is the one cell of a suite::runLockstep() call, whose
 *     telemetry::IntervalSampler records each interval's counter
 *     deltas and derived rates;
 *  2. turn each interval into a normalized signature (mix and rate
 *     vector);
 *  3. hierarchically cluster the signatures and cut at the smallest
 *     k whose SSE drop flattens;
 *  4. report per-phase weights and the representative interval
 *     closest to each phase centroid (the "simulation point").
 */

#ifndef SPEC17_CORE_PHASE_HH_
#define SPEC17_CORE_PHASE_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/hierarchical.hh"
#include "sim/system_config.hh"
#include "trace/source.hh"

namespace spec17 {
namespace core {

/** Signature dimensionality (see signatureNames()). */
inline constexpr std::size_t kPhaseSignatureDims = 8;

/** Labels of the signature dimensions. */
const std::vector<std::string> &phaseSignatureNames();

/** One executed interval. */
struct IntervalRecord
{
    std::uint64_t firstOp = 0;   //!< first micro-op of the interval
    std::uint64_t numOps = 0;    //!< micro-ops executed in it
    double ipc = 0.0;
    /** Normalized signature used for clustering. */
    std::vector<double> signature;
};

/** One detected phase. */
struct Phase
{
    std::size_t id = 0;
    /** Interval indices belonging to this phase, ascending. */
    std::vector<std::size_t> intervals;
    /** Fraction of all executed micro-ops spent in this phase. */
    double weight = 0.0;
    /** Mean IPC over the phase's intervals. */
    double meanIpc = 0.0;
    /** Interval index closest to the phase centroid: the phase's
     *  simulation point. */
    std::size_t representative = 0;
};

/** Configuration of the analysis. */
struct PhaseOptions
{
    /** Micro-ops per interval. */
    std::uint64_t intervalOps = 100'000;
    /**
     * Micro-ops executed before interval collection starts. Without
     * it, the cold-cache start-up transient reads as a phase of its
     * own.
     */
    std::uint64_t warmupOps = 0;
    /** Upper bound on detected phases. */
    std::size_t maxPhases = 8;
    /**
     * Cut rule: accept the smallest cluster count whose residual SSE
     * falls below this fraction of the one-cluster SSE -- i.e. the
     * phases must explain at least (1 - threshold) of the signature
     * variance. A workload where no cut achieves that is treated as
     * single-phase (uniform behaviour plus noise).
     */
    double residualVarianceThreshold = 0.15;
    /**
     * Absolute significance floor: a cut is only a phase boundary if
     * some two phase centroids are at least this far apart in
     * signature space (IPC is O(1), rates are O(0..1)). Without it,
     * any structured-but-tiny drift would read as phases.
     */
    double minPhaseSeparation = 0.25;
    cluster::Linkage linkage = cluster::Linkage::Ward;
};

/** Full result. */
struct PhaseAnalysis
{
    std::vector<IntervalRecord> intervals;
    std::vector<Phase> phases;
    /** Per-interval phase id (parallel to intervals). */
    std::vector<std::size_t> labels;

    /**
     * Estimated whole-run IPC from simulating only the phase
     * representatives, weighted by phase weight -- the quantity
     * SimPoint-style sampling actually ships.
     */
    double sampledIpcEstimate() const;
    /** True whole-run IPC over all intervals (ops-weighted). */
    double fullIpc() const;
};

/**
 * Runs @p source on a fresh simulator of @p config in intervals and
 * detects phases.
 */
PhaseAnalysis analyzePhases(trace::TraceSource &source,
                            const sim::SystemConfig &config,
                            const PhaseOptions &options = {});

} // namespace core
} // namespace spec17

#endif // SPEC17_CORE_PHASE_HH_
