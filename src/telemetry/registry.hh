/**
 * @file
 * Metrics registry: the one place simulator components publish their
 * observable state. Components register named counters (monotonic,
 * perf-style) and gauges (point-in-time levels) once; the interval
 * sampler, sinks and reports then discover everything by name instead
 * of hand-copying fields into ad-hoc structs.
 */

#ifndef SPEC17_TELEMETRY_REGISTRY_HH_
#define SPEC17_TELEMETRY_REGISTRY_HH_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace spec17 {
namespace sim {
class CpuSimulator;
class MulticoreSimulator;
}

namespace telemetry {

/** How a metric's samples combine over time. */
enum class MetricKind : std::uint8_t
{
    Counter, //!< monotonically accumulating; intervals report deltas
    Gauge,   //!< point-in-time level; intervals report the level
};

/** Stable machine-readable kind name ("counter"/"gauge"). */
const char *metricKindName(MetricKind kind);

/** One registered metric: a name, a kind, and how to read it now. */
struct MetricDesc
{
    std::string name;        //!< dotted path, e.g. "core.cycles"
    MetricKind kind = MetricKind::Counter;
    std::string description; //!< one-line human description
    /** Reads the current cumulative value (counter) or level
     *  (gauge). Borrows the component; the registry must not outlive
     *  the components registered into it. */
    std::function<double()> read;
};

/**
 * An ordered, name-unique collection of metrics. Registration order
 * is column order everywhere downstream, so it is part of the
 * determinism contract: register in a fixed order.
 */
class MetricsRegistry
{
  public:
    /** Registers a monotonic counter; duplicate names panic. */
    void registerCounter(std::string name, std::string description,
                         std::function<double()> read);

    /** Registers a point-in-time gauge; duplicate names panic. */
    void registerGauge(std::string name, std::string description,
                       std::function<double()> read);

    std::size_t size() const { return metrics_.size(); }
    const MetricDesc &at(std::size_t index) const;

    bool contains(const std::string &name) const;
    /** Index of @p name; panics when absent. */
    std::size_t indexOf(const std::string &name) const;

    /** Reads every metric, in registration order. */
    std::vector<double> readAll() const;

  private:
    void add(MetricDesc metric);

    std::vector<MetricDesc> metrics_;
    std::map<std::string, std::size_t> index_;
};

/**
 * Registers every modelled component of @p simulator: the perf
 * counter set (one counter per counting PerfEvent, the rss gauge),
 * plus per-component structural stats (caches, TLBs, branch unit,
 * core model, footprint). @p prefix namespaces multicore contexts
 * ("core0." etc.). The registry borrows @p simulator.
 */
void registerSimulatorMetrics(MetricsRegistry &registry,
                              const sim::CpuSimulator &simulator,
                              const std::string &prefix = "");

/**
 * Registers a multicore simulator: aggregate perf columns with the
 * multicore counter semantics (events sum across contexts, ref_tsc
 * accumulates every thread's cycles, rss is the largest single-
 * context footprint -- matching MulticoreSimulator::run()'s merge),
 * the full per-core metric set under "coreN." prefixes, and the
 * shared L3's per-context attribution: "l3.shared.ctxN." hit/miss/
 * eviction counters plus an occupancy-lines gauge. The aggregate
 * columns satisfy defaultDerivedSpecs(""), so multicore runs sample
 * with the same derived rate set as single-core runs. The registry
 * borrows @p multicore.
 */
void registerMulticoreMetrics(MetricsRegistry &registry,
                              const sim::MulticoreSimulator &multicore);

/**
 * Registers a trace's emission counter as "<prefix>trace.emitted",
 * read through @p emitted (SyntheticTraceGenerator::emittedOps() for
 * a live trace, ReplaySource::deliveredOps() for a replayed one). Both
 * publish the same column, so telemetry series are byte-identical
 * whether a pair ran live or from a captured arena.
 */
void registerTraceMetrics(MetricsRegistry &registry,
                          std::function<std::uint64_t()> emitted,
                          const std::string &prefix = "");

} // namespace telemetry
} // namespace spec17

#endif // SPEC17_TELEMETRY_REGISTRY_HH_
