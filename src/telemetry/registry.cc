#include "telemetry/registry.hh"

#include <algorithm>

#include "counters/perf_event.hh"
#include "sim/multicore.hh"
#include "sim/simulator.hh"
#include "util/logging.hh"

namespace spec17 {
namespace telemetry {

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
    }
    SPEC17_PANIC("unknown MetricKind ", int(kind));
}

void
MetricsRegistry::add(MetricDesc metric)
{
    SPEC17_ASSERT(!metric.name.empty(), "metric without a name");
    SPEC17_ASSERT(metric.read != nullptr,
                  "metric '", metric.name, "' without a reader");
    SPEC17_ASSERT(index_.count(metric.name) == 0,
                  "metric '", metric.name, "' registered twice");
    index_[metric.name] = metrics_.size();
    metrics_.push_back(std::move(metric));
}

void
MetricsRegistry::registerCounter(std::string name,
                                 std::string description,
                                 std::function<double()> read)
{
    add({std::move(name), MetricKind::Counter, std::move(description),
         std::move(read)});
}

void
MetricsRegistry::registerGauge(std::string name, std::string description,
                               std::function<double()> read)
{
    add({std::move(name), MetricKind::Gauge, std::move(description),
         std::move(read)});
}

const MetricDesc &
MetricsRegistry::at(std::size_t index) const
{
    SPEC17_ASSERT(index < metrics_.size(), "metric index ", index,
                  " out of range");
    return metrics_[index];
}

bool
MetricsRegistry::contains(const std::string &name) const
{
    return index_.count(name) > 0;
}

std::size_t
MetricsRegistry::indexOf(const std::string &name) const
{
    const auto it = index_.find(name);
    SPEC17_ASSERT(it != index_.end(), "no metric named '", name, "'");
    return it->second;
}

std::vector<double>
MetricsRegistry::readAll() const
{
    std::vector<double> values;
    values.reserve(metrics_.size());
    for (const MetricDesc &metric : metrics_)
        values.push_back(metric.read());
    return values;
}

namespace {

void
registerCache(MetricsRegistry &registry, const sim::SetAssocCache &cache,
              const std::string &prefix)
{
    const std::string base = prefix + cache.config().name + ".";
    registry.registerCounter(base + "accesses", "demand accesses",
                             [&cache] {
                                 return double(cache.stats().accesses());
                             });
    registry.registerCounter(base + "misses", "demand misses", [&cache] {
        return double(cache.stats().misses);
    });
}

void
registerTlb(MetricsRegistry &registry, const sim::Tlb &tlb,
            const std::string &name)
{
    registry.registerCounter(name + ".accesses",
                             "translations requested", [&tlb] {
                                 return double(tlb.stats().accesses);
                             });
    registry.registerCounter(name + ".walks",
                             "full misses (page walks)", [&tlb] {
                                 return double(tlb.stats().walks);
                             });
}

} // namespace

void
registerSimulatorMetrics(MetricsRegistry &registry,
                         const sim::CpuSimulator &simulator,
                         const std::string &prefix)
{
    using counters::PerfEvent;

    // The perf counter set first: these columns reconcile exactly
    // with the aggregate CounterSet a run reports. Cycles read the
    // core clock (CounterSet only materializes them on snapshot);
    // rss is a gauge; vsz is only known at finish() and is skipped.
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
        const auto event = static_cast<PerfEvent>(e);
        const std::string name =
            prefix + "perf." + counters::perfEventName(event);
        if (event == PerfEvent::VszBytes)
            continue;
        if (event == PerfEvent::CpuClkUnhaltedRefTsc) {
            registry.registerCounter(name, "core clock cycles",
                                     [&simulator] {
                                         return simulator.core().cycles();
                                     });
        } else if (event == PerfEvent::RssBytes) {
            registry.registerGauge(
                name, "touched-page bytes", [&simulator] {
                    return double(simulator.footprint().rssBytes());
                });
        } else {
            registry.registerCounter(
                name, "simulated perf event", [&simulator, event] {
                    return double(simulator.rawCounters().get(event));
                });
        }
    }

    registry.registerCounter(prefix + "core.retired",
                             "micro-ops retired", [&simulator] {
                                 return double(simulator.core().retired());
                             });
    registry.registerCounter(prefix + "core.cycles", "cycles consumed",
                             [&simulator] {
                                 return simulator.core().cycles();
                             });

    registerCache(registry, simulator.hierarchy().l1i(), prefix);
    registerCache(registry, simulator.hierarchy().l1d(), prefix);
    registerCache(registry, simulator.hierarchy().l2(), prefix);
    registerCache(registry, simulator.hierarchy().l3(), prefix);

    registry.registerCounter(prefix + "branch.executed",
                             "branches resolved", [&simulator] {
                                 return double(
                                     simulator.branchUnit().totals()
                                         .executed);
                             });
    registry.registerCounter(
        prefix + "branch.mispredicted", "mispredicted branches",
        [&simulator] {
            return double(
                simulator.branchUnit().totals().mispredicted);
        });

    registerTlb(registry, simulator.dtlb(), prefix + "dtlb");
    registerTlb(registry, simulator.itlb(), prefix + "itlb");

    registry.registerGauge(prefix + "footprint.pages",
                           "distinct 4 KiB pages touched", [&simulator] {
                               return double(
                                   simulator.footprint().pagesTouched());
                           });

    // Microarchitecture-mechanism counters last: registration order
    // IS the export column order, so new metrics must append, never
    // interleave (see docs/determinism.md).
    if (const sim::Prefetcher *pf = simulator.hierarchy().prefetcher()) {
        const std::string base =
            prefix + "prefetcher." + pf->name() + ".";
        registry.registerCounter(base + "issued", "prefetches issued",
                                 [pf] { return double(pf->issued()); });
        registry.registerCounter(
            base + "useful", "prefetched lines later demand-hit",
            [&simulator] {
                return double(simulator.hierarchy().prefetcherUseful());
            });
        registry.registerCounter(base + "late",
                                 "demand misses on recently issued lines",
                                 [pf] { return double(pf->late()); });
    }
    if (const sim::Prefetcher *pf =
            simulator.hierarchy().l2Prefetcher()) {
        const std::string base =
            prefix + "l2_prefetcher." + pf->name() + ".";
        registry.registerCounter(base + "issued", "prefetches issued",
                                 [pf] { return double(pf->issued()); });
        registry.registerCounter(
            base + "useful", "prefetched lines later demand-hit",
            [&simulator] {
                return double(
                    simulator.hierarchy().l2PrefetcherUseful());
            });
        registry.registerCounter(base + "late",
                                 "demand misses on recently issued lines",
                                 [pf] { return double(pf->late()); });
    }
    if (simulator.hierarchy().hasWayPrediction()) {
        const sim::SetAssocCache &l1d = simulator.hierarchy().l1d();
        registry.registerCounter(
            prefix + "l1d.way_predictions", "load hits way-predicted",
            [&l1d] { return double(l1d.stats().wayPredictions); });
        registry.registerCounter(
            prefix + "l1d.way_mispredicts",
            "load hits that predicted the wrong way", [&l1d] {
                return double(l1d.stats().wayMispredicts);
            });
        registry.registerCounter(
            prefix + "l1d.way_penalty_cycles",
            "extra load cycles from wrong-way probes", [&l1d] {
                return double(l1d.stats().wayPenaltyCycles);
            });
    }
}

void
registerMulticoreMetrics(MetricsRegistry &registry,
                         const sim::MulticoreSimulator &multicore)
{
    using counters::PerfEvent;

    // Aggregate perf columns first, mirroring the merged CounterSet a
    // multicore run reports: events sum across contexts; ref_tsc
    // accumulates every thread's cycles (the perf-stat convention the
    // merge also follows); rss is the largest single-context
    // footprint (one shared address space); vsz is only known at
    // finish() and is skipped, as in the single-core registration.
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
        const auto event = static_cast<PerfEvent>(e);
        const std::string name =
            "perf." + std::string(counters::perfEventName(event));
        if (event == PerfEvent::VszBytes)
            continue;
        if (event == PerfEvent::CpuClkUnhaltedRefTsc) {
            registry.registerCounter(
                name, "cycles summed across contexts", [&multicore] {
                    double sum = 0.0;
                    for (unsigned c = 0; c < multicore.numCores(); ++c)
                        sum += multicore.core(c).core().cycles();
                    return sum;
                });
        } else if (event == PerfEvent::RssBytes) {
            registry.registerGauge(
                name, "largest single-context touched-page bytes",
                [&multicore] {
                    double max_rss = 0.0;
                    for (unsigned c = 0; c < multicore.numCores(); ++c)
                        max_rss = std::max(
                            max_rss, double(multicore.core(c)
                                                .footprint()
                                                .rssBytes()));
                    return max_rss;
                });
        } else {
            registry.registerCounter(
                name, "simulated perf event summed across contexts",
                [&multicore, event] {
                    double sum = 0.0;
                    for (unsigned c = 0; c < multicore.numCores(); ++c)
                        sum += double(multicore.core(c)
                                          .rawCounters()
                                          .get(event));
                    return sum;
                });
        }
    }

    for (unsigned c = 0; c < multicore.numCores(); ++c) {
        registerSimulatorMetrics(registry, multicore.core(c),
                                 "core" + std::to_string(c) + ".");
    }

    // Shared-L3 attribution: per-context demand traffic and current
    // occupancy, the contention signals the co-run engine reports.
    const sim::SetAssocCache &l3 = multicore.sharedL3();
    for (unsigned ctx = 0; ctx < l3.numContexts(); ++ctx) {
        const std::string base =
            "l3.shared.ctx" + std::to_string(ctx) + ".";
        registry.registerCounter(
            base + "hits", "shared-L3 demand hits by this context",
            [&l3, ctx] { return double(l3.contextStats(ctx).hits); });
        registry.registerCounter(
            base + "misses", "shared-L3 demand misses by this context",
            [&l3, ctx] { return double(l3.contextStats(ctx).misses); });
        registry.registerCounter(
            base + "evictions_suffered",
            "this context's lines evicted by others", [&l3, ctx] {
                return double(l3.contextStats(ctx).evictionsSuffered);
            });
        registry.registerCounter(
            base + "evictions_inflicted",
            "other contexts' lines this context evicted", [&l3, ctx] {
                return double(l3.contextStats(ctx).evictionsInflicted);
            });
        registry.registerGauge(
            base + "occupancy_lines",
            "resident lines owned by this context", [&l3, ctx] {
                return double(l3.contextOccupancy(ctx));
            });
    }
}

void
registerTraceMetrics(MetricsRegistry &registry,
                     std::function<std::uint64_t()> emitted,
                     const std::string &prefix)
{
    registry.registerCounter(prefix + "trace.emitted",
                             "micro-ops emitted by the generator",
                             [emitted = std::move(emitted)] {
                                 return double(emitted());
                             });
}

} // namespace telemetry
} // namespace spec17
