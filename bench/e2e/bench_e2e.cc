/**
 * @file
 * bench_e2e: runs one benchmark workload once, in this process,
 * through the library's public API, and prints one JSON line.
 *
 *   bench_e2e --workload=NAME [--mode=plain|setup|traced|oracle] [--seed=N]
 *             [--work-dir=DIR] [--trace-out=FILE]
 *             [--sample=N] [--warmup=N]
 *
 * Workloads (README.md says why each exists):
 *   ref17_sweep     every CPU2017 ref pair, journaled, then metrics,
 *                   redundancy and subset for rate and for speed
 *   explore_fanout  predictor x way-predictor cross product over the
 *                   CPU2006 test pairs on the shared-arena fan-out
 *   corun_quartets  every quartet of six rate apps on the shared L3
 *
 * Modes:
 *   plain   the campaign exactly as the CLI runs it (untimed checks
 *           afterwards); gives setup_s, campaign_s and peak_rss_mb
 *   setup   plain mode's set-up alone; gives one more setup_s sample
 *           for the cost of a process start
 *   traced  the same campaign split at layer boundaries, each call
 *           wrapped in a span; gives the per-layer metrics
 *   oracle  the correctness slice on the reference paths; gives rows
 *           that must equal the campaign's rows bit for bit
 *
 * --sample/--warmup override the workload's sizes (smoke runs only).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/characterizer.hh"
#include "core/compare.hh"
#include "core/metrics.hh"
#include "core/redundancy.hh"
#include "core/subset.hh"
#include "corun/plan.hh"
#include "corun/runner.hh"
#include "corun/store.hh"
#include "explore/plan.hh"
#include "explore/runner.hh"
#include "sim/multicore.hh"
#include "sim/simulator.hh"
#include "suite/arena_store.hh"
#include "suite/result_cache.hh"
#include "suite/runner.hh"
#include "trace/arena.hh"
#include "trace/synthetic.hh"
#include "util/random.hh"
#include "util/units.hh"
#include "workloads/builder.hh"
#include "workloads/profile.hh"

#include "tracer.hh"

namespace spec17 {
namespace e2e {

namespace {

const Clock::time_point kProcessStart = Clock::now();

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kProcessStart)
        .count();
}

namespace {

using counters::PerfEvent;
using suite::PairResult;
using workloads::AppInputPair;
using workloads::InputSize;
using workloads::WorkloadProfile;

/** The CLI's default arena budget (--trace-arena-mb). */
constexpr std::uint64_t kArenaBudgetBytes = 512 * kMiB;
/** Co-run applications: two memory-bound, two cache-light, two
 *  in between. */
const char *const kCorunApps[] = {"505.mcf_r",       "519.lbm_r",
                                  "541.leela_r",     "548.exchange2_r",
                                  "525.x264_r",      "520.omnetpp_r"};

struct Args
{
    std::string workload;
    std::string mode = "plain";
    std::uint64_t seed = 0x5bec17;
    std::string workDir = ".";
    std::string traceOut;
    std::uint64_t sample = 0; //!< 0 = the workload's own size
    std::uint64_t warmup = 0;
};

/** What one process measured and checked. */
struct Outcome
{
    /** Process start to the campaign's first dispatch. */
    double setupS = 0.0;
    double campaignS = 0.0;
    double peakRssMb = 0.0;
    std::uint64_t attempted = 0;
    /** Items that errored at runtime or failed an in-process check. */
    std::uint64_t failed = 0;
    std::string digest;
    /** Oracle-slice rows, keyed by item. */
    std::map<std::string, std::string> rows;
    /** Deterministic counts (simulated events, store counters). */
    std::map<std::string, double> counts;
    /** Per-layer metrics (traced mode only). */
    std::map<std::string, double> layers;
};

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

double
seconds(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    const auto lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

std::uint64_t
fnv1a(const std::string &text, std::uint64_t hash = 0xcbf29ce484222325ull)
{
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
hex16(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
hexFloat(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", value);
    return buf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Exact text of everything a PairResult measured: equal rows mean
 *  bit-identical results. */
std::string
pairRow(const PairResult &r)
{
    std::ostringstream out;
    out << r.name << "," << r.errored << "," << r.attempts << ","
        << r.failures.size() << "," << hexFloat(r.wallCycles) << ","
        << hexFloat(r.instrBillions) << "," << hexFloat(r.seconds);
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e)
        out << "," << r.counters.get(static_cast<PerfEvent>(e));
    return out.str();
}

bool
runtimeErrored(const PairResult &r)
{
    return r.errored && !r.failures.empty();
}

/** Simulated event totals over @p results (modelled-design counts). */
void
addModelCounts(const std::vector<PairResult> &results,
               std::map<std::string, double> &counts)
{
    const std::pair<const char *, PerfEvent> events[] = {
        {"sim.l1d_misses", PerfEvent::MemLoadUopsRetiredL1Miss},
        {"sim.l3_misses", PerfEvent::MemLoadUopsRetiredL3Miss},
        {"sim.br_mispredicts", PerfEvent::BrMispExecAllBranches},
        {"sim.dtlb_walks", PerfEvent::DtlbLoadMissesWalk},
    };
    for (const auto &[name, event] : events) {
        double total = 0.0;
        for (const PairResult &r : results)
            total += double(r.counters.get(event));
        counts[name] = total;
    }
}

void
addStoreCounts(const suite::TraceArenaStore &store,
               std::map<std::string, double> &counts)
{
    const suite::TraceArenaStore::Stats stats = store.stats();
    counts["arena.captures"] = double(stats.captures);
    counts["arena.hits"] = double(stats.hits);
    counts["arena.evictions"] = double(stats.evictions);
}

/** Seconds since process start: set-up time when read at dispatch. */
double
sinceStart()
{
    return double(nowNs()) * 1e-9;
}

// ---------------------------------------------------------------------
// Span arithmetic for the traced pass
// ---------------------------------------------------------------------

/** Sum of durations of spans named @p name, seconds. */
double
spanTotal(const std::vector<Span> &spans, const std::string &name)
{
    double total = 0.0;
    for (const Span &span : spans)
        if (span.name == name)
            total += span.seconds();
    return total;
}

std::vector<double>
spanDurationsMs(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> ms;
    for (const Span &span : spans)
        if (span.name == name)
            ms.push_back(span.seconds() * 1e3);
    return ms;
}

/** Total length of the union of @p intervals (ns pairs), clipped to
 *  [lo, hi]. */
std::int64_t
coveredNs(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
          std::int64_t lo, std::int64_t hi)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;
    for (auto [start, end] : intervals) {
        start = std::max(start, reach);
        end = std::min(end, hi);
        if (end > start) {
            covered += end - start;
            reach = end;
        }
    }
    return covered;
}

/** Campaign time that no leaf span (a span without children) covers,
 *  on any thread. */
double
unattributedSeconds(const std::vector<Span> &spans, int campaign)
{
    std::vector<char> has_child(spans.size(), 0);
    for (const Span &span : spans)
        if (span.parent >= 0)
            has_child[std::size_t(span.parent)] = 1;
    std::vector<std::pair<std::int64_t, std::int64_t>> leaves;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (!has_child[i] && int(i) != campaign)
            leaves.emplace_back(spans[i].startNs, spans[i].endNs);
    const Span &root = spans[std::size_t(campaign)];
    return double(root.endNs - root.startNs
                  - coveredNs(leaves, root.startNs, root.endNs))
        * 1e-9;
}

/**
 * Metrics every workload's traced pass reports: the item/pool view,
 * the arena and generation layers, and the simulation layer as a
 * whole (@p sim_spans name its spans on this workload).
 */
void
addCommonLayers(const std::vector<Span> &spans, int campaign,
                const std::vector<std::string> &item_spans,
                const std::vector<std::string> &pool_spans,
                unsigned workers,
                const std::vector<std::string> &sim_spans,
                double sim_ops, double simulations, Outcome &out)
{
    std::map<std::string, double> &layers = out.layers;
    double busy = 0.0;
    std::vector<double> item_ms;
    for (const std::string &name : item_spans) {
        busy += spanTotal(spans, name);
        const std::vector<double> ms = spanDurationsMs(spans, name);
        item_ms.insert(item_ms.end(), ms.begin(), ms.end());
    }
    double pool_wall = 0.0;
    for (const std::string &name : pool_spans)
        pool_wall += spanTotal(spans, name);
    double sim_s = 0.0;
    for (const std::string &name : sim_spans)
        sim_s += spanTotal(spans, name);

    layers["unattributed_s"] = unattributedSeconds(spans, campaign);
    layers["pool.busy_frac"] =
        pool_wall > 0.0 ? busy / (pool_wall * workers) : 0.0;
    layers["item.p50_ms"] = quantile(item_ms, 0.5);
    layers["arena.capture_s"] = spanTotal(spans, "arena.acquire");
    layers["trace.gen_ctor_s"] = spanTotal(spans, "trace.gen_ctor");
    layers["sim.run_s"] = sim_s;
    layers["sim.ops"] = sim_ops;
    layers["sim.ns_per_op"] = sim_ops > 0.0 ? sim_s * 1e9 / sim_ops : 0.0;
    const double captures = out.counts["arena.captures"];
    layers["arena.captures"] = captures;
    layers["arena.sims_per_capture"] =
        captures > 0.0 ? simulations / captures : 0.0;
}

/** Tracks the store's resident bytes at every harness-issued acquire. */
struct ResidentPeak
{
    std::uint64_t bytes = 0;

    void
    sample(const suite::TraceArenaStore &store)
    {
        bytes = std::max(bytes, store.stats().residentBytes);
    }

    double mb() const { return double(bytes) / double(kMiB); }
};

// ---------------------------------------------------------------------
// ref17_sweep
// ---------------------------------------------------------------------

struct Ref17Setup
{
    const std::vector<WorkloadProfile> *suite = nullptr;
    std::vector<AppInputPair> pairs;
    suite::RunnerOptions runner;
    std::unique_ptr<suite::TraceArenaStore> store;
    std::string cachePath;
    /** Plain mode: the CLI's characterization session. */
    std::unique_ptr<core::Characterizer> session;
    /** Traced mode: the session's runner and journal, used directly. */
    std::unique_ptr<suite::SuiteRunner> suiteRunner;
    std::unique_ptr<suite::ResultCache> cache;
};

suite::RunnerOptions
ref17Options(const Args &args)
{
    suite::RunnerOptions options;
    options.sampleOps = args.sample ? args.sample : 1'000'000;
    options.warmupOps = args.warmup ? args.warmup : 300'000;
    options.seed = args.seed;
    options.jobs = 1;
    return options;
}

std::unique_ptr<Ref17Setup>
makeRef17(const Args &args, bool traced)
{
    auto setup = std::make_unique<Ref17Setup>();
    setup->suite = &workloads::cpu2017Suite();
    setup->pairs = workloads::enumeratePairs(*setup->suite, InputSize::Ref);
    setup->store =
        std::make_unique<suite::TraceArenaStore>(kArenaBudgetBytes);
    setup->runner = ref17Options(args);
    setup->runner.arenaStore = setup->store.get();
    // A fresh journal directory: a complete journal left by an
    // earlier run would turn the sweep into a cache hit.
    const std::string dir = args.workDir + "/ref17";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    setup->cachePath = dir + "/results";
    if (traced) {
        setup->suiteRunner =
            std::make_unique<suite::SuiteRunner>(setup->runner);
        setup->cache =
            std::make_unique<suite::ResultCache>(setup->cachePath);
    } else {
        core::CharacterizerOptions options;
        options.runner = setup->runner;
        options.cachePath = setup->cachePath;
        setup->session = std::make_unique<core::Characterizer>(options);
    }
    return setup;
}

/** The oracle slice: the first four single-thread pairs and the first
 *  simulated threaded pair. */
std::vector<std::size_t>
ref17Slice(const std::vector<AppInputPair> &pairs)
{
    std::vector<std::size_t> slice;
    std::size_t single = 0;
    bool threaded = false;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const WorkloadProfile &p = *pairs[i].profile;
        if (p.numThreads == 1 && single < 4) {
            slice.push_back(i);
            ++single;
        } else if (p.numThreads > 1 && !threaded
                   && !p.isErrored(pairs[i].size, pairs[i].inputIndex)) {
            slice.push_back(i);
            threaded = true;
        }
    }
    return slice;
}

/** Mean |IPC - Table II| / Table II over the four CPU2017 ref
 *  mini-suite means (bench/bench_table2_overview.cc), percent. */
double
ipcErrorPct(const std::vector<core::Metrics> &metrics)
{
    const std::pair<workloads::SuiteKind, double> paper[] = {
        {workloads::SuiteKind::RateInt, 1.724},
        {workloads::SuiteKind::RateFp, 1.635},
        {workloads::SuiteKind::SpeedInt, 1.635},
        {workloads::SuiteKind::SpeedFp, 0.706},
    };
    double sum = 0.0;
    for (const auto &[kind, ipc] : paper) {
        const double got =
            core::aggregate(core::averageByApplication(core::bySuite(
                                core::withoutErrored(metrics), kind)))
                .ipc.mean;
        sum += std::abs(got - ipc) / ipc * 100.0;
    }
    return sum / 4.0;
}

std::vector<PairResult>
speedSlice(const std::vector<PairResult> &results, bool speed)
{
    std::vector<PairResult> slice;
    for (const PairResult &r : results)
        if (workloads::isSpeedSuite(r.profile->suite) == speed)
            slice.push_back(r);
    return slice;
}

/** Everything a ref17 campaign leaves for the checks. */
struct Ref17Products
{
    std::vector<PairResult> results;
    std::vector<core::Metrics> metrics;
    core::SubsetSuggestion rate;
    core::SubsetSuggestion speed;
};

void
finishRef17(const Ref17Setup &setup, const Ref17Products &products,
            Outcome &out)
{
    const std::string journal =
        suite::ResultCache(setup.cachePath)
            .journalFile(*setup.suite, InputSize::Ref);
    std::uint64_t digest = fnv1a(readFile(journal));
    for (const auto *subset : {&products.rate, &products.speed})
        for (const core::Representative &rep : subset->representatives)
            digest = fnv1a(rep.name + ";", digest);
    out.digest = hex16(digest);

    for (std::size_t i : ref17Slice(setup.pairs))
        out.rows[products.results[i].name] = pairRow(products.results[i]);
    for (const PairResult &r : products.results) {
        if (r.profile->isErrored(r.size, r.inputIndex))
            continue; // the paper could not collect it: not attempted
        ++out.attempted;
        if (runtimeErrored(r))
            ++out.failed;
    }
    addModelCounts(products.results, out.counts);
    out.counts["ipc_err_pct"] = ipcErrorPct(products.metrics);
    addStoreCounts(*setup.store, out.counts);
}

void
runRef17Plain(const Args &args, Outcome &out)
{
    const auto setup = makeRef17(args, false);
    out.setupS = sinceStart();

    Ref17Products products;
    const Clock::time_point start = Clock::now();
    products.metrics = setup->session->metrics(
        workloads::SuiteGeneration::Cpu2017, InputSize::Ref);
    products.rate = core::suggestSubset(setup->session->redundancyFor(false));
    products.speed = core::suggestSubset(setup->session->redundancyFor(true));
    out.campaignS = seconds(start);
    out.peakRssMb = peakRssMb();

    products.results = setup->session->results(
        workloads::SuiteGeneration::Cpu2017, InputSize::Ref);
    finishRef17(*setup, products, out);
}

/** Micro-ops the traced ref17 pass simulated, all and threaded-only. */
struct SimOps
{
    double all = 0.0;
    double multicore = 0.0;
};

/**
 * One pair through the public seams SuiteRunner::runPairAttempt uses
 * (attempt 0, arena replay, no watchdog or telemetry), with a span
 * around each layer call. The identity checks compare its results and
 * journal with the plain run's, so this copy cannot drift silently.
 */
PairResult
tracedPair(const suite::RunnerOptions &options, const AppInputPair &pair,
           suite::TraceArenaStore &store, Tracer &tracer,
           ResidentPeak &resident, SimOps &ops)
{
    const WorkloadProfile &profile = *pair.profile;
    PairResult result = suite::makePairResult(pair);
    const workloads::BuildOptions build =
        suite::attemptBuildOptions(options, 0);
    const std::uint64_t pair_seed = suite::pairSimSeed(pair, build.seed);

    sim::SimResult sim_result;
    if (profile.numThreads > 1) {
        std::unique_ptr<sim::MulticoreSimulator> multicore;
        {
            Tracer::Scope span(tracer, "sim.construct");
            multicore = std::make_unique<sim::MulticoreSimulator>(
                options.system, profile.numThreads, pair_seed);
        }
        std::vector<std::shared_ptr<trace::TraceSource>> sources;
        for (unsigned t = 0; t < profile.numThreads; ++t) {
            std::unique_ptr<trace::SyntheticTraceGenerator> generator;
            {
                Tracer::Scope span(tracer, "trace.gen_ctor");
                generator = std::make_unique<trace::SyntheticTraceGenerator>(
                    workloads::buildTraceParams(pair, build, t));
            }
            {
                Tracer::Scope span(tracer, "sim.prefill");
                suite::prefillSteadyState(multicore->mutableCore(t),
                                          *generator);
            }
            std::shared_ptr<const trace::TraceArena> arena;
            {
                Tracer::Scope span(tracer, "arena.acquire");
                arena = store.acquire(generator->params());
            }
            resident.sample(store);
            ops.all += double(arena->numOps);
            ops.multicore += double(arena->numOps);
            sources.push_back(
                std::make_shared<trace::ReplaySource>(std::move(arena)));
        }
        Tracer::Scope span(tracer, "multicore.run");
        sim_result = multicore->run(sources, 10'000,
                                    options.warmupOps / profile.numThreads);
    } else {
        std::unique_ptr<trace::SyntheticTraceGenerator> generator;
        {
            Tracer::Scope span(tracer, "trace.gen_ctor");
            generator = std::make_unique<trace::SyntheticTraceGenerator>(
                workloads::buildTraceParams(pair, build, 0));
        }
        std::unique_ptr<trace::ReplaySource> replay;
        {
            Tracer::Scope span(tracer, "arena.acquire");
            replay = std::make_unique<trace::ReplaySource>(
                store.acquire(generator->params()));
        }
        resident.sample(store);
        std::unique_ptr<sim::CpuSimulator> simulator;
        {
            Tracer::Scope span(tracer, "sim.construct");
            simulator =
                std::make_unique<sim::CpuSimulator>(options.system, pair_seed);
        }
        {
            Tracer::Scope span(tracer, "sim.prefill");
            suite::prefillSteadyState(*simulator, *generator);
        }
        counters::CounterSet warm;
        double warm_cycles = 0.0;
        {
            Tracer::Scope span(tracer, "sim.warmup");
            ops.all += double(simulator->step(*replay, options.warmupOps));
            warm = simulator->snapshot();
            warm_cycles = simulator->core().cycles();
        }
        Tracer::Scope span(tracer, "sim.measure");
        constexpr std::uint64_t kChunk = 1 << 20;
        while (true) {
            const std::uint64_t done = simulator->step(*replay, kChunk);
            ops.all += double(done);
            if (done < kChunk)
                break;
        }
        sim_result = simulator->finish(*replay);
        const std::uint64_t vsz = sim_result.counters.get(PerfEvent::VszBytes);
        sim_result.counters = sim_result.counters.diff(warm);
        sim_result.counters.set(PerfEvent::VszBytes, vsz);
        sim_result.counters.set(PerfEvent::RssBytes,
                                simulator->footprint().rssBytes());
        sim_result.cycles -= warm_cycles;
    }
    suite::finalizePairResult(options, sim_result, result);
    return result;
}

void
runRef17Traced(const Args &args, Outcome &out, Tracer &tracer)
{
    const auto setup = makeRef17(args, true);
    out.setupS = sinceStart();
    const auto &suite = *setup->suite;
    const suite::SuiteRunner &runner = *setup->suiteRunner;
    suite::ResultCache &cache = *setup->cache;
    const std::string journal = cache.journalFile(suite, InputSize::Ref);

    Ref17Products products;
    ResidentPeak resident;
    SimOps ops;
    std::uint64_t bytes_written = 0;
    std::uint64_t commits = 0;
    int campaign = -1;
    {
        Tracer::Scope campaign_span(tracer, "campaign");
        campaign = campaign_span.id();
        const auto commit = [&](auto &&write) {
            Tracer::Scope span(tracer, "journal.commit");
            write();
            ++commits;
            std::error_code ec;
            bytes_written += std::filesystem::file_size(journal, ec);
        };
        {
            Tracer::Scope pool(tracer, "pool");
            const auto prefix =
                cache.beginSweep(runner, suite, InputSize::Ref, setup->pairs);
            products.results = prefix.rows;
            suite::runOrderedPool<PairResult>(
                setup->pairs.size(), setup->runner.jobs,
                [&](std::size_t i) {
                    Tracer::Scope span(tracer, "pair", long(i), pool.id());
                    return tracedPair(setup->runner, setup->pairs[i],
                                      *setup->store, tracer, resident, ops);
                },
                [&](const PairResult &result, std::size_t) {
                    products.results.push_back(result);
                    commit([&] {
                        cache.checkpoint(runner, suite, InputSize::Ref,
                                         products.results);
                    });
                });
        }
        commit([&] {
            cache.finish(runner, suite, InputSize::Ref, products.results);
        });
        {
            Tracer::Scope span(tracer, "analysis.metrics");
            products.metrics = core::deriveMetrics(products.results);
        }
        core::RedundancyAnalysis rate, speed;
        {
            Tracer::Scope span(tracer, "analysis.redundancy");
            rate = core::analyzeRedundancy(speedSlice(products.results, false));
            speed = core::analyzeRedundancy(speedSlice(products.results, true));
        }
        Tracer::Scope span(tracer, "analysis.subset");
        products.rate = core::suggestSubset(rate);
        products.speed = core::suggestSubset(speed);
    }
    out.campaignS = tracer.spans()[std::size_t(campaign)].seconds();
    out.peakRssMb = peakRssMb();
    finishRef17(*setup, products, out);

    const std::vector<Span> spans = tracer.spans();
    double simulations = 0.0;
    for (const AppInputPair &pair : setup->pairs)
        simulations += pair.profile->numThreads;
    addCommonLayers(spans, campaign, {"pair"}, {"pool"}, setup->runner.jobs,
                    {"sim.construct", "sim.prefill", "sim.warmup",
                     "sim.measure", "multicore.run"},
                    ops.all, simulations, out);
    std::map<std::string, double> &layers = out.layers;
    for (const char *name : {"sim.construct", "sim.prefill", "sim.warmup",
                             "sim.measure", "multicore.run",
                             "journal.commit", "analysis.metrics",
                             "analysis.redundancy", "analysis.subset"})
        layers[std::string(name) + "_s"] = spanTotal(spans, name);
    layers["multicore.ns_per_op"] =
        layers["multicore.run_s"] * 1e9 / std::max(ops.multicore, 1.0);
    layers["arena.resident_peak_mb"] = resident.mb();
    layers["journal.commits"] = double(commits);
    layers["journal.bytes_written"] = double(bytes_written);
    const std::vector<double> pair_ms = spanDurationsMs(spans, "pair");
    layers["pair.p50_ms"] = quantile(pair_ms, 0.5);
    layers["pair.p80_ms"] = quantile(pair_ms, 0.8);
}

void
runRef17Oracle(const Args &args, Outcome &out)
{
    suite::RunnerOptions options = ref17Options(args);
    options.unbatchedStepping = true;
    const suite::SuiteRunner reference(options);
    const auto pairs = workloads::enumeratePairs(workloads::cpu2017Suite(),
                                                 InputSize::Ref);
    for (std::size_t i : ref17Slice(pairs)) {
        const PairResult r = reference.runPair(pairs[i]);
        out.rows[r.name] = pairRow(r);
    }
}

// ---------------------------------------------------------------------
// explore_fanout
// ---------------------------------------------------------------------

/** Pairs of the explore campaign whose cells form the oracle slice. */
constexpr std::size_t kExploreOraclePairs = 4;

struct ExploreSetup
{
    std::unique_ptr<suite::TraceArenaStore> store;
    explore::ExploreOptions options;
    std::vector<explore::ExplorePoint> points;
    std::unique_ptr<explore::ExploreRunner> runner;
    double planS = 0.0;

    /** Every cell the sweep committed, in commit order: pair-major,
     *  points in plan order within a pair. */
    std::vector<PairResult> cells;
    /** Traced pass: spans each pair's row from the previous commit. */
    Tracer *tracer = nullptr;
    int rowParent = -1;
    std::int64_t rowMark = 0;
    std::size_t lastIndex = SIZE_MAX;

    void
    onCell(const PairResult &result, std::size_t index)
    {
        cells.push_back(result);
        if (tracer != nullptr && index != lastIndex) {
            const std::int64_t now = nowNs();
            tracer->record("explore.pair", rowMark, now, rowParent,
                           long(index));
            rowMark = now;
            lastIndex = index;
        }
    }
};

std::unique_ptr<ExploreSetup>
makeExplore(const Args &args)
{
    auto setup = std::make_unique<ExploreSetup>();
    setup->store =
        std::make_unique<suite::TraceArenaStore>(kArenaBudgetBytes);
    explore::ExploreOptions &options = setup->options;
    options.runner.sampleOps = args.sample ? args.sample : 300'000;
    options.runner.warmupOps = args.warmup ? args.warmup : 75'000;
    options.runner.seed = args.seed;
    options.runner.jobs = 1;
    options.runner.arenaStore = setup->store.get();
    options.generation = workloads::SuiteGeneration::Cpu2006;
    options.size = InputSize::Test;
    options.cachePath.clear();
    ExploreSetup *self = setup.get();
    options.pairObserver = [self](const PairResult &result,
                                  std::size_t index, std::size_t) {
        self->onCell(result, index);
    };
    const Clock::time_point plan_start = Clock::now();
    setup->points =
        explore::planCross({"predictor", "way-predictor"},
                           options.runner.system);
    setup->planS = seconds(plan_start);
    setup->runner = std::make_unique<explore::ExploreRunner>(options);
    return setup;
}

void
finishExplore(const ExploreSetup &setup,
              const std::vector<explore::PointResult> &table, Outcome &out)
{
    std::uint64_t digest = fnv1a("explore");
    for (const explore::PointResult &r : table) {
        digest = fnv1a(r.point.axis + "|" + r.point.label + "|"
                           + hexFloat(r.sse) + "|"
                           + hexFloat(r.point.costBits) + "|"
                           + hexFloat(r.meanIpc) + "|"
                           + std::to_string(r.pairs) + "|"
                           + std::to_string(r.errored) + "|"
                           + std::to_string(r.dominated) + "|"
                           + std::to_string(r.knee) + "\n",
                       digest);
    }
    out.digest = hex16(digest);

    const std::size_t m = setup.points.size();
    if (setup.cells.size() % m != 0)
        ++out.failed; // a point missed a pair: the fan-out lost a cell
    for (std::size_t c = 0; c < setup.cells.size(); ++c) {
        if (c / m < kExploreOraclePairs)
            out.rows[setup.points[c % m].label + "|"
                     + setup.cells[c].name] = pairRow(setup.cells[c]);
        ++out.attempted;
        if (runtimeErrored(setup.cells[c]))
            ++out.failed;
    }
    addModelCounts(setup.cells, out.counts);
    addStoreCounts(*setup.store, out.counts);
}

void
runExplorePlain(const Args &args, Outcome &out)
{
    const auto setup = makeExplore(args);
    out.setupS = sinceStart();
    const Clock::time_point start = Clock::now();
    const auto table = setup->runner->runPoints(setup->points);
    out.campaignS = seconds(start);
    out.peakRssMb = peakRssMb();
    finishExplore(*setup, table, out);
}

void
runExploreTraced(const Args &args, Outcome &out, Tracer &tracer)
{
    const auto setup = makeExplore(args);
    out.setupS = sinceStart();
    const auto &suite = workloads::cpu2006Suite();
    const auto pairs = workloads::enumeratePairs(suite, setup->options.size);
    const workloads::BuildOptions build =
        suite::attemptBuildOptions(setup->options.runner, 0);

    ResidentPeak resident;
    double traces = 0.0;
    double ops_per_point = 0.0;
    std::vector<explore::PointResult> table;
    int campaign = -1;
    {
        Tracer::Scope campaign_span(tracer, "campaign");
        campaign = campaign_span.id();
        {
            // Capture every pair's arena up front, so the fan-out below
            // replays from a warm store and its time is simulation.
            Tracer::Scope phase(tracer, "explore.capture");
            for (std::size_t i = 0; i < pairs.size(); ++i) {
                for (unsigned t = 0; t < pairs[i].profile->numThreads;
                     ++t) {
                    std::unique_ptr<trace::SyntheticTraceGenerator> gen;
                    {
                        Tracer::Scope span(tracer, "trace.gen_ctor",
                                           long(i));
                        gen = std::make_unique<
                            trace::SyntheticTraceGenerator>(
                            workloads::buildTraceParams(pairs[i], build, t));
                    }
                    Tracer::Scope span(tracer, "arena.acquire", long(i));
                    ops_per_point +=
                        double(setup->store->acquire(gen->params())->numOps);
                    resident.sample(*setup->store);
                    ++traces;
                }
            }
        }
        Tracer::Scope run(tracer, "explore.run_points");
        setup->tracer = &tracer;
        setup->rowParent = run.id();
        setup->rowMark = nowNs();
        table = setup->runner->runPoints(setup->points);
    }
    out.campaignS = tracer.spans()[std::size_t(campaign)].seconds();
    out.peakRssMb = peakRssMb();
    finishExplore(*setup, table, out);
    // The fan-out must have replayed every capture from the store.
    if (out.counts["arena.evictions"] != 0.0
        || out.counts["arena.captures"] != traces)
        ++out.failed;

    const std::vector<Span> spans = tracer.spans();
    const double points = double(setup->points.size());
    addCommonLayers(spans, campaign, {"explore.pair"},
                    {"explore.run_points"}, setup->options.runner.jobs,
                    {"explore.run_points"}, ops_per_point * points,
                    double(setup->cells.size()), out);
    std::map<std::string, double> &layers = out.layers;
    layers["arena.resident_peak_mb"] = resident.mb();
    layers["explore.plan_s"] = setup->planS;
    layers["explore.run_points_s"] = spanTotal(spans, "explore.run_points");
    layers["explore.s_per_cell"] = setup->cells.empty()
        ? 0.0
        : layers["explore.run_points_s"] / double(setup->cells.size());
}

void
runExploreOracle(const Args &args, Outcome &out)
{
    const auto setup = makeExplore(args);
    const auto pairs = workloads::enumeratePairs(workloads::cpu2006Suite(),
                                                 setup->options.size);
    for (const explore::ExplorePoint &point : setup->points) {
        suite::RunnerOptions options = setup->options.runner;
        options.system = point.system;
        options.arenaStore = nullptr;
        const suite::SuiteRunner session(options);
        for (std::size_t i = 0; i < kExploreOraclePairs && i < pairs.size();
             ++i) {
            const PairResult r = session.runPair(pairs[i]);
            out.rows[point.label + "|" + r.name] = pairRow(r);
        }
    }
}

// ---------------------------------------------------------------------
// corun_quartets
// ---------------------------------------------------------------------

/** Groups of the co-run campaign rerun by the oracle. */
constexpr std::size_t kCorunOracleGroups = 2;

struct CorunSetup
{
    std::unique_ptr<suite::TraceArenaStore> store;
    corun::CorunOptions options;
    std::vector<corun::CorunGroup> groups;
    std::unique_ptr<corun::CorunRunner> runner;
    std::unique_ptr<corun::CorunStore> journal;
};

corun::CorunOptions
corunOptions(const Args &args)
{
    corun::CorunOptions options;
    options.sampleOps = args.sample ? args.sample : 1'000'000;
    options.warmupOps = args.warmup ? args.warmup : 300'000;
    options.chunkOps = 10'000;
    options.seed = args.seed;
    options.size = InputSize::Ref;
    options.jobs = 2;
    return options;
}

std::vector<corun::CorunGroup>
corunGroups(const corun::CorunOptions &options)
{
    corun::PlanOptions plan;
    plan.apps.assign(std::begin(kCorunApps), std::end(kCorunApps));
    plan.groupSize = 4;
    plan.l3Ways = options.system.hierarchy.l3.assoc;
    return corun::planGroups(workloads::cpu2017Suite(), plan);
}

std::unique_ptr<CorunSetup>
makeCorun(const Args &args)
{
    auto setup = std::make_unique<CorunSetup>();
    setup->store =
        std::make_unique<suite::TraceArenaStore>(kArenaBudgetBytes);
    setup->options = corunOptions(args);
    setup->options.arenaStore = setup->store.get();
    setup->groups = corunGroups(setup->options);
    setup->runner = std::make_unique<corun::CorunRunner>(setup->options);
    setup->journal = std::make_unique<corun::CorunStore>("");
    return setup;
}

void
finishCorun(const CorunSetup &setup,
            const std::vector<corun::CorunResult> &results, Outcome &out)
{
    std::uint64_t digest = fnv1a("corun");
    double l3_misses = 0.0, inflicted = 0.0, speedup = 0.0, occupancy = 0.0;
    for (std::size_t g = 0; g < results.size(); ++g) {
        const std::string row = corun::serializeCorunRow(results[g]);
        digest = fnv1a(row + "\n", digest);
        if (g < kCorunOracleGroups)
            out.rows[results[g].name] = row;
        double group_occupancy = 0.0;
        for (const corun::MemberResult &m : results[g].members) {
            l3_misses += double(m.l3Misses);
            inflicted += double(m.evictionsInflicted);
            group_occupancy += double(m.occupancyLines);
        }
        occupancy = std::max(occupancy, group_occupancy);
        speedup += results[g].throughput();
    }
    out.digest = hex16(digest);
    out.attempted = results.size();
    out.counts["sim.l3_misses"] = l3_misses;
    out.counts["corun.evictions_inflicted"] = inflicted;
    out.counts["corun.weighted_speedup_mean"] =
        results.empty() ? 0.0 : speedup / double(results.size());
    out.counts["corun.l3_occupancy_lines_max"] = occupancy;
    addStoreCounts(*setup.store, out.counts);
}

void
runCorunPlain(const Args &args, Outcome &out)
{
    const auto setup = makeCorun(args);
    out.setupS = sinceStart();
    const Clock::time_point start = Clock::now();
    const auto results = setup->journal->runOrLoad(*setup->runner,
                                                   setup->groups);
    out.campaignS = seconds(start);
    out.peakRssMb = peakRssMb();
    finishCorun(*setup, results, out);
}

/** The trace parameters CorunRunner gives @p profile on context
 *  @p context (its member lowering): the trace seed depends only on
 *  the root seed and the app, the context shifts the address space.
 *  corunParamsMatch() checks it against the runner's own lowering. */
trace::SyntheticTraceParams
corunMemberParams(const corun::CorunOptions &options,
                  const WorkloadProfile &profile, unsigned context)
{
    AppInputPair pair;
    pair.profile = &profile;
    pair.size = options.size;
    workloads::BuildOptions build;
    build.sampleOps = options.sampleOps + options.warmupOps;
    build.seed = deriveSeed(options.seed, "corun-trace");
    trace::SyntheticTraceParams params =
        workloads::buildTraceParams(pair, build, 0);
    params.addressOffset = std::uint64_t(context) * 8 * kGiB;
    return params;
}

/** True when a runner whose store already holds corunMemberParams'
 *  arenas for a small two-member group (members on contexts 0 and 1,
 *  solos on context 0) captures nothing more while running it. */
bool
corunParamsMatch(corun::CorunOptions options,
                 const corun::CorunGroup &group)
{
    suite::TraceArenaStore store(kArenaBudgetBytes);
    options.sampleOps = 1000;
    options.warmupOps = 1000;
    options.arenaStore = &store;
    corun::CorunGroup probe;
    probe.members = {group.members[0], group.members[1]};
    store.acquire(corunMemberParams(options, *probe.members[0], 0));
    store.acquire(corunMemberParams(options, *probe.members[1], 1));
    store.acquire(corunMemberParams(options, *probe.members[1], 0));
    corun::CorunRunner(options).runGroup(probe);
    return store.stats().captures == 3;
}

void
runCorunTraced(const Args &args, Outcome &out, Tracer &tracer)
{
    const auto setup = makeCorun(args);
    out.setupS = sinceStart();
    const corun::CorunRunner &runner = *setup->runner;
    suite::TraceArenaStore &store = *setup->store;
    const unsigned jobs = setup->options.jobs;

    // Solo baselines first: each app's context-0 trace is acquired
    // (timed), then CorunRunner::soloCycles simulates it and memoizes
    // the cycles. Then each group runs through runGroup, with its
    // members' traces acquired just before; the solos are memo hits.
    std::vector<const WorkloadProfile *> apps;
    for (const corun::CorunGroup &group : setup->groups)
        for (const WorkloadProfile *app : group.members)
            if (std::find(apps.begin(), apps.end(), app) == apps.end())
                apps.push_back(app);

    std::mutex mutex; // guards the fields below
    ResidentPeak resident;
    double ops = 0.0;
    double simulations = 0.0;
    const auto acquire = [&](const WorkloadProfile &app, unsigned context,
                             long item) {
        trace::SyntheticTraceParams params;
        {
            Tracer::Scope span(tracer, "trace.gen_ctor", item);
            params = corunMemberParams(setup->options, app, context);
        }
        Tracer::Scope span(tracer, "arena.acquire", item);
        const double n = double(store.acquire(params)->numOps);
        std::lock_guard<std::mutex> lock(mutex);
        resident.sample(store);
        ops += n;
        ++simulations;
    };

    std::vector<corun::CorunResult> results;
    int campaign = -1;
    {
        Tracer::Scope campaign_span(tracer, "campaign");
        campaign = campaign_span.id();
        {
            Tracer::Scope solos(tracer, "corun.solos");
            suite::runOrderedPool<double>(
                apps.size(), jobs,
                [&](std::size_t i) {
                    Tracer::Scope item(tracer, "corun.solo_item", long(i),
                                       solos.id());
                    acquire(*apps[i], 0, long(i));
                    Tracer::Scope span(tracer, "corun.solo", long(i));
                    return runner.soloCycles(*apps[i]);
                },
                [](double, std::size_t) {});
        }
        Tracer::Scope pool(tracer, "pool");
        results = suite::runOrderedPool<corun::CorunResult>(
            setup->groups.size(), jobs,
            [&](std::size_t i) {
                const corun::CorunGroup &group = setup->groups[i];
                Tracer::Scope item(tracer, "corun.item", long(i), pool.id());
                for (unsigned c = 0; c < group.members.size(); ++c)
                    acquire(*group.members[c], c, long(i));
                Tracer::Scope span(tracer, "corun.group", long(i));
                return runner.runGroup(group);
            },
            [](const corun::CorunResult &, std::size_t) {});
    }
    out.campaignS = tracer.spans()[std::size_t(campaign)].seconds();
    out.peakRssMb = peakRssMb();
    finishCorun(*setup, results, out);
    if (!corunParamsMatch(setup->options, setup->groups.front()))
        ++out.failed; // the harness timed captures the runner never reads

    const std::vector<Span> spans = tracer.spans();
    addCommonLayers(spans, campaign, {"corun.solo_item", "corun.item"},
                    {"corun.solos", "pool"}, jobs,
                    {"corun.solo", "corun.group"}, ops, simulations, out);
    std::map<std::string, double> &layers = out.layers;
    layers["arena.resident_peak_mb"] = resident.mb();
    layers["corun.solo_s"] = spanTotal(spans, "corun.solo");
    layers["corun.groups_s"] = spanTotal(spans, "corun.group");
    layers["corun.group_p50_ms"] =
        quantile(spanDurationsMs(spans, "corun.group"), 0.5);
    // Pool tail: how long the group phase ran with a worker idle.
    std::int64_t phase_end = 0;
    std::map<unsigned, std::int64_t> last_end;
    for (const Span &span : spans) {
        if (span.name == "pool")
            phase_end = span.endNs;
        if (span.name == "corun.item")
            last_end[span.thread] =
                std::max(last_end[span.thread], span.endNs);
    }
    std::int64_t first_idle = phase_end;
    for (const auto &[thread, end] : last_end)
        first_idle = std::min(first_idle, end);
    layers["pool.tail_s"] = double(phase_end - first_idle) * 1e-9;
}

void
runCorunOracle(const Args &args, Outcome &out)
{
    const corun::CorunOptions options = corunOptions(args);
    const corun::CorunRunner reference(options);
    const auto groups = corunGroups(options);
    for (std::size_t g = 0; g < kCorunOracleGroups && g < groups.size();
         ++g) {
        const corun::CorunResult r = reference.runGroup(groups[g]);
        out.rows[r.name] = corun::serializeCorunRow(r);
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

template <typename Map, typename Format>
std::string
jsonObject(const Map &map, Format format)
{
    std::string out = "{";
    for (const auto &[key, value] : map)
        out += (out.size() > 1 ? "," : "") + jsonString(key) + ":"
            + format(value);
    return out + "}";
}

void
printOutcome(const Args &args, const Outcome &out)
{
    const std::map<std::string, std::string> host = {
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"compiler", SPEC17_E2E_COMPILER},
        {"build_type", SPEC17_E2E_BUILD_TYPE},
        {"git_commit", SPEC17_E2E_GIT_COMMIT},
    };
    std::cout << "{\"workload\":" << jsonString(args.workload)
              << ",\"mode\":" << jsonString(args.mode)
              << ",\"seed\":" << args.seed
              << ",\"setup_s\":" << jsonNumber(out.setupS)
              << ",\"campaign_s\":" << jsonNumber(out.campaignS)
              << ",\"peak_rss_mb\":" << jsonNumber(out.peakRssMb)
              << ",\"attempted\":" << out.attempted
              << ",\"failed\":" << out.failed
              << ",\"digest\":" << jsonString(out.digest)
              << ",\"rows\":" << jsonObject(out.rows, jsonString)
              << ",\"counts\":" << jsonObject(out.counts, jsonNumber)
              << ",\"layers\":" << jsonObject(out.layers, jsonNumber)
              << ",\"host\":" << jsonObject(host, jsonString) << "}"
              << std::endl;
}

std::uint64_t
parseUint(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    const unsigned long long value = std::stoull(text, &used, 0);
    if (used != text.size())
        throw std::invalid_argument("bad value for " + flag + ": " + text);
    return value;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            throw std::invalid_argument("expected --flag=value, got " + arg);
        const std::string key = arg.substr(2, eq - 2);
        const std::string value = arg.substr(eq + 1);
        if (key == "workload")
            args.workload = value;
        else if (key == "mode")
            args.mode = value;
        else if (key == "seed")
            args.seed = parseUint(key, value);
        else if (key == "work-dir")
            args.workDir = value;
        else if (key == "trace-out")
            args.traceOut = value;
        else if (key == "sample")
            args.sample = parseUint(key, value);
        else if (key == "warmup")
            args.warmup = parseUint(key, value);
        else
            throw std::invalid_argument("unknown flag --" + key);
    }
    if (args.mode != "plain" && args.mode != "setup"
        && args.mode != "traced" && args.mode != "oracle")
        throw std::invalid_argument(
            "--mode wants plain|setup|traced|oracle");
    if (args.sample != 0 && args.sample < 1000)
        throw std::invalid_argument("--sample must be >= 1000");
    return args;
}

int
run(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    using Runner = std::function<void(const Args &, Outcome &)>;
    using TracedRunner =
        std::function<void(const Args &, Outcome &, Tracer &)>;
    // The set-up of each workload's plain mode, and nothing after it.
    const auto setupOnly = [](auto make) {
        return [make](const Args &args, Outcome &out) {
            const auto setup = make(args);
            out.setupS = sinceStart();
        };
    };
    const std::map<std::string,
                   std::tuple<Runner, TracedRunner, Runner, Runner>>
        workloads = {
            {"ref17_sweep",
             {runRef17Plain, runRef17Traced, runRef17Oracle,
              setupOnly([](const Args &a) { return makeRef17(a, false); })}},
            {"explore_fanout",
             {runExplorePlain, runExploreTraced, runExploreOracle,
              setupOnly(makeExplore)}},
            {"corun_quartets",
             {runCorunPlain, runCorunTraced, runCorunOracle,
              setupOnly(makeCorun)}},
        };
    const auto it = workloads.find(args.workload);
    if (it == workloads.end())
        throw std::invalid_argument(
            "--workload wants ref17_sweep|explore_fanout|corun_quartets");
    const auto &[plain, traced, oracle, setup] = it->second;

    Outcome out;
    if (args.mode == "plain") {
        plain(args, out);
    } else if (args.mode == "setup") {
        setup(args, out);
    } else if (args.mode == "oracle") {
        oracle(args, out);
        out.attempted = out.rows.size();
    } else {
        Tracer tracer;
        traced(args, out, tracer);
        if (!args.traceOut.empty() && !tracer.writeJsonl(args.traceOut))
            throw std::runtime_error("cannot write " + args.traceOut);
    }
    printOutcome(args, out);
    return 0;
}

} // namespace
} // namespace e2e
} // namespace spec17

int
main(int argc, char **argv)
{
    try {
        return spec17::e2e::run(argc, argv);
    } catch (const std::exception &error) {
        std::cerr << "bench_e2e: " << error.what() << "\n";
        return 1;
    }
}
