#include "tools/cli.hh"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>

#include "core/characterizer.hh"
#include "util/logging.hh"
#include "core/phase.hh"
#include "core/subset.hh"
#include "corun/analysis.hh"
#include "corun/plan.hh"
#include "corun/runner.hh"
#include "corun/store.hh"
#include "explore/plan.hh"
#include "explore/runner.hh"
#include "sim/energy.hh"
#include "sim/simulator.hh"
#include "suite/arena_store.hh"
#include "suite/journal.hh"
#include "suite/result_cache.hh"
#include "telemetry/progress.hh"
#include "telemetry/sampler.hh"
#include "telemetry/sink.hh"
#include "trace/file.hh"
#include "trace/synthetic.hh"
#include "util/table.hh"
#include "util/units.hh"
#include "workloads/builder.hh"

namespace spec17 {
namespace cli {

namespace {

using workloads::InputSize;
using workloads::SuiteGeneration;

/** Digits only (no sign, space, exponent or suffix), or nullopt. */
std::optional<std::uint64_t>
parseUint(const std::string &text)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || stop != end)
        return std::nullopt;
    return value;
}

// The resolvers below run after runCommand() has held every flag to
// its FlagSpec contract, so they map values without error paths.

SuiteGeneration
generationOf(const CommandLine &command)
{
    return command.flag("suite") == "cpu2006" ? SuiteGeneration::Cpu2006
                                              : SuiteGeneration::Cpu2017;
}

const std::vector<workloads::WorkloadProfile> &
suiteOf(SuiteGeneration generation)
{
    return generation == SuiteGeneration::Cpu2017
        ? workloads::cpu2017Suite()
        : workloads::cpu2006Suite();
}

InputSize
sizeOf(const CommandLine &command)
{
    const std::string size = command.flag("size", "ref");
    return size == "test" ? InputSize::Test
        : size == "train" ? InputSize::Train
                          : InputSize::Ref;
}

/** The non-empty cells of the comma list @p text. */
std::vector<std::string>
listOf(const std::string &text)
{
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream stream(text);
    while (std::getline(stream, cell, ','))
        if (!cell.empty())
            cells.push_back(cell);
    return cells;
}

/** The profile named @p name, or nullptr after a contained error. */
const workloads::WorkloadProfile *
profileOf(const std::vector<workloads::WorkloadProfile> &suite,
          const std::string &name, std::ostream &err)
{
    for (const auto &profile : suite)
        if (profile.name == name)
            return &profile;
    err << "error: no application named '" << name
        << "' (try: spec17 list)\n";
    return nullptr;
}

/** The pair positional[1], --suite, --size and --input name, or
 *  nullopt after a contained error. */
std::optional<workloads::AppInputPair>
pairOf(const CommandLine &command, std::ostream &err)
{
    const std::string &name = command.positional[1];
    const InputSize size = sizeOf(command);
    const workloads::WorkloadProfile *profile =
        profileOf(suiteOf(generationOf(command)), name, err);
    if (profile == nullptr)
        return std::nullopt;
    const std::uint64_t input = command.flagUint("input", 1) - 1;
    const unsigned available =
        profile->numInputs[static_cast<std::size_t>(size)];
    if (input >= available) {
        err << "error: " << name << " has " << available << " "
            << workloads::inputSizeName(size) << " inputs\n";
        return std::nullopt;
    }
    return workloads::AppInputPair{profile, size,
                                   static_cast<unsigned>(input)};
}

/** --shard, or the whole sweep (1/1) without it. */
suite::ShardSpec
shardOf(const CommandLine &command)
{
    return command.hasFlag("shard")
        ? *suite::ShardSpec::parse(command.flag("shard"))
        : suite::ShardSpec();
}

/** Progress events of a sharded campaign carry the shard label. */
telemetry::ProgressReporter::Options
progressOptionsOf(const suite::ShardSpec &shard)
{
    telemetry::ProgressReporter::Options options;
    if (shard.active())
        options.shardLabel = shard.label();
    return options;
}

/**
 * Applies --no-cache, --resume, --shard and --progress to the options
 * of a suite sweep (characterize, explore). Returns the reporter the
 * progress observer writes to; it must outlive the sweep.
 */
template <typename Options>
std::unique_ptr<telemetry::ProgressReporter>
applySweepFlags(const CommandLine &command, Options &options)
{
    if (command.hasFlag("no-cache"))
        options.cachePath.clear();
    options.resume = command.hasFlag("resume");
    options.shard = shardOf(command);
    auto progress = std::make_unique<telemetry::ProgressReporter>(
        progressOptionsOf(options.shard));
    if (command.hasFlag("progress"))
        options.pairObserver = [reporter = progress.get()](
                                   const suite::PairResult &result,
                                   std::size_t index, std::size_t total) {
            reporter->onItemDone(
                result.name, index, total,
                result.counters.get(counters::PerfEvent::InstRetiredAny),
                result.attempts, result.errored, result.replayed);
        };
    return progress;
}

suite::RunnerOptions
runnerOptionsOf(const CommandLine &command)
{
    // Every "N" flag fits in 32 bits (see contractError).
    const auto narrow = [&command](const char *key, unsigned fallback) {
        return static_cast<unsigned>(command.flagUint(key, fallback));
    };
    suite::RunnerOptions options;
    options.sampleOps = command.flagUint("sample", 1'000'000);
    options.warmupOps = command.flagUint("warmup", 300'000);
    sim::SystemConfig &system = options.system;
    system.branchPredictor =
        command.flag("predictor", system.branchPredictor);
    // Microarchitecture-mechanism knobs (all config-key members; see
    // docs/uarch.md).
    sim::HierarchyConfig &hierarchy = system.hierarchy;
    hierarchy.prefetcher = command.flag("prefetcher", hierarchy.prefetcher);
    hierarchy.l2Prefetcher =
        command.flag("l2-prefetcher", hierarchy.l2Prefetcher);
    if (command.hasFlag("way-predictor"))
        hierarchy.l1d.wayPredictor =
            sim::wayPredictorFromName(command.flag("way-predictor"));
    hierarchy.l1d.wayMispredictPenalty =
        narrow("way-penalty", hierarchy.l1d.wayMispredictPenalty);
    hierarchy.streamDegree = narrow("stream-degree", hierarchy.streamDegree);
    hierarchy.streamDistance =
        narrow("stream-distance", hierarchy.streamDistance);
    system.tage.historyTables =
        narrow("tage-tables", system.tage.historyTables);
    options.maxRetries = narrow("retries", 0);
    options.pairDeadlineOps = command.flagUint("pair-deadline", 0);
    options.pairDeadlineMs = command.flagUint("pair-deadline-ms", 0);
    options.retryBackoffMs = command.flagUint("retry-backoff-ms", 0);
    options.sampleIntervalOps =
        command.flagUint("sample-interval-ops", 0);
    options.jobs = narrow("jobs", 1);
    // Lane knobs (results-invariant; excluded from the config key).
    options.batchOps = command.flagUint("batch-ops", 0);
    options.unbatchedStepping = command.hasFlag("unbatched-stepping");
    return options;
}

/**
 * Builds the trace arena store for --trace-arena-mb (default 512 MiB;
 * 0 disables capture/replay), or nullptr when disabled. The caller
 * owns the store and must keep it alive for the runners' lifetime.
 * Whether a store is attached never changes result bytes (replay is
 * draw-for-draw identical to generation), so none of these knobs
 * enter result-cache config keys.
 */
std::unique_ptr<suite::TraceArenaStore>
arenaStoreOf(const CommandLine &command)
{
    const std::uint64_t budget_mb =
        command.flagUint("trace-arena-mb", 512);
    if (budget_mb == 0)
        return nullptr;
    return std::make_unique<suite::TraceArenaStore>(
        budget_mb * kMiB, command.flag("arena-spill-dir", ""));
}

/**
 * Builds the file sink for --telemetry-out, or nullptr when the flag
 * is absent. The caller owns the sink and must keep it alive for the
 * runner's lifetime.
 */
std::unique_ptr<telemetry::FileSink>
telemetrySinkOf(const CommandLine &command)
{
    if (!command.hasFlag("telemetry-out"))
        return nullptr;
    if (command.flagUint("sample-interval-ops", 0) == 0) {
        warn("--telemetry-out without --sample-interval-ops "
             "produces no series");
    }
    return std::make_unique<telemetry::FileSink>(
        command.flag("telemetry-out"),
        command.flag("telemetry-format") == "jsonl"
            ? telemetry::FileSink::Format::Jsonl
            : telemetry::FileSink::Format::Csv);
}

/**
 * Tabulates pairs that errored or needed retries -- the equivalent of
 * the paper's "benchmarks excluded from aggregate analysis" note,
 * plus recovered transients so flaky sweeps are visible.
 */
void
renderFailureSummary(const std::vector<const suite::PairResult *>
                         &affected,
                     std::ostream &out)
{
    if (affected.empty())
        return;
    TextTable table({"pair", "status", "attempts", "category",
                     "ops done", "last failure"});
    for (const auto *result : affected) {
        const suite::FailureRecord *last =
            result->failures.empty() ? nullptr
                                     : &result->failures.back();
        table.addRow({result->name,
                      result->errored
                          ? (result->failures.empty()
                                 ? "errored-in-paper" : "errored")
                          : "recovered",
                      std::to_string(result->attempts),
                      last ? failureCategoryName(last->category) : "-",
                      last ? fmtCount(last->opsCompleted) : "-",
                      last ? last->message : "-"});
    }
    out << "\nfailure summary (" << affected.size()
        << " pair(s) errored or retried; errored pairs are excluded "
           "from aggregates):\n";
    table.render(out);
}

int
cmdConfig(const CommandLine &command, std::ostream &out, std::ostream &)
{
    out << runnerOptionsOf(command).system.describe();
    return 0;
}

int
cmdList(const CommandLine &command, std::ostream &out, std::ostream &)
{
    const InputSize size = sizeOf(command);
    const auto &suite = suiteOf(generationOf(command));

    TextTable table({"pair", "mini-suite", "language", "threads",
                     "instr (B)", "RSS", "status"});
    const auto pairs = enumeratePairs(suite, size);
    for (const auto &pair : pairs) {
        const auto &profile = *pair.profile;
        table.addRow({pair.displayName(),
                      workloads::suiteKindName(profile.suite),
                      profile.language,
                      std::to_string(profile.numThreads),
                      fmtDouble(profile.instrBillions(size), 1),
                      fmtBytes(profile.rssMiB(size) * double(kMiB)),
                      profile.isErrored(size, pair.inputIndex)
                          ? "errored-in-paper"
                          : "ok"});
    }
    table.render(out);
    out << pairs.size() << " application-input pairs\n";
    return 0;
}

int
cmdStat(const CommandLine &command, std::ostream &out,
        std::ostream &err)
{
    const auto pair = pairOf(command, err);
    if (!pair)
        return 2;

    suite::RunnerOptions runner_options = runnerOptionsOf(command);
    const auto sink = telemetrySinkOf(command);
    runner_options.telemetrySink = sink.get();
    const auto arena_store = arenaStoreOf(command);
    runner_options.arenaStore = arena_store.get();
    suite::SuiteRunner runner(runner_options);
    const auto result = runner.runPair(*pair);

    out << "perf-style counters for " << result.name << " ("
        << workloads::inputSizeName(pair->size) << "):\n";
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
        const auto event = static_cast<counters::PerfEvent>(e);
        out << "  " << fmtCount(result.counters.get(event)) << "\t"
            << counters::perfEventName(event) << "\n";
    }
    const auto metrics = core::deriveMetrics(result);
    out << "\n  IPC " << fmtDouble(metrics.ipc, 3) << ", mispredict "
        << fmtDouble(metrics.mispredictPct, 2) << "%, L1/L2/L3 miss "
        << fmtDouble(metrics.l1MissPct, 2) << "/"
        << fmtDouble(metrics.l2MissPct, 2) << "/"
        << fmtDouble(metrics.l3MissPct, 2) << "%\n";
    const auto energy = sim::computeEnergy(
        result.counters,
        double(result.counters.get(
            counters::PerfEvent::CpuClkUnhaltedRefTsc)));
    out << "  energy (model): "
        << fmtDouble(energy.epiNj(double(result.counters.get(
               counters::PerfEvent::InstRetiredAny))), 2)
        << " nJ/instr, DRAM share "
        << fmtDouble(100.0 * energy.dramJ / energy.totalJ(), 1)
        << "%\n";
    out << "  estimated native run: " << fmtDouble(metrics.seconds, 1)
        << " s for " << fmtDouble(metrics.instrBillions, 1)
        << " billion instructions\n";
    if (result.series) {
        // The first phase-behaviour signal: how much interval IPC
        // wobbles over the measured window.
        out << "  telemetry: " << result.series->numIntervals()
            << " interval(s) of "
            << fmtCount(result.series->intervalOps)
            << " ops, interval IPC CoV "
            << fmtDouble(telemetry::coefficientOfVariation(
                             *result.series, "ipc"),
                         3)
            << "\n";
        if (sink)
            out << "  telemetry series written to "
                << sink->pathFor(result.name) << "\n";
    }
    return 0;
}

int
cmdEvents(const CommandLine &, std::ostream &out, std::ostream &)
{
    // The paper generates its candidate counter list with
    // `perf list`; this is the simulated equivalent.
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
        out << counters::perfEventName(
            static_cast<counters::PerfEvent>(e))
            << "\n";
    }
    return 0;
}

int
cmdValidate(const CommandLine &command, std::ostream &out, std::ostream &)
{
    const auto &suite = suiteOf(generationOf(command));
    suite::RunnerOptions options = runnerOptionsOf(command);
    // Calibration checks need less precision than the study runs.
    options.sampleOps = command.flagUint("sample", 400'000);
    options.warmupOps = command.flagUint("warmup", 150'000);
    suite::SuiteRunner runner(options);

    const double tolerance_pp =
        double(command.flagUint("tolerance", 12));
    TextTable table({"application", "L1m% tgt/got", "L2m% tgt/got",
                     "L3m% tgt/got", "misp% tgt/got", "worst dev"});
    int failures = 0;
    for (const auto &profile : suite) {
        const auto result = runner.runPair(
            {&profile, InputSize::Ref, 0});
        const auto metrics = core::deriveMetrics(result);
        const double targets[4] = {
            100.0 * profile.memory.l1MissRate,
            100.0 * profile.memory.l2MissRate,
            100.0 * profile.memory.l3MissRate,
            100.0 * profile.branches.mispredictRate,
        };
        const double got[4] = {metrics.l1MissPct, metrics.l2MissPct,
                               metrics.l3MissPct,
                               metrics.mispredictPct};
        double worst = 0.0;
        for (int i = 0; i < 4; ++i)
            worst = std::max(worst, std::abs(got[i] - targets[i]));
        failures += worst > tolerance_pp;
        auto cell = [&](int i) {
            return fmtDouble(targets[i], 1) + " / "
                + fmtDouble(got[i], 1);
        };
        table.addRow({profile.name, cell(0), cell(1), cell(2),
                      cell(3),
                      fmtDouble(worst, 1)
                          + (worst > tolerance_pp ? " !" : "")});
    }
    table.render(out);
    out << failures << " of " << suite.size()
        << " applications deviate more than " << tolerance_pp
        << "pp from their profile targets\n";
    return command.hasFlag("strict") && failures > 0 ? 1 : 0;
}

int
cmdRecord(const CommandLine &command, std::ostream &out,
          std::ostream &err)
{
    const auto pair = pairOf(command, err);
    if (!pair)
        return 2;
    const std::string path = command.flag(
        "out", pair->displayName() + "." + inputSizeName(pair->size)
                   + ".s17t");
    workloads::BuildOptions build;
    build.sampleOps = command.flagUint("sample", 1'000'000);
    trace::SyntheticTraceGenerator source(
        workloads::buildTraceParams(*pair, build, 0));
    const std::uint64_t written = trace::writeTrace(path, source);
    out << "wrote " << fmtCount(written) << " micro-ops to " << path
        << "\n";
    return 0;
}

int
cmdReplay(const CommandLine &command, std::ostream &out, std::ostream &)
{
    trace::FileTrace source(command.positional[1]);
    sim::CpuSimulator simulator(runnerOptionsOf(command).system);
    const sim::SimResult result = simulator.run(source);

    out << "replayed " << fmtCount(source.size())
        << " micro-ops from " << command.positional[1] << "\n";
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
        const auto event = static_cast<counters::PerfEvent>(e);
        out << "  " << fmtCount(result.counters.get(event)) << "\t"
            << counters::perfEventName(event) << "\n";
    }
    out << "\n  IPC " << fmtDouble(result.ipc(), 3) << " over "
        << fmtDouble(result.cycles, 0) << " cycles\n";
    return 0;
}

int
cmdCharacterize(const CommandLine &command, std::ostream &out,
                std::ostream &err)
{
    const SuiteGeneration generation = generationOf(command);
    const InputSize size = sizeOf(command);

    core::CharacterizerOptions options;
    options.runner = runnerOptionsOf(command);
    const auto sink = telemetrySinkOf(command);
    options.runner.telemetrySink = sink.get();
    const auto arena_store = arenaStoreOf(command);
    options.runner.arenaStore = arena_store.get();
    const auto progress = applySweepFlags(command, options);
    core::Characterizer session(options);
    std::vector<core::Metrics> metrics;
    try {
        metrics = session.metrics(generation, size);
    } catch (const suite::JournalConfigMismatchError &e) {
        // A --resume against another campaign's journal: refusing is
        // the whole point -- replaying it would silently splice two
        // configurations into one result set.
        err << "error: " << e.what() << "\n";
        return 2;
    }

    // With sampling enabled, surface the per-pair interval-IPC
    // coefficient of variation (series exist only for pairs actually
    // simulated this session; cache replays show "-").
    const bool sampled = options.runner.sampleIntervalOps > 0;
    std::map<std::string, double> ipc_cov;
    if (sampled) {
        for (const auto &result : session.results(generation, size)) {
            if (result.series) {
                ipc_cov[result.name] =
                    telemetry::coefficientOfVariation(*result.series,
                                                      "ipc");
            }
        }
    }

    std::vector<std::string> header = {"pair", "IPC", "ld%", "st%",
                                       "br%", "L1m%", "L2m%", "L3m%",
                                       "misp%", "RSS GiB", "time s"};
    if (sampled)
        header.push_back("IPC CoV");
    TextTable table(header);
    for (const auto &m : metrics) {
        if (m.errored)
            continue;
        std::vector<std::string> row = {m.name, fmtDouble(m.ipc, 3),
                      fmtDouble(m.loadPct, 2),
                      fmtDouble(m.storePct, 2),
                      fmtDouble(m.branchPct, 2),
                      fmtDouble(m.l1MissPct, 2),
                      fmtDouble(m.l2MissPct, 2),
                      fmtDouble(m.l3MissPct, 2),
                      fmtDouble(m.mispredictPct, 2),
                      fmtDouble(m.rssGiB, 3),
                      fmtDouble(m.seconds, 1)};
        if (sampled) {
            row.push_back(ipc_cov.count(m.name)
                              ? fmtDouble(ipc_cov[m.name], 3)
                              : "-");
        }
        table.addRow(row);
    }
    if (command.hasFlag("csv")) {
        table.renderCsv(out);
    } else {
        table.render(out);
        renderFailureSummary(session.failures(generation, size), out);
    }
    return 0;
}

/** Demo subset for co-run sweeps when --apps is absent: two memory
 *  bullies (mcf, lbm) against two cache-light apps (leela,
 *  exchange2), the smallest set that shows the full sensitivity/
 *  aggressiveness spread. */
const char *const kCorunDemoApps =
    "505.mcf_r,519.lbm_r,541.leela_r,548.exchange2_r";

int
cmdCorun(const CommandLine &command, std::ostream &out,
         std::ostream &err)
{
    const InputSize size = sizeOf(command);
    const auto &suite = workloads::cpu2017Suite();

    // Resolve the application subset with contained errors: a typo'd
    // or threaded (speed) app is a usage error, not a panic.
    const std::vector<std::string> apps =
        listOf(command.flag("apps", kCorunDemoApps));
    for (const std::string &name : apps) {
        const workloads::WorkloadProfile *profile =
            profileOf(suite, name, err);
        if (profile == nullptr)
            return 2;
        if (profile->numThreads != 1) {
            err << "error: " << name << " runs "
                << profile->numThreads
                << " threads; co-run groups take single-threaded "
                   "(rate) applications\n";
            return 2;
        }
    }

    corun::CorunOptions options;
    options.sampleOps = command.flagUint("sample", 300'000);
    options.warmupOps = command.flagUint("warmup", 100'000);
    options.chunkOps = command.flagUint("corun-chunk", 10'000);
    options.size = size;
    const suite::RunnerOptions runner_options = runnerOptionsOf(command);
    options.system = runner_options.system;
    options.jobs = runner_options.jobs;
    const auto arena_store = arenaStoreOf(command);
    options.arenaStore = arena_store.get();

    corun::PlanOptions plan;
    plan.apps = apps;
    plan.groupSize = command.hasFlag("quartets") ? 4 : 2;
    plan.includeSelf = !command.hasFlag("no-self");
    plan.partitionSweep = command.hasFlag("partition");
    plan.l3Ways = options.system.hierarchy.l3.assoc;
    if (apps.size() < (plan.groupSize == 2 && plan.includeSelf
                           ? 1u
                           : plan.groupSize)) {
        err << "error: " << apps.size()
            << " application(s) cannot form groups of "
            << plan.groupSize << "\n";
        return 2;
    }
    const std::vector<corun::CorunGroup> groups =
        corun::planGroups(suite, plan);

    corun::CorunRunner runner(options);
    corun::CorunStore store(command.hasFlag("no-cache")
                                ? ""
                                : suite::ResultCache::defaultPath(),
                            command.hasFlag("resume"));
    const suite::ShardSpec shard = shardOf(command);
    store.setShard(shard);

    telemetry::ProgressReporter progress(progressOptionsOf(shard));
    corun::CorunRunner::GroupObserver observer;
    if (command.hasFlag("progress")) {
        observer = [&progress](const corun::CorunResult &result,
                               std::size_t index, std::size_t total) {
            std::uint64_t ops = 0;
            for (const auto &member : result.members)
                ops += member.instructions;
            progress.onItemDone(result.name, index, total, ops, 1,
                                false, result.replayed);
        };
    }

    std::vector<corun::CorunResult> results;
    try {
        results = store.runOrLoad(runner, groups, observer);
    } catch (const suite::JournalConfigMismatchError &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    if (command.hasFlag("export-jsonl")) {
        const std::string path = command.flag("export-jsonl");
        std::ofstream jsonl(path, std::ios::trunc | std::ios::binary);
        if (!jsonl) {
            err << "error: cannot write " << path << "\n";
            return 1;
        }
        jsonl.precision(17);
        for (const auto &result : results) {
            jsonl << "{\"group\":\"" << result.name << "\","
                  << "\"partition\":";
            if (result.masks.empty())
                jsonl << "null";
            else
                jsonl << "\"" << corun::maskSetLabel(result.masks)
                      << "\"";
            jsonl << ",\"throughput\":" << result.throughput()
                  << ",\"worst_slowdown\":" << result.worstSlowdown()
                  << ",\"members\":[";
            for (std::size_t c = 0; c < result.members.size(); ++c) {
                const auto &m = result.members[c];
                jsonl << (c == 0 ? "" : ",") << "{\"app\":\"" << m.name
                      << "\",\"slowdown\":" << m.slowdown()
                      << ",\"cycles\":" << m.cycles
                      << ",\"solo_cycles\":" << m.soloCycles
                      << ",\"instructions\":" << m.instructions
                      << ",\"l3_hits\":" << m.l3Hits
                      << ",\"l3_misses\":" << m.l3Misses
                      << ",\"evictions_inflicted\":"
                      << m.evictionsInflicted
                      << ",\"evictions_suffered\":"
                      << m.evictionsSuffered
                      << ",\"occupancy_lines\":" << m.occupancyLines
                      << "}";
            }
            jsonl << "]}\n";
        }
        out << "wrote " << results.size() << " group record(s) to "
            << path << "\n";
    }

    // Member-level breakdown of the free-for-all groups (partitioned
    // variants feed the Pareto table below instead).
    TextTable member_table({"group", "member", "slowdown", "IPC",
                            "L3 miss%", "ev. suffered",
                            "ev. inflicted", "L3 lines"});
    for (const auto &result : results) {
        if (!result.masks.empty())
            continue;
        for (const auto &m : result.members) {
            const std::uint64_t l3_acc = m.l3Hits + m.l3Misses;
            member_table.addRow(
                {result.name, m.name, fmtDouble(m.slowdown(), 3),
                 fmtDouble(m.ipc(), 3),
                 l3_acc > 0 ? fmtDouble(100.0 * double(m.l3Misses)
                                            / double(l3_acc),
                                        1)
                            : "-",
                 fmtCount(m.evictionsSuffered),
                 fmtCount(m.evictionsInflicted),
                 fmtCount(m.occupancyLines)});
        }
    }
    if (command.hasFlag("csv")) {
        member_table.renderCsv(out);
        return 0;
    }
    out << "co-run interference (" << results.size() << " group(s), "
        << workloads::inputSizeName(size) << "):\n";
    member_table.render(out);

    const corun::SlowdownMatrix matrix = corun::buildMatrix(results);
    if (!matrix.apps.empty() && plan.groupSize == 2) {
        std::vector<std::string> header = {"victim \\ aggressor"};
        header.insert(header.end(), matrix.apps.begin(),
                      matrix.apps.end());
        TextTable matrix_table(header);
        for (std::size_t v = 0; v < matrix.apps.size(); ++v) {
            std::vector<std::string> row = {matrix.apps[v]};
            for (std::size_t a = 0; a < matrix.apps.size(); ++a)
                row.push_back(matrix.slowdown[v][a] > 0.0
                                  ? fmtDouble(matrix.slowdown[v][a], 3)
                                  : "-");
            matrix_table.addRow(row);
        }
        out << "\nslowdown matrix (co-run cycles / solo cycles):\n";
        matrix_table.render(out);

        std::vector<corun::AppScore> scores =
            corun::scoreApps(matrix);
        std::sort(scores.begin(), scores.end(),
                  [](const corun::AppScore &a,
                     const corun::AppScore &b) {
                      return a.sensitivity > b.sensitivity;
                  });
        TextTable score_table(
            {"application", "sensitivity", "aggressiveness"});
        for (const auto &score : scores)
            score_table.addRow({score.app,
                                fmtDouble(score.sensitivity, 3),
                                fmtDouble(score.aggressiveness, 3)});
        out << "\ninterference scores (mean slowdown suffered / "
               "inflicted):\n";
        score_table.render(out);
    }

    if (plan.partitionSweep) {
        const std::vector<corun::ParetoRow> pareto =
            corun::paretoTable(results);
        TextTable pareto_table({"pair", "partition", "throughput",
                                "worst slowdown", "Pareto"});
        for (const auto &row : pareto)
            pareto_table.addRow({row.pair, row.partition,
                                 fmtDouble(row.throughput, 3),
                                 fmtDouble(row.worstSlowdown, 3),
                                 row.dominated ? "" : "*"});
        out << "\nCAT way-partition Pareto sweep (* = "
               "non-dominated within its pair):\n";
        pareto_table.render(out);
    }
    return 0;
}

/** Renders the explorer's Pareto table into @p table. */
void
renderExploreTable(const std::vector<explore::PointResult> &results,
                   TextTable &table)
{
    for (const auto &r : results) {
        table.addRow({r.point.axis, r.point.label,
                      fmtDouble(r.sse, 3),
                      fmtDouble(r.point.costBits, 0),
                      fmtDouble(r.meanIpc, 3),
                      std::to_string(r.pairs),
                      std::to_string(r.errored),
                      r.dominated ? "" : (r.knee ? "knee" : "*")});
    }
}

int
cmdExplore(const CommandLine &command, std::ostream &out,
           std::ostream &err)
{
    // Plan shape: --axis sweeps one mechanism axis, --multi-axis
    // crosses (or descends) two or more axes including the geometry
    // grids. Bad shapes are contained exit-2 usage errors, caught
    // before any simulation starts.
    const std::string axis = command.flag("axis");
    const std::vector<std::string> multi = listOf(command.flag("multi-axis"));
    const std::string mode = command.flag("multi-axis-mode", "product");
    if (command.hasFlag("multi-axis")) {
        if (multi.size() < 2) {
            err << "error: --multi-axis wants two or more "
                   "comma-separated axes (use --axis for one)\n";
            return 2;
        }
        for (std::size_t i = 0; i < multi.size(); ++i) {
            if (std::count(multi.begin(), multi.end(), multi[i]) > 1) {
                err << "error: --multi-axis repeats axis '" << multi[i]
                    << "'\n";
                return 2;
            }
            if (!explore::isAxis(multi[i])
                && !explore::isGeometryAxis(multi[i])) {
                err << "error: unknown --multi-axis axis '" << multi[i]
                    << "' (want one of";
                for (const std::string &name : explore::axisNames())
                    err << " " << name;
                for (const std::string &name :
                     explore::geometryAxisNames())
                    err << " " << name;
                err << ")\n";
                return 2;
            }
        }
    } else if (!explore::isAxis(axis)) {
        err << "error: explore needs --axis=AXIS with AXIS one of";
        for (const std::string &name : explore::axisNames())
            err << " " << name;
        err << (axis.empty() ? "" : "; got '" + axis + "'") << "\n";
        return 2;
    }
    const InputSize size = sizeOf(command);

    explore::ExploreOptions options;
    options.runner = runnerOptionsOf(command);
    // Exploration trades per-pair precision for breadth, like
    // validate: the axis deltas dominate sampling noise well before
    // the study-run sample sizes.
    options.runner.sampleOps = command.flagUint("sample", 400'000);
    options.runner.warmupOps = command.flagUint("warmup", 150'000);
    const auto arena_store = arenaStoreOf(command);
    options.runner.arenaStore = arena_store.get();
    options.generation = generationOf(command);
    options.size = size;
    // A geometry grid over a mechanism the configured base disables
    // would score identical points: contained usage error, with the
    // planner's own explanation.
    for (const std::string &name : multi) {
        const std::string plan_error =
            explore::axisPlanError(name, options.runner.system);
        if (!plan_error.empty()) {
            err << "error: " << plan_error << "\n";
            return 2;
        }
    }
    const auto progress = applySweepFlags(command, options);

    explore::ExploreRunner runner(options);
    std::vector<explore::PointResult> results;
    std::vector<explore::DescentStep> descent;
    try {
        if (multi.empty()) {
            results = runner.runAxis(axis);
        } else if (mode == "product") {
            results = runner.runCross(multi);
        } else {
            descent = runner.runDescent(multi);
            // Flatten for the shared renderers; each stage keeps its
            // own Pareto marks (the axis column tells stages apart).
            for (const auto &step : descent)
                results.insert(results.end(), step.points.begin(),
                               step.points.end());
        }
    } catch (const suite::JournalConfigMismatchError &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    if (command.hasFlag("export-jsonl")) {
        const std::string path = command.flag("export-jsonl");
        std::ofstream jsonl(path, std::ios::trunc | std::ios::binary);
        if (!jsonl) {
            err << "error: cannot write " << path << "\n";
            return 1;
        }
        jsonl.precision(17);
        for (const auto &r : results) {
            jsonl << "{\"axis\":\"" << r.point.axis << "\","
                  << "\"point\":\"" << r.point.label << "\","
                  << "\"sse\":" << r.sse
                  << ",\"cost_bits\":" << r.point.costBits
                  << ",\"mean_ipc\":" << r.meanIpc
                  << ",\"pairs\":" << r.pairs
                  << ",\"errored\":" << r.errored << ",\"dominated\":"
                  << (r.dominated ? "true" : "false")
                  << ",\"knee\":" << (r.knee ? "true" : "false")
                  << "}\n";
        }
        out << "wrote " << results.size() << " point record(s) to "
            << path << "\n";
    }

    TextTable table({"axis", "point", "SSE (pp^2)", "cost (bits)",
                     "mean IPC", "pairs", "errored", "Pareto"});
    renderExploreTable(results, table);
    if (command.hasFlag("explore-out")) {
        const std::string path = command.flag("explore-out");
        std::ofstream csv(path, std::ios::trunc | std::ios::binary);
        if (!csv) {
            err << "error: cannot write " << path << "\n";
            return 1;
        }
        table.renderCsv(csv);
        out << "wrote Pareto table to " << path << "\n";
    }
    if (command.hasFlag("csv")) {
        table.renderCsv(out);
        return 0;
    }
    std::string sweep_label = axis;
    if (!multi.empty()) {
        sweep_label.clear();
        for (std::size_t i = 0; i < multi.size(); ++i)
            sweep_label += (i == 0 ? "" : "+") + multi[i];
        sweep_label +=
            mode == "descent" ? " (coordinate descent)" : " (cross)";
    }
    out << "design-space sweep of axis '" << sweep_label << "' ("
        << results.size() << " point(s), "
        << workloads::inputSizeName(size)
        << "; * = Pareto-optimal, knee = selected trade-off):\n";
    table.render(out);
    if (descent.empty()) {
        for (const auto &r : results) {
            if (r.knee) {
                out << "knee: " << r.point.label << " (SSE "
                    << fmtDouble(r.sse, 3) << ", "
                    << fmtDouble(r.point.costBits, 0) << " bits)\n";
            }
        }
    } else {
        for (std::size_t k = 0; k < descent.size(); ++k) {
            const explore::PointResult &pick =
                descent[k].points[descent[k].chosen];
            out << "descent step " << k + 1 << " (" << descent[k].axis
                << "): " << pick.point.label << " (SSE "
                << fmtDouble(pick.sse, 3) << ", "
                << fmtDouble(pick.point.costBits, 0) << " bits)\n";
        }
    }
    return 0;
}

int
cmdMerge(const CommandLine &command, std::ostream &out,
         std::ostream &err)
{
    if (!command.hasFlag("out")) {
        err << "error: merge needs --out=FILE for the merged "
               "journal\n";
        return 2;
    }
    const std::vector<std::string> paths(
        command.positional.begin() + 1, command.positional.end());
    const auto outcome = suite::mergeJournals(
        paths, command.flag("out"), command.hasFlag("allow-partial"));
    if (!outcome.ok) {
        err << "error: " << outcome.error << "\n";
        return 1;
    }
    out << "merged " << outcome.shardsMerged << " shard(s), "
        << outcome.recordsWritten << " record(s) -> "
        << command.flag("out") << "\n";
    if (outcome.recordsDropped > 0)
        out << "dropped " << outcome.recordsDropped
            << " record(s) after the first gap (--allow-partial)\n";
    return 0;
}

int
cmdFsck(const CommandLine &command, std::ostream &out, std::ostream &)
{
    const bool repair = command.hasFlag("repair");
    int bad = 0;
    for (std::size_t i = 1; i < command.positional.size(); ++i) {
        const std::string &path = command.positional[i];
        const auto scan = suite::scanJournal(path);
        if (!scan.fileOk) {
            out << path << ": cannot read\n";
            ++bad;
            continue;
        }
        if (!scan.headerOk) {
            // No trusted campaign header means no trusted content:
            // nothing --repair could keep.
            out << path << ": UNREPAIRABLE (" << scan.headerError
                << ")\n";
            ++bad;
            continue;
        }
        out << path << ": v" << scan.header.version << " config "
            << scan.header.configFingerprint << " shard "
            << scan.header.shardLabel() << ", " << scan.records.size()
            << " intact record(s)";
        if (scan.corrupt) {
            out << "; CORRUPT at record " << scan.corruptRecord
                << " (" << scan.corruptReason << ")";
            if (repair) {
                std::string error;
                if (suite::repairJournal(path, error)) {
                    out << "; repaired (damaged suffix dropped)";
                } else {
                    out << "; repair FAILED: " << error;
                    ++bad;
                }
            } else {
                ++bad;
            }
        }
        out << "\n";
    }
    return bad > 0 ? 1 : 0;
}

int
cmdSubset(const CommandLine &command, std::ostream &out,
          std::ostream &err)
{
    const std::string which = command.flag("set", "rate");
    core::CharacterizerOptions options;
    options.runner = runnerOptionsOf(command);
    if (command.hasFlag("no-cache"))
        options.cachePath.clear();
    core::Characterizer session(options);
    const auto analysis = session.redundancyFor(which == "speed");
    const std::uint64_t clusters = command.flagUint("clusters", 0);
    if (clusters > analysis.pairNames.size()) {
        err << "error: --clusters=" << clusters << " exceeds the "
            << analysis.pairNames.size() << " " << which << " pairs\n";
        return 2;
    }
    const auto subset = core::suggestSubset(
        analysis, static_cast<std::size_t>(clusters));

    out << "suggested " << which << " subset (" << subset.numClusters()
        << " of " << analysis.pairNames.size() << " pairs, "
        << fmtDouble(subset.savingPct(), 1) << "% time saved):\n";
    for (const auto &rep : subset.representatives) {
        out << "  " << rep.name << "  ("
            << fmtDouble(rep.seconds, 1) << " s)\n";
    }
    return 0;
}

int
cmdPhases(const CommandLine &command, std::ostream &out,
          std::ostream &err)
{
    const auto pair = pairOf(command, err);
    if (!pair)
        return 2;

    const auto runner_options = runnerOptionsOf(command);
    workloads::BuildOptions build;
    build.sampleOps = runner_options.sampleOps * 4;
    const trace::SyntheticTraceParams params =
        workloads::buildTraceParams(*pair, build, 0);

    core::PhaseOptions phase_options;
    phase_options.intervalOps =
        std::max<std::uint64_t>(20'000, build.sampleOps / 20);
    phase_options.warmupOps =
        command.flagUint("warmup", phase_options.intervalOps);
    if (params.numOps <= phase_options.warmupOps) {
        err << "error: --warmup=" << phase_options.warmupOps
            << " leaves none of the " << params.numOps
            << " traced micro-ops (4 x --sample) to analyze\n";
        return 2;
    }
    trace::SyntheticTraceGenerator source(params);
    const auto analysis = core::analyzePhases(
        source, runner_options.system, phase_options);

    out << "timeline: ";
    for (std::size_t label : analysis.labels)
        out << static_cast<char>('A' + label);
    out << "\n";
    for (const auto &phase : analysis.phases) {
        out << "phase " << static_cast<char>('A' + phase.id) << ": "
            << fmtDouble(100.0 * phase.weight, 1) << "% of the run, "
            << "mean IPC " << fmtDouble(phase.meanIpc, 3)
            << ", simulation point at interval "
            << phase.representative << "\n";
    }
    out << "sampled-IPC estimate " <<
        fmtDouble(analysis.sampledIpcEstimate(), 3) << " vs full "
        << fmtDouble(analysis.fullIpc(), 3) << "\n";
    return 0;
}

/** The entry of @p table named @p name, or nullptr. */
template <typename Spec>
const Spec *
named(const std::vector<Spec> &table, const std::string &name)
{
    for (const Spec &spec : table)
        if (name == spec.name)
            return &spec;
    return nullptr;
}

/** True when @p verb's handler reads flag @p flag. */
bool
reads(const VerbSpec &verb, const std::string &flag)
{
    return (" " + verb.flags + " ").find(" " + flag + " ")
        != std::string::npos;
}

/** Most positionals @p verb takes after its name: none without a
 *  `needs` text, one with it, any number when the synopsis ends in
 *  "...>" (merge, fsck). */
std::size_t
maxPositionals(const VerbSpec &verb)
{
    if (verb.needs[0] == '\0')
        return 0;
    return std::string_view(verb.synopsis).ends_with("...>")
        ? std::numeric_limits<std::size_t>::max()
        : 1;
}

/** The error for @p value breaking @p spec's contract, or "". */
std::string
contractError(const FlagSpec &spec, const std::string &value)
{
    const std::string flag = "--" + std::string(spec.name);
    const std::string contract = spec.placeholder;
    if (contract.empty())
        return value.empty() ? ""
                             : flag + " is a switch and takes no value, "
                                      "got '" + value + "'";
    if (contract == "N") {
        const auto number = parseUint(value);
        if (!number)
            return flag + " wants a number, got '" + value + "'";
        if (*number > UINT32_MAX)
            return flag + " must be at most " + std::to_string(UINT32_MAX);
        if (*number >= spec.min)
            return "";
        return spec.min == 1
            ? flag + " must be positive"
            : flag + " must be at least " + std::to_string(spec.min);
    }
    if (contract == "K/N")
        return suite::ShardSpec::parse(value)
            ? ""
            : flag + " wants K/N with 1 <= K <= N, got '" + value + "'";
    if (contract.find('|') == std::string::npos)
        return "";
    std::istringstream names(contract);
    std::string name;
    while (std::getline(names, name, '|'))
        if (name == value)
            return "";
    // --set's wording predates the generic one and is kept verbatim.
    if (flag == "--set")
        return "--set must be rate or speed";
    return "unknown " + flag + " '" + value + "' (want " + contract + ")";
}

/** The error for contradictory flags (whose values are valid), or "". */
std::string
relationError(const CommandLine &command)
{
    if (command.hasFlag("arena-spill-dir")
        && command.flagUint("trace-arena-mb", 512) == 0)
        return "--arena-spill-dir is contradictory with "
               "--trace-arena-mb=0 (trace capture/replay disabled, "
               "nothing to spill)";
    const sim::SystemConfig system = runnerOptionsOf(command).system;
    const sim::TageConfig &tage = system.tage;
    if (tage.historyTables == 0)
        return "--tage-tables=0 is contradictory (TAGE needs at least "
               "one tagged history table)";
    if (tage.historyTables > tage.maxHistoryTables())
        return "--tage-tables=" + std::to_string(tage.historyTables)
            + " exceeds the " + std::to_string(tage.maxHistoryTables())
            + " distinct TAGE history lengths (a further table would "
              "only repeat one)";
    const sim::HierarchyConfig &h = system.hierarchy;
    if (h.streamDegree > h.streamDistance)
        return "--stream-degree=" + std::to_string(h.streamDegree)
            + " is contradictory with --stream-distance="
            + std::to_string(h.streamDistance)
            + " (a burst cannot overshoot the run-ahead window)";
    if (command.hasFlag("multi-axis-mode")
        && !command.hasFlag("multi-axis"))
        return "--multi-axis-mode without --multi-axis has nothing to "
               "apply to";
    if (command.hasFlag("axis") && command.hasFlag("multi-axis"))
        return "--axis is contradictory with --multi-axis (one sweep "
               "shape per run)";
    if (command.hasFlag("partition") && command.hasFlag("quartets"))
        return "--partition sweeps pairs, not quartets";
    return "";
}

/** @p left padded to usage()'s help column (overlong: next line). */
std::string
column(std::string left)
{
    if (left.size() >= 31)
        return left + "\n" + std::string(31, ' ');
    left.resize(31, ' ');
    return left;
}

} // namespace

std::string
CommandLine::flag(const std::string &key,
                  const std::string &fallback) const
{
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
}

std::uint64_t
CommandLine::flagUint(const std::string &key,
                      std::uint64_t fallback) const
{
    const auto it = flags.find(key);
    if (it == flags.end())
        return fallback;
    const auto value = parseUint(it->second);
    if (!value)
        SPEC17_FATAL("flag --", key, " wants a number, got '",
                     it->second, "'");
    return *value;
}

bool
CommandLine::hasFlag(const std::string &key) const
{
    return flags.count(key) > 0;
}

CommandLine
parseCommandLine(int argc, const char *const *argv)
{
    CommandLine command;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0) {
            const auto eq = arg.find('=');
            if (eq == std::string::npos)
                command.flags[arg.substr(2)] = "";
            else
                command.flags[arg.substr(2, eq - 2)] =
                    arg.substr(eq + 1);
        } else {
            command.positional.push_back(arg);
        }
    }
    if (!command.positional.empty())
        command.command = command.positional.front();
    return command;
}

const std::vector<FlagSpec> &
flagTable()
{
    static const std::vector<FlagSpec> table = {
        {"suite", "cpu2017|cpu2006", "which suite (default cpu2017)",
         "common flags"},
        {"size", "test|train|ref", "input size (default ref)", "common flags"},
        {"input", "N", "1-based input index (default 1)", "common flags", 1},
        {"sample", "N", "simulated micro-ops measured per pair",
         "common flags", 1000},
        {"warmup", "N", "simulated micro-ops warmed before measuring",
         "common flags"},
        {"out", "FILE", "output path", "common flags"},
        {"help", "", "print this help", "common flags"},
        {"csv", "", "CSV output", "results and caching"},
        {"no-cache", "", "ignore the result cache", "results and caching"},
        {"export-jsonl", "FILE", "write one JSON record per group/point",
         "results and caching"},
        {"set", "rate|speed", "pair set (default rate)",
         "representative subset"},
        {"clusters", "N", "force the subset size (default: the knee)",
         "representative subset"},
        {"tolerance", "N", "allowed deviation in pp (default 12)",
         "calibration"},
        {"strict", "", "nonzero exit on deviations", "calibration"},
        {"retries", "N", "retry failed pairs up to N times",
         "fault isolation"},
        {"retry-backoff-ms", "N", "base backoff between retries (doubles per "
         "attempt)", "fault isolation"},
        {"pair-deadline", "N", "per-pair micro-op budget (deterministic "
         "watchdog)", "fault isolation"},
        {"pair-deadline-ms", "N", "per-pair wall-clock budget",
         "fault isolation"},
        {"resume", "", "resume an interrupted sweep from the journal",
         "fault isolation"},
        {"sample-interval-ops", "N", "per-pair interval series every N "
         "micro-ops (perf stat -I; 0=off)", "telemetry"},
        {"telemetry-out", "DIR", "write one series file per pair into DIR",
         "telemetry"},
        {"telemetry-format", "csv|jsonl", "series file format (default csv)",
         "telemetry"},
        {"progress", "", "throttled sweep_progress events on stderr (pair "
         "k/N, ops/s, ETA)", "telemetry"},
        {"jobs", "N", "sweep worker threads (default 1; 0=every CPU the "
         "process may run on); results are byte-identical at any N",
         "parallel execution"},
        {"batch-ops", "N", "fast-lane micro-op batch size (default 256); "
         "results are byte-identical at any N >= 1", "batched hot path", 1},
        {"unbatched-stepping", "", "per-op reference lane instead of the "
         "batched fast lane (identity debugging; slow)", "batched hot path"},
        {"shard", "K/N", "run shard K of N of the sweep; journals to a "
         "per-shard file, fuse with `spec17 merge`", "sharded campaigns"},
        {"allow-partial", "", "merge: keep the contiguous record prefix when "
         "shards are missing or partial", "sharded campaigns"},
        {"repair", "", "fsck: atomically drop the damaged suffix of corrupt "
         "journals", "sharded campaigns"},
        {"apps", "A,B,...", "applications to co-run (default: a 4-app demo "
         "subset)", "co-run interference"},
        {"quartets", "", "4-app groups instead of pairs",
         "co-run interference"},
        {"no-self", "", "skip self-pairs (two copies of one app)",
         "co-run interference"},
        {"partition", "", "sweep every contiguous CAT way split per pair "
         "(Pareto table)", "co-run interference"},
        {"corun-chunk", "N", "context-interleave granularity in micro-ops "
         "(contention semantics: part of the config key)",
         "co-run interference", 1},
        {"predictor", "static-taken|bimodal|gshare|tournament|tage", "branch "
         "direction predictor (default tournament)", "uarch mechanisms"},
        {"prefetcher", "none|next-line|stride|stream", "L1D prefetcher "
         "(default none)", "uarch mechanisms"},
        {"l2-prefetcher", "none|next-line|stride|stream", "L2 prefetcher "
         "(default none; config-key member)", "uarch mechanisms"},
        {"way-predictor", "none|mru|utag", "L1D way prediction (default none; "
         "config-key member)", "uarch mechanisms"},
        {"way-penalty", "N", "extra load cycles on a way mispredict (default "
         "2)", "uarch mechanisms"},
        {"stream-degree", "N", "stream-prefetch lines issued per trained "
         "observation (default 4)", "uarch mechanisms", 1},
        {"stream-distance", "N", "stream-prefetch run-ahead window in lines "
         "(default 16)", "uarch mechanisms"},
        {"tage-tables", "N", "TAGE tagged history tables (default 4; used "
         "with --predictor=tage)", "uarch mechanisms"},
        {"axis", "AXIS", "swept axis: "
         "predictor|prefetcher|l2-prefetcher|way-predictor",
         "design-space exploration"},
        {"multi-axis", "A,B,...", "sweep two or more axes together (mechanism "
         "axes plus tage-geometry|stream-geometry grids)",
         "design-space exploration"},
        {"multi-axis-mode", "product|descent", "cross every combination "
         "(product, default) or fold each axis's knee into the base (descent)",
         "design-space exploration"},
        {"explore-out", "FILE", "write the Pareto table as CSV",
         "design-space exploration"},
        {"trace-arena-mb", "N", "trace-arena byte budget in MiB (default 512; "
         "0 disables capture/replay); results are byte-identical either way",
         "trace capture/replay"},
        {"arena-spill-dir", "DIR", "persist captured arenas as S17A files "
         "under DIR; evicted or cross-run arenas reload instead of "
         "recapturing", "trace capture/replay"},
    };
    return table;
}

const std::vector<VerbSpec> &
verbTable()
{
    // Flag sets several verbs read; each ends in a space so they
    // concatenate.
    static const std::string machine = "predictor prefetcher "
        "l2-prefetcher way-predictor way-penalty stream-degree "
        "stream-distance tage-tables ";
    // What a suite::SuiteRunner sweep reads.
    static const std::string sweep = "sample warmup " + machine
        + "retries retry-backoff-ms pair-deadline pair-deadline-ms "
          "batch-ops unbatched-stepping ";
    static const std::string arena = "trace-arena-mb arena-spill-dir ";
    static const std::string campaign =
        "jobs shard resume progress no-cache csv ";
    static const std::vector<VerbSpec> table = {
        {"list", "", "enumerate application-input pairs", cmdList,
         "suite size"},
        {"stat", "<app>", "run one pair, print perf counters", cmdStat,
         "suite size input sample-interval-ops telemetry-out "
         "telemetry-format " + sweep + arena,
         "an application name (try: spec17 stat 505.mcf_r)"},
        {"characterize", "", "sweep a suite, tabulate metrics",
         cmdCharacterize, "suite size sample-interval-ops telemetry-out "
         "telemetry-format " + campaign + sweep + arena},
        {"corun", "", "co-run interference sweep on the shared L3",
         cmdCorun, "size apps quartets no-self partition corun-chunk "
         "export-jsonl sample warmup " + campaign + machine + arena},
        {"explore", "--axis=AXIS", "uarch design-space sweep (SSE-vs-cost "
         "Pareto table); --multi-axis=A,B for several axes", cmdExplore,
         "suite size axis multi-axis multi-axis-mode explore-out "
         "export-jsonl " + campaign + sweep + arena},
        {"subset", "", "suggest a representative subset", cmdSubset,
         "set clusters no-cache jobs " + sweep},
        {"phases", "<app>", "phase analysis of one pair", cmdPhases,
         "suite size input sample warmup " + machine,
         "an application name"},
        {"record", "<app> [--out=FILE]", "save a micro-op trace to disk",
         cmdRecord, "suite size input sample out", "an application name"},
        {"replay", "<file>", "run a saved trace", cmdReplay, machine,
         "a trace file path"},
        {"validate", "[--strict]", "profile targets vs measured",
         cmdValidate, "suite tolerance strict " + sweep},
        {"events", "", "list the simulated perf events", cmdEvents, ""},
        {"config", "", "print machine configuration", cmdConfig, machine},
        {"merge", "--out=FILE <shards...>",
         "fuse shard journals into the canonical journal", cmdMerge,
         "out allow-partial", "shard journal files (try: spec17 merge "
         "--out=merged.csv shard1.csv shard2.csv ...)"},
        {"fsck", "[--repair] <files...>",
         "verify journal integrity record by record", cmdFsck, "repair",
         "journal files (try: spec17 fsck results.cpu2017.ref.csv)"},
    };
    return table;
}

std::string
usage()
{
    std::string text =
        "spec17 -- SPEC CPU2017 workload characterization framework\n"
        "usage: spec17 <command> [flags]\n"
        "\n"
        "commands:\n";
    for (const VerbSpec &verb : verbTable())
        text += column("  " + std::string(verb.name) + " " + verb.synopsis)
            + verb.summary + "\n";
    std::string group;
    for (const FlagSpec &flag : flagTable()) {
        if (group != flag.group) {
            group = flag.group;
            std::string verbs;
            for (const VerbSpec &verb : verbTable())
                for (const FlagSpec &member : flagTable())
                    if (group == member.group && reads(verb, member.name)) {
                        verbs += (verbs.empty() ? " (" : ", ")
                            + std::string(verb.name);
                        break;
                    }
            text += "\n" + group + (verbs.empty() ? "" : verbs + ")")
                + ":\n";
        }
        std::string left = "  --" + std::string(flag.name);
        if (flag.placeholder[0] != '\0')
            left += "=" + std::string(flag.placeholder);
        text += column(left) + flag.help;
        if (flag.min > 1)
            text += " (at least " + std::to_string(flag.min) + ")";
        text += "\n";
    }
    return text;
}

int
runCommand(const CommandLine &command, std::ostream &out,
           std::ostream &err)
{
    if (command.command.empty() || command.hasFlag("help")) {
        out << usage();
        return command.hasFlag("help") ? 0 : 2;
    }
    const VerbSpec *verb = named(verbTable(), command.command);
    if (verb == nullptr) {
        err << "error: unknown command '" << command.command << "'\n\n"
            << usage();
        return 2;
    }
    // Each check covers every flag before the next one runs, so the
    // most basic mistake is the one reported.
    std::string error;
    for (const auto &[name, value] : command.flags)
        if (error.empty() && named(flagTable(), name) == nullptr)
            error = "unknown flag '--" + name
                + "' (see spec17 --help for the accepted flags)";
    for (const auto &[name, value] : command.flags)
        if (error.empty() && !reads(*verb, name))
            error = "--" + name + " does not apply to '" + verb->name
                + "'";
    for (const auto &[name, value] : command.flags)
        if (error.empty())
            error = contractError(*named(flagTable(), name), value);
    if (error.empty())
        error = relationError(command);
    const std::size_t given = command.positional.size() - 1;
    const std::size_t most = maxPositionals(*verb);
    if (error.empty() && verb->needs[0] != '\0' && given == 0)
        error = std::string(verb->name) + " needs " + verb->needs;
    if (error.empty() && given > most)
        error = "unexpected argument '" + command.positional[most + 1]
            + "': " + verb->name + " takes "
            + (most == 0 ? "no positional arguments"
                         : "one positional argument");
    if (!error.empty()) {
        err << "error: " << error << "\n";
        return 2;
    }
    return verb->run(command, out, err);
}

} // namespace cli
} // namespace spec17
