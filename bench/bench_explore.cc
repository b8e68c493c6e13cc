/**
 * @file
 * Multi-point explorer throughput: times a multi-axis design-space
 * sweep under per-point trace regeneration (no arena store) and under
 * the capture-once/replay-many fan-out engine (shared arena store) at
 * the same job count, verifies that both lanes score the bit-identical
 * Pareto table -- measured, not assumed -- and writes a
 * machine-readable BENCH_explore.json for CI trend tracking. The JSON
 * uses the same {batched: [{speedup, identical}]} shape bench_hot_path
 * emits, so tools/check_bench.py gates it without changes.
 *
 * Flags:
 *   --multi-axis=A,B  crossed axes (default predictor,way-predictor)
 *   --sample=N        micro-ops measured per pair (default 50,000)
 *   --warmup=N        micro-ops warmed per pair (default 12,000)
 *   --jobs=N          worker threads for BOTH lanes (default 1)
 *   --arena-mb=N      arena store budget in MiB (default 512)
 *   --repeats=N       timed repetitions per lane, best kept (default 3)
 *   --out=PATH        JSON output path (default BENCH_explore.json)
 */

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "explore/plan.hh"
#include "explore/runner.hh"
#include "suite/arena_store.hh"
#include "util/atomic_file.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace spec17;

namespace {

struct BenchOptions
{
    std::vector<std::string> axes = {"predictor", "way-predictor"};
    std::uint64_t sampleOps = 50'000;
    std::uint64_t warmupOps = 12'000;
    unsigned jobs = 1;
    std::uint64_t arenaMb = 512;
    unsigned repeats = 3;
    std::string outPath = "BENCH_explore.json";
};

BenchOptions
parseArgs(int argc, char **argv)
{
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--multi-axis=", 0) == 0) {
            options.axes.clear();
            std::string cell;
            std::istringstream stream(arg.substr(13));
            while (std::getline(stream, cell, ','))
                if (!cell.empty())
                    options.axes.push_back(cell);
        } else if (arg.rfind("--sample=", 0) == 0) {
            options.sampleOps = std::stoull(arg.substr(9));
        } else if (arg.rfind("--warmup=", 0) == 0) {
            options.warmupOps = std::stoull(arg.substr(9));
        } else if (arg.rfind("--jobs=", 0) == 0) {
            options.jobs =
                static_cast<unsigned>(std::stoul(arg.substr(7)));
        } else if (arg.rfind("--arena-mb=", 0) == 0) {
            options.arenaMb = std::stoull(arg.substr(11));
        } else if (arg.rfind("--repeats=", 0) == 0) {
            options.repeats =
                static_cast<unsigned>(std::stoul(arg.substr(10)));
        } else if (arg.rfind("--out=", 0) == 0) {
            options.outPath = arg.substr(6);
        } else {
            SPEC17_FATAL("unknown argument '", arg,
                         "' (want --multi-axis=A,B --sample=N "
                         "--warmup=N --jobs=N --arena-mb=N "
                         "--repeats=N --out=PATH)");
        }
    }
    SPEC17_ASSERT(!options.axes.empty(), "no axes to sweep");
    for (const std::string &axis : options.axes) {
        if (!explore::isAxis(axis) && !explore::isGeometryAxis(axis))
            SPEC17_FATAL("unknown axis '", axis, "'");
    }
    if (options.jobs == 0)
        options.jobs = 1;
    if (options.arenaMb == 0)
        SPEC17_FATAL("--arena-mb must be positive (the arena lane is "
                     "the thing being measured)");
    if (options.repeats == 0)
        options.repeats = 1;
    return options;
}

explore::ExploreOptions
exploreOptions(const BenchOptions &bench)
{
    explore::ExploreOptions options;
    options.runner.sampleOps = bench.sampleOps;
    options.runner.warmupOps = bench.warmupOps;
    options.runner.jobs = bench.jobs;
    options.generation = workloads::SuiteGeneration::Cpu2006;
    options.size = workloads::InputSize::Test;
    options.cachePath.clear(); // time the sweep, not the journal
    return options;
}

/** Best wall time of @p body over @p repeats runs. */
template <typename Body>
double
bestOf(unsigned repeats, Body &&body)
{
    double best = 0.0;
    for (unsigned r = 0; r < repeats; ++r) {
        const auto start = std::chrono::steady_clock::now();
        body();
        const double wall_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (r == 0 || wall_s < best)
            best = wall_s;
    }
    return best;
}

/** True when both sweeps scored the identical Pareto table. */
bool
identicalTables(const std::vector<explore::PointResult> &a,
                const std::vector<explore::PointResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].point.label != b[i].point.label
            || a[i].sse != b[i].sse || a[i].meanIpc != b[i].meanIpc
            || a[i].pairs != b[i].pairs
            || a[i].errored != b[i].errored
            || a[i].dominated != b[i].dominated
            || a[i].knee != b[i].knee)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions bench = parseArgs(argc, argv);
    std::string axes_label;
    for (std::size_t i = 0; i < bench.axes.size(); ++i)
        axes_label += (i == 0 ? "" : "+") + bench.axes[i];
    const std::size_t points =
        explore::planCross(bench.axes, exploreOptions(bench).runner.system)
            .size();

    std::printf("bench_explore: axes '%s' (%zu points), %llu+%llu ops "
                "per pair, jobs %u, best of %u repeats per lane\n\n",
                axes_label.c_str(), points,
                static_cast<unsigned long long>(bench.sampleOps),
                static_cast<unsigned long long>(bench.warmupOps),
                bench.jobs, bench.repeats);

    // A fresh runner (and a fresh arena store) per repeat so every
    // repetition times the same cold sweep: the arena lane pays its
    // captures inside the measured window, exactly as a real
    // multi-point campaign would.
    std::vector<explore::PointResult> golden, replayed;
    const double regen_s = bestOf(bench.repeats, [&] {
        golden = explore::ExploreRunner(exploreOptions(bench))
                     .runCross(bench.axes);
    });
    const double arena_s = bestOf(bench.repeats, [&] {
        suite::TraceArenaStore store(bench.arenaMb * kMiB);
        explore::ExploreOptions options = exploreOptions(bench);
        options.runner.arenaStore = &store;
        replayed =
            explore::ExploreRunner(options).runCross(bench.axes);
    });
    const bool identical = identicalTables(golden, replayed);

    TextTable table({"lane", "wall s", "points/s", "speedup"});
    table.addRow({"regenerate/point", fmtDouble(regen_s, 3),
                  fmtDouble(double(points) / regen_s, 2), "1.00x"});
    table.addRow({"shared arena", fmtDouble(arena_s, 3),
                  fmtDouble(double(points) / arena_s, 2),
                  fmtDouble(regen_s / arena_s, 2) + "x"});
    std::ostringstream rendered;
    table.render(rendered);
    std::printf("%s\n", rendered.str().c_str());

    // Committed via temp+rename like the telemetry sinks: a bench
    // interrupted mid-write can't leave a torn baseline JSON behind.
    std::ostringstream out;
    out << "{\n"
        << "  \"bench\": \"explore\",\n"
        << "  \"axes\": \"" << axes_label << "\",\n"
        << "  \"points\": " << points << ",\n"
        << "  \"sample_ops\": " << bench.sampleOps << ",\n"
        << "  \"warmup_ops\": " << bench.warmupOps << ",\n"
        << "  \"jobs\": " << bench.jobs << ",\n"
        << "  \"repeats\": " << bench.repeats << ",\n"
        << "  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n"
        << "  \"sequential\": {\"wall_s\": " << regen_s << "},\n"
        << "  \"batched\": [{\"batch_ops\": " << points
        << ", \"wall_s\": " << arena_s << ", \"speedup\": "
        << regen_s / arena_s << ", \"identical\": "
        << (identical ? "true" : "false") << "}]\n"
        << "}\n";
    std::string error;
    if (!writeFileAtomic(bench.outPath, out.str(), error))
        SPEC17_FATAL(error);
    std::printf("wrote %s\n", bench.outPath.c_str());

    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: the shared-arena fan-out sweep scored a "
                     "different Pareto table than per-point "
                     "regeneration -- the replay identity contract is "
                     "broken\n");
        return 1;
    }
    std::printf("reading: 'identical' confirms the shared-arena "
                "fan-out Pareto table matches per-point regeneration "
                "bit for bit at the same --jobs; 'speedup' is the "
                "same-machine wall-time ratio check_bench.py tracks "
                "against the committed baseline.\n");
    return 0;
}
