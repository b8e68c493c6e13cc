/**
 * @file
 * Co-run engine throughput: times a demo pair campaign (four rate
 * apps, self-pairs included) sequentially and on the worker pool,
 * verifies the byte-identity contract between the two journals --
 * measured, not assumed -- and writes a machine-readable
 * BENCH_corun.json for CI trend tracking.
 *
 * Flags:
 *   --sample=N   micro-ops measured per member (default 60,000)
 *   --warmup=N   micro-ops warmed per member (default 20,000)
 *   --jobs=N     worker threads for the parallel lane (default 4)
 *   --repeats=N  timed repetitions per lane, best kept (default 3)
 *   --tmpdir=P   directory for the scratch journals (default /tmp)
 *   --out=PATH   JSON output path (default BENCH_corun.json)
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "corun/plan.hh"
#include "corun/runner.hh"
#include "corun/store.hh"
#include "util/atomic_file.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace spec17;

namespace {

struct BenchOptions
{
    std::uint64_t sampleOps = 60'000;
    std::uint64_t warmupOps = 20'000;
    unsigned jobs = 4;
    unsigned repeats = 3;
    std::string tmpDir = "/tmp";
    std::string outPath = "BENCH_corun.json";
};

BenchOptions
parseArgs(int argc, char **argv)
{
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--sample=", 0) == 0) {
            options.sampleOps = std::stoull(arg.substr(9));
        } else if (arg.rfind("--warmup=", 0) == 0) {
            options.warmupOps = std::stoull(arg.substr(9));
        } else if (arg.rfind("--jobs=", 0) == 0) {
            options.jobs =
                static_cast<unsigned>(std::stoul(arg.substr(7)));
        } else if (arg.rfind("--repeats=", 0) == 0) {
            options.repeats =
                static_cast<unsigned>(std::stoul(arg.substr(10)));
        } else if (arg.rfind("--tmpdir=", 0) == 0) {
            options.tmpDir = arg.substr(9);
        } else if (arg.rfind("--out=", 0) == 0) {
            options.outPath = arg.substr(6);
        } else {
            SPEC17_FATAL("unknown argument '", arg,
                         "' (want --sample=N --warmup=N --jobs=N "
                         "--repeats=N --tmpdir=P --out=PATH)");
        }
    }
    if (options.jobs == 0)
        options.jobs = 1;
    if (options.repeats == 0)
        options.repeats = 1;
    return options;
}

corun::CorunOptions
runnerOptions(const BenchOptions &bench, unsigned jobs)
{
    corun::CorunOptions options;
    options.sampleOps = bench.sampleOps;
    options.warmupOps = bench.warmupOps;
    options.size = workloads::InputSize::Test;
    options.jobs = jobs;
    return options;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        SPEC17_FATAL("cannot read back ", path);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
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

/** True when both sweeps agree on every member of every group. */
bool
identicalResults(const std::vector<corun::CorunResult> &a,
                 const std::vector<corun::CorunResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].name != b[i].name
            || a[i].members.size() != b[i].members.size())
            return false;
        for (std::size_t m = 0; m < a[i].members.size(); ++m) {
            const corun::MemberResult &x = a[i].members[m];
            const corun::MemberResult &y = b[i].members[m];
            if (x.cycles != y.cycles || x.soloCycles != y.soloCycles
                || x.instructions != y.instructions
                || x.l3Misses != y.l3Misses
                || x.evictionsSuffered != y.evictionsSuffered)
                return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions bench = parseArgs(argc, argv);

    corun::PlanOptions plan;
    plan.apps = {"505.mcf_r", "519.lbm_r", "541.leela_r",
                 "548.exchange2_r"};
    const auto groups =
        corun::planGroups(workloads::cpu2017Suite(), plan);

    std::printf("bench_corun: %zu pair groups, %llu+%llu ops per "
                "member, best of %u repeats per lane\n\n",
                groups.size(),
                static_cast<unsigned long long>(bench.sampleOps),
                static_cast<unsigned long long>(bench.warmupOps),
                bench.repeats);

    // A fresh runner per repeat: the solo-baseline memo is per
    // runner, so every repetition times the same cold campaign.
    std::vector<corun::CorunResult> golden, pooled;
    const double seq_s = bestOf(bench.repeats, [&] {
        golden = corun::CorunStore("").runOrLoad(
            corun::CorunRunner(runnerOptions(bench, 1)), groups);
    });
    const double par_s = bestOf(bench.repeats, [&] {
        pooled = corun::CorunStore("").runOrLoad(
            corun::CorunRunner(runnerOptions(bench, bench.jobs)), groups);
    });
    const bool results_identical = identicalResults(golden, pooled);

    // Journal byte-identity across job counts (the stored contract).
    const std::string base = bench.tmpDir + "/spec17_bench_corun";
    corun::CorunRunner seq_runner(runnerOptions(bench, 1));
    corun::CorunStore seq_store(base + "_seq");
    seq_store.invalidate();
    seq_store.runOrLoad(seq_runner, groups);
    corun::CorunRunner par_runner(runnerOptions(bench, bench.jobs));
    corun::CorunStore par_store(base + "_par");
    par_store.invalidate();
    par_store.runOrLoad(par_runner, groups);
    const bool byte_identical =
        fileBytes(seq_store.journalFile(seq_runner))
        == fileBytes(par_store.journalFile(par_runner));
    seq_store.invalidate();
    par_store.invalidate();

    TextTable table({"jobs", "wall s", "groups/s", "speedup"});
    table.addRow({"1", fmtDouble(seq_s, 3),
                  fmtDouble(double(groups.size()) / seq_s, 1), "1.00x"});
    table.addRow({std::to_string(bench.jobs), fmtDouble(par_s, 3),
                  fmtDouble(double(groups.size()) / par_s, 1),
                  fmtDouble(seq_s / par_s, 2) + "x"});
    std::ostringstream rendered;
    table.render(rendered);
    std::printf("%s\n", rendered.str().c_str());

    // Committed via temp+rename like the telemetry sinks: a bench
    // interrupted mid-write can't leave a torn baseline JSON behind.
    std::ostringstream out;
    out << "{\n"
        << "  \"bench\": \"corun\",\n"
        << "  \"groups\": " << groups.size() << ",\n"
        << "  \"sample_ops\": " << bench.sampleOps << ",\n"
        << "  \"warmup_ops\": " << bench.warmupOps << ",\n"
        << "  \"repeats\": " << bench.repeats << ",\n"
        << "  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n"
        << "  \"sequential\": {\"wall_s\": " << seq_s
        << ", \"groups_per_s\": " << double(groups.size()) / seq_s
        << "},\n"
        << "  \"parallel\": {\"jobs\": " << bench.jobs
        << ", \"wall_s\": " << par_s
        << ", \"groups_per_s\": " << double(groups.size()) / par_s
        << ", \"speedup\": " << seq_s / par_s << "},\n"
        << "  \"results_identical\": "
        << (results_identical ? "true" : "false") << ",\n"
        << "  \"byte_identical\": "
        << (byte_identical ? "true" : "false") << "\n"
        << "}\n";
    std::string error;
    if (!writeFileAtomic(bench.outPath, out.str(), error))
        SPEC17_FATAL(error);
    std::printf("wrote %s\n", bench.outPath.c_str());

    if (!results_identical || !byte_identical) {
        std::fprintf(stderr,
                     "FAIL: parallel co-run sweep diverged from the "
                     "sequential one -- the determinism contract is "
                     "broken\n");
        return 1;
    }
    std::printf("reading: groups/s counts co-run groups simulated per "
                "second (solo baselines\nincluded); 'byte_identical' "
                "confirms --jobs=%u journals match --jobs=1 exactly.\n"
                "speedup saturates at the hardware concurrency (%u "
                "here).\n",
                bench.jobs, std::thread::hardware_concurrency());
    return 0;
}
