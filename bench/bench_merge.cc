/**
 * @file
 * Robustness-toolchain throughput: times `spec17 merge` fusing the
 * shard journals of one campaign back into the canonical journal, and
 * the fsck scan lane that re-verifies the merged file. The campaign
 * is synthesized with the journal.hh primitives at realistic record
 * width, so the bench measures the toolchain (hash verification,
 * round-robin placement, atomic rewrite), not the simulator. The
 * merged bytes are checked against a directly rendered canonical
 * journal -- the golden byte-identity contract measured, not assumed
 * -- and a machine-readable BENCH_merge.json is written for CI trend
 * tracking.
 *
 * Flags:
 *   --records=N  canonical records in the campaign (default 20,000)
 *   --shards=N   shard journals to fuse (default 8)
 *   --repeats=N  timed repetitions per lane, best wall time kept
 *                (default 5)
 *   --tmpdir=P   directory for the scratch journals (default /tmp)
 *   --out=PATH   JSON output path (default BENCH_merge.json)
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "suite/journal.hh"
#include "util/atomic_file.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace spec17;

namespace {

struct BenchOptions
{
    std::size_t records = 20'000;
    unsigned shards = 8;
    unsigned repeats = 5;
    std::string tmpDir = "/tmp";
    std::string outPath = "BENCH_merge.json";
};

BenchOptions
parseArgs(int argc, char **argv)
{
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--records=", 0) == 0) {
            options.records = std::stoull(arg.substr(10));
        } else if (arg.rfind("--shards=", 0) == 0) {
            options.shards =
                static_cast<unsigned>(std::stoul(arg.substr(9)));
        } else if (arg.rfind("--repeats=", 0) == 0) {
            options.repeats =
                static_cast<unsigned>(std::stoul(arg.substr(10)));
        } else if (arg.rfind("--tmpdir=", 0) == 0) {
            options.tmpDir = arg.substr(9);
        } else if (arg.rfind("--out=", 0) == 0) {
            options.outPath = arg.substr(6);
        } else {
            SPEC17_FATAL("unknown argument '", arg,
                         "' (want --records=N --shards=N --repeats=N"
                         " --tmpdir=P --out=PATH)");
        }
    }
    if (options.records == 0)
        options.records = 1;
    if (options.shards == 0)
        options.shards = 1;
    if (options.repeats == 0)
        options.repeats = 1;
    return options;
}

/** Column header matching the width of a real sweep journal: the
 *  fixed result fields plus one column per hardware counter. */
std::string
columnHeader(std::size_t counter_columns)
{
    std::string header =
        "name,generation,input,errored,attempts,failures,"
        "wall_cycles,seconds";
    for (std::size_t c = 0; c < counter_columns; ++c)
        header += ",counter_" + std::to_string(c);
    return header + ",record_hash";
}

/** Deterministic record payload for canonical index @p index, sized
 *  like a real pair row (a name cell plus ~30 numeric cells). */
std::string
payloadFor(std::size_t index, std::size_t counter_columns)
{
    std::ostringstream payload;
    payload << 600 + index % 100 << ".bench_" << index
            << "-ref,cpu2006,test,0,1,0,"
            << 1'000'000 + index * 977 << ","
            << 0.25 + double(index % 1000) / 4096.0;
    std::uint64_t value = suite::fnv1a(std::to_string(index));
    for (std::size_t c = 0; c < counter_columns; ++c) {
        value = suite::fnv1a("next", value);
        payload << "," << value % 10'000'000;
    }
    return payload.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    if (!out)
        SPEC17_FATAL("cannot write ", path);
    out << content;
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

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions bench = parseArgs(argc, argv);
    constexpr std::size_t kCounterColumns = 30;

    // Synthesize one campaign: canonical records 0..N-1, distributed
    // round-robin across the shard journals exactly as a sharded
    // sweep writes them (record j of shard K/N holds canonical index
    // j*N + K-1).
    suite::JournalHeader header;
    header.configFingerprint =
        suite::hex16(suite::fnv1a("bench_merge config key"));
    header.pairsDigest =
        suite::hex16(suite::fnv1a("bench_merge pair set"));
    const std::string columns = columnHeader(kCounterColumns);

    std::vector<std::string> canonical_records(bench.records);
    for (std::size_t i = 0; i < bench.records; ++i) {
        const std::string payload = payloadFor(i, kCounterColumns);
        canonical_records[i] =
            payload + ","
            + suite::recordHash(header.configFingerprint, payload);
    }

    const std::string base =
        bench.tmpDir + "/spec17_bench_merge";
    std::vector<std::string> shard_paths;
    std::size_t shard_bytes = 0;
    for (unsigned k = 1; k <= bench.shards; ++k) {
        suite::JournalHeader shard_header = header;
        shard_header.shardIndex = k;
        shard_header.shardCount = bench.shards;
        std::string content =
            shard_header.serialize() + "\n" + columns + "\n";
        for (std::size_t i = k - 1; i < bench.records;
             i += bench.shards)
            content += canonical_records[i] + "\n";
        const std::string path = base + ".shard" + std::to_string(k)
            + "of" + std::to_string(bench.shards) + ".csv";
        writeFile(path, content);
        shard_paths.push_back(path);
        shard_bytes += content.size();
    }

    // The canonical journal the merge must reproduce byte-for-byte.
    std::string expected = header.serialize() + "\n" + columns + "\n";
    for (const auto &record : canonical_records)
        expected += record + "\n";

    std::printf("bench_merge: %zu records across %u shards "
                "(%.1f MB), best of %u repeats per lane\n\n",
                bench.records, bench.shards,
                double(shard_bytes) / 1e6, bench.repeats);

    const std::string merged_path = base + ".merged.csv";
    suite::MergeOutcome outcome;
    const double merge_s = bestOf(bench.repeats, [&] {
        outcome = suite::mergeJournals(shard_paths, merged_path);
        if (!outcome.ok)
            SPEC17_FATAL("merge failed: ", outcome.error);
    });

    suite::JournalScan scan;
    const double fsck_s = bestOf(bench.repeats, [&] {
        scan = suite::scanJournal(merged_path);
    });

    const bool byte_identical = fileBytes(merged_path) == expected;
    const double merged_mb = double(expected.size()) / 1e6;

    TextTable table({"lane", "wall s", "records/s", "MB/s"});
    table.addRow({"merge " + std::to_string(bench.shards) + " shards",
                  fmtDouble(merge_s, 4),
                  fmtDouble(double(bench.records) / merge_s, 0),
                  fmtDouble(merged_mb / merge_s, 1)});
    table.addRow({"fsck scan", fmtDouble(fsck_s, 4),
                  fmtDouble(double(bench.records) / fsck_s, 0),
                  fmtDouble(merged_mb / fsck_s, 1)});
    std::ostringstream rendered;
    table.render(rendered);
    std::printf("%s\n", rendered.str().c_str());

    // Committed via temp+rename like the telemetry sinks: a bench
    // interrupted mid-write can't leave a torn baseline JSON behind.
    std::ostringstream out;
    out << "{\n"
        << "  \"bench\": \"merge\",\n"
        << "  \"shards\": " << bench.shards << ",\n"
        << "  \"records\": " << bench.records << ",\n"
        << "  \"journal_bytes\": " << expected.size() << ",\n"
        << "  \"repeats\": " << bench.repeats << ",\n"
        << "  \"merge\": {\"wall_s\": " << merge_s
        << ", \"records_per_s\": " << double(bench.records) / merge_s
        << ", \"mb_per_s\": " << merged_mb / merge_s << "},\n"
        << "  \"fsck_scan\": {\"wall_s\": " << fsck_s
        << ", \"records_per_s\": " << double(bench.records) / fsck_s
        << ", \"mb_per_s\": " << merged_mb / fsck_s << "},\n"
        << "  \"byte_identical\": "
        << (byte_identical ? "true" : "false") << "\n"
        << "}\n";
    std::string error;
    if (!writeFileAtomic(bench.outPath, out.str(), error))
        SPEC17_FATAL(error);
    std::printf("wrote %s\n", bench.outPath.c_str());

    for (const auto &path : shard_paths)
        std::remove(path.c_str());
    std::remove(merged_path.c_str());

    if (!byte_identical) {
        std::fprintf(stderr,
                     "FAIL: merged journal is not byte-identical to "
                     "the canonical rendering -- the shard round-trip "
                     "contract is broken\n");
        return 1;
    }
    if (outcome.recordsWritten != bench.records || !scan.clean()) {
        std::fprintf(stderr,
                     "FAIL: merged journal lost records or does not "
                     "verify clean under fsck\n");
        return 1;
    }
    std::printf("reading: records/s is canonical records fused (or "
                "re-verified) per second;\n'byte_identical' confirms "
                "the merged shards reproduce the unsharded journal "
                "exactly\n(the JSON mirrors this table for CI trend "
                "tracking).\n");
    return 0;
}
