#include "suite/result_cache.hh"

#include <limits>
#include <optional>
#include <sstream>

#include "suite/fanout.hh"

namespace spec17 {
namespace suite {

using counters::PerfEvent;
using workloads::InputSize;
using workloads::WorkloadProfile;

namespace {

const char *
generationName(const WorkloadProfile &any)
{
    return any.generation == workloads::SuiteGeneration::Cpu2017
        ? "cpu2017" : "cpu2006";
}

/** `<base>.<gen>.<size>`: the journal stem of one suite and size. */
std::string
journalStem(const std::string &base, const char *generation,
            InputSize size)
{
    return base + "." + generation + "." + workloads::inputSizeName(size);
}

/** The journal's column header: payload columns, then record_hash. */
std::string
columnHeader()
{
    std::string header = "name,input,errored,attempts,failures,"
                         "wall_cycles,instr_billions,seconds";
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e)
        header += "," + perfEventName(static_cast<PerfEvent>(e));
    return header + ",record_hash";
}

/** Fixed cells before the per-event counter columns. */
constexpr std::size_t kFixedFields = 8;

/**
 * Parses one record payload (the record line minus its hash cell)
 * into a PairResult (profile left unbound). Returns nullopt -- with
 * @p reason set -- on any malformation: wrong field count, unparsable
 * number, undecodable failure history. The caller decides whether
 * that means a miss or a torn tail.
 */
std::optional<PairResult>
parseRow(const std::string &line, InputSize size, std::string &reason)
{
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream stream(line);
    while (std::getline(stream, cell, ','))
        cells.push_back(cell);
    if (!line.empty() && line.back() == ',')
        cells.push_back("");
    const std::size_t want = kFixedFields + counters::kNumPerfEvents;
    if (cells.size() != want) {
        reason = "expected " + std::to_string(want) + " fields, got "
            + std::to_string(cells.size());
        return std::nullopt;
    }

    PairResult r;
    r.name = cells[0];
    r.size = size;
    constexpr std::uint64_t kUnsignedMax =
        std::numeric_limits<unsigned>::max();
    const auto input = parseUnsigned(cells[1], kUnsignedMax);
    const auto errored = parseUnsigned(cells[2], 1);
    const auto attempts = parseUnsigned(cells[3], kUnsignedMax);
    const auto failures = parseFailures(cells[4]);
    const auto wall = parseDouble(cells[5]);
    const auto instr = parseDouble(cells[6]);
    const auto seconds = parseDouble(cells[7]);
    if (!input || !errored || !attempts || !failures || !wall || !instr
        || !seconds) {
        reason = "unparsable fixed field";
        return std::nullopt;
    }
    r.inputIndex = static_cast<unsigned>(*input);
    r.errored = *errored != 0;
    r.attempts = static_cast<unsigned>(*attempts);
    r.failures = *failures;
    r.wallCycles = *wall;
    r.instrBillions = *instr;
    r.seconds = *seconds;
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
        const auto count = parseUnsigned(cells[kFixedFields + e]);
        if (!count) {
            reason = "unparsable counter "
                + std::string(perfEventName(static_cast<PerfEvent>(e)));
            return std::nullopt;
        }
        r.counters.set(static_cast<PerfEvent>(e), *count);
    }
    return r;
}

/**
 * Serializes one result into its record payload. Built in a string
 * stream at full double precision so the payload -- and therefore its
 * hash, and therefore the journal bytes -- is identical no matter
 * which process (or shard) writes it.
 */
std::string
serializeRow(const PairResult &r)
{
    std::ostringstream out;
    out.precision(17);
    out << r.name << "," << r.inputIndex << "," << (r.errored ? 1 : 0)
        << "," << r.attempts << "," << serializeFailures(r.failures)
        << "," << r.wallCycles << "," << r.instrBillions << ","
        << r.seconds;
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e)
        out << "," << r.counters.get(static_cast<PerfEvent>(e));
    return out.str();
}

/** The record payloads of @p results, in order. */
std::vector<std::string>
payloads(const std::vector<PairResult> &results)
{
    std::vector<std::string> rows;
    rows.reserve(results.size());
    for (const PairResult &result : results)
        rows.push_back(serializeRow(result));
    return rows;
}

} // namespace

std::string
configFingerprint(const SuiteRunner &runner)
{
    // FNV-1a over the full config key; collisions would need a
    // deliberately crafted configuration.
    return hex16(fnv1a(runner.configKey()));
}

std::string
pairSetDigest(const std::vector<WorkloadProfile> &suite, InputSize size)
{
    std::uint64_t h =
        fnv1a(suite.empty() ? "empty" : generationName(suite.front()));
    h = fnv1a("|", h);
    h = fnv1a(workloads::inputSizeName(size), h);
    for (const auto &pair : enumeratePairs(suite, size)) {
        h = fnv1a("|", h);
        h = fnv1a(pair.displayName(), h);
    }
    return hex16(h);
}

ResultCache::ResultCache(std::string path, bool resume)
    : path_(std::move(path)), resume_(resume)
{
}

std::string
ResultCache::defaultPath()
{
    if (const char *env = std::getenv("SPEC17_CACHE"))
        return env;
    return "spec17_results";
}

std::string
ResultCache::journalFile(const std::vector<WorkloadProfile> &suite,
                         InputSize size) const
{
    if (path_.empty() || suite.empty())
        return "";
    return journalFileName(
        journalStem(path_, generationName(suite.front()), size),
        shard_.index, shard_.count);
}

ResultCache::SweepPrefix
ResultCache::beginSweep(const SuiteRunner &runner,
                        const std::vector<WorkloadProfile> &suite,
                        InputSize size,
                        const std::vector<workloads::AppInputPair> &pairs)
{
    JournalHeader header;
    header.configFingerprint = configFingerprint(runner);
    header.pairsDigest = pairSetDigest(suite, size);
    header.shardIndex = shard_.index;
    header.shardCount = shard_.count;
    session_ = JournalSession(journalFile(suite, size), header,
                              columnHeader(), ioFaults_);

    std::vector<std::string> names;
    names.reserve(pairs.size());
    for (const workloads::AppInputPair &pair : pairs)
        names.push_back(pair.displayName());
    SweepPrefix prefix;
    const JournalSession::Prefix found = session_.open(
        names, resume_,
        [&](std::size_t index, const std::string &payload,
            std::string &reason) {
            auto row = parseRow(payload, size, reason);
            if (!row)
                return false;
            row->profile = pairs[index].profile;
            row->replayed = true;
            prefix.rows.push_back(std::move(*row));
            return true;
        });
    prefix.rows.resize(found.records);
    prefix.complete = found.complete;
    return prefix;
}

void
ResultCache::checkpoint(const SuiteRunner &,
                        const std::vector<WorkloadProfile> &, InputSize,
                        const std::vector<PairResult> &results) const
{
    if (!path_.empty())
        session_.commit(payloads(results), /*quiet=*/true);
}

void
ResultCache::finish(const SuiteRunner &, const std::vector<WorkloadProfile> &,
                    InputSize, const std::vector<PairResult> &results) const
{
    // The loud commit doubles as the failure report for unwritable
    // cache locations.
    if (!path_.empty())
        session_.commit(payloads(results), /*quiet=*/false);
}

std::vector<PairResult>
ResultCache::runOrLoad(const SuiteRunner &runner,
                       const std::vector<WorkloadProfile> &suite,
                       InputSize size,
                       const SuiteRunner::PairObserver &observer)
{
    return std::move(
        runFanoutSweep({{runner, *this, observer}}, suite, size).front());
}

void
ResultCache::invalidate()
{
    if (path_.empty())
        return;
    for (const char *generation : {"cpu2017", "cpu2006"}) {
        for (InputSize size : workloads::kAllInputSizes)
            JournalSession::invalidate(
                journalStem(path_, generation, size), shard_.index,
                shard_.count);
    }
}

} // namespace suite
} // namespace spec17
