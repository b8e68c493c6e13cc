#include "suite/result_cache.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "suite/fanout.hh"
#include "suite/journal.hh"
#include "util/logging.hh"

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

std::string
sectionFile(const std::string &base, const WorkloadProfile &any,
            InputSize size, const ShardSpec &shard)
{
    std::string name = base + "." + generationName(any) + "."
        + workloads::inputSizeName(size);
    if (shard.active())
        name += ".shard" + std::to_string(shard.index) + "of"
            + std::to_string(shard.count);
    return name + ".csv";
}

/** Payload columns; the journal's column header appends record_hash. */
std::string
payloadHeader()
{
    std::string header = "name,input,errored,attempts,failures,"
                         "wall_cycles,instr_billions,seconds";
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e)
        header += "," + perfEventName(static_cast<PerfEvent>(e));
    return header;
}

std::string
columnHeader()
{
    return payloadHeader() + ",record_hash";
}

/** Fixed cells before the per-event counter columns. */
constexpr std::size_t kFixedFields = 8;

std::optional<double>
parseDouble(const std::string &cell)
{
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(cell.c_str(), &end);
    if (cell.empty() || end == nullptr || *end != '\0' || errno != 0)
        return std::nullopt;
    return value;
}

std::optional<std::uint64_t>
parseUint(const std::string &cell)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long value =
        std::strtoull(cell.c_str(), &end, 10);
    if (cell.empty() || end == nullptr || *end != '\0' || errno != 0)
        return std::nullopt;
    return value;
}

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
    const auto input = parseUint(cells[1]);
    const auto errored = parseUint(cells[2]);
    const auto attempts = parseUint(cells[3]);
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
        const auto count = parseUint(cells[kFixedFields + e]);
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
    return sectionFile(path_, suite.front(), size, shard_);
}

ResultCache::JournalRead
ResultCache::readJournal(
    const SuiteRunner &runner,
    const std::vector<WorkloadProfile> &suite, InputSize size,
    const std::vector<workloads::AppInputPair> &pairs) const
{
    JournalRead read;
    const std::string file = sectionFile(path_, suite.front(), size,
                                         shard_);
    std::ifstream in(file, std::ios::binary);
    if (!in)
        return read;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string content = buffer.str();

    if (ioFaults_) {
        const auto fault = ioFaults_->onJournalRead(file);
        using Kind = JournalIoFaultInjector::ReadFault::Kind;
        if (fault.kind == Kind::ShortRead
            && fault.keepBytes < content.size()) {
            content.resize(fault.keepBytes);
        } else if (fault.kind == Kind::BitFlip
                   && fault.offset < content.size()) {
            content[fault.offset] = static_cast<char>(
                static_cast<unsigned char>(content[fault.offset])
                ^ (1u << (fault.bit % 8)));
        }
    }

    const JournalScan scan = scanJournalContent(content, true);
    if (!scan.headerOk) {
        warn("ignoring journal at ", file, ": ", scan.headerError);
        read.status = JournalRead::Status::Malformed;
        return read;
    }
    read.foundFingerprint = scan.header.configFingerprint;
    if (scan.header.configFingerprint != configFingerprint(runner)) {
        read.status = JournalRead::Status::ConfigMismatch;
        return read;
    }
    if (scan.header.pairsDigest != pairSetDigest(suite, size)) {
        read.status = JournalRead::Status::PairsMismatch;
        return read;
    }
    if (scan.header.shardIndex != shard_.index
        || scan.header.shardCount != shard_.count) {
        read.status = JournalRead::Status::ShardMismatch;
        return read;
    }
    if (scan.columnHeader != columnHeader()) {
        // Another build's counter set: a miss, not corruption.
        read.status = JournalRead::Status::FormatMismatch;
        return read;
    }
    read.status = JournalRead::Status::Ok;
    if (scan.corrupt) {
        warn("quarantining journal tail of ", file, " (",
             scan.corruptReason, ") after ", scan.records.size(),
             " valid record(s)");
    }

    // The hash-verified records still cross the semantic parser and
    // the pair-order check: only an order-matching prefix is a valid
    // checkpoint of *this* sweep.
    bool ordered = true;
    for (std::size_t i = 0;
         i < scan.records.size() && i < pairs.size(); ++i) {
        const std::string &record = scan.records[i];
        const std::string payload =
            record.substr(0, record.rfind(','));
        std::string reason;
        auto row = parseRow(payload, size, reason);
        if (!row) {
            warn("quarantining journal tail (", reason, ") after ", i,
                 " valid rows");
            ordered = false;
            break;
        }
        if (row->name != pairs[i].displayName()) {
            warn("journal row ", i, " names '", row->name, "' where '",
                 pairs[i].displayName(),
                 "' was expected; discarding the rest");
            ordered = false;
            break;
        }
        row->profile = pairs[i].profile;
        row->replayed = true;
        read.rows.push_back(std::move(*row));
    }
    read.complete = ordered && !scan.corrupt
        && read.rows.size() == pairs.size()
        && scan.records.size() == pairs.size();
    return read;
}

void
ResultCache::save(const SuiteRunner &runner,
                  const std::vector<WorkloadProfile> &suite,
                  InputSize size, const std::vector<PairResult> &results,
                  bool quiet) const
{
    if (path_.empty() || suite.empty())
        return;
    if (quiet && journalWarned_)
        return;
    const std::string file = sectionFile(path_, suite.front(), size,
                                         shard_);

    // Render the complete journal image up front: the commit (and any
    // injected fault) operates on the exact final bytes.
    const std::string fp = configFingerprint(runner);
    JournalHeader header;
    header.configFingerprint = fp;
    header.pairsDigest = pairSetDigest(suite, size);
    header.shardIndex = shard_.index;
    header.shardCount = shard_.count;
    std::ostringstream image;
    image << header.serialize() << "\n" << columnHeader() << "\n";
    for (const PairResult &r : results) {
        const std::string payload = serializeRow(r);
        image << payload << "," << recordHash(fp, payload) << "\n";
    }
    const std::string content = image.str();

    JournalIoFaultInjector::WriteFault fault;
    if (ioFaults_)
        fault = ioFaults_->onJournalWrite(file, commitIndex_);
    ++commitIndex_;
    using WriteKind = JournalIoFaultInjector::WriteFault::Kind;
    if (fault.kind == WriteKind::Enospc) {
        // Failed commit, previous journal intact: the sweep carries
        // on and the uncommitted pairs are recomputed on resume.
        if (!quiet || !journalWarned_)
            warn("cannot commit result journal to ", file,
                 ": out of space (injected); continuing without "
                 "checkpoint");
        journalWarned_ = true;
        return;
    }
    if (fault.kind == WriteKind::TornWrite) {
        // Simulated crash/power cut mid-write: a byte-level prefix of
        // the new image lands in the *final* file (bypassing the
        // temp-then-rename discipline, which is exactly what this
        // fault models). The hash check quarantines the damaged tail
        // on reopen.
        std::ofstream out(file, std::ios::trunc | std::ios::binary);
        if (out)
            out.write(content.data(),
                      static_cast<std::streamsize>(
                          std::min(fault.keepBytes, content.size())));
        if (!quiet || !journalWarned_)
            warn("torn write to result journal ", file,
                 " (injected); damaged tail will be quarantined on "
                 "reopen");
        journalWarned_ = true;
        return;
    }

    // Write-temp-then-rename: a crash mid-save can never leave a
    // half-written cache, and concurrent readers see either the old
    // or the new journal, both complete.
    const std::string temp = file + ".tmp";
    {
        std::ofstream out(temp, std::ios::trunc | std::ios::binary);
        if (!out) {
            if (!quiet || !journalWarned_)
                warn("cannot write result cache at ", temp);
            journalWarned_ = true;
            return;
        }
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
        out.flush();
        if (!out) {
            warn("short write to ", temp, "; cache not committed");
            journalWarned_ = true;
            std::remove(temp.c_str());
            return;
        }
    }
    if (std::rename(temp.c_str(), file.c_str()) != 0) {
        if (!quiet || !journalWarned_)
            warn("cannot commit result cache to ", file, ": ",
                 std::strerror(errno));
        journalWarned_ = true;
        std::remove(temp.c_str());
    }
}

ResultCache::SweepPrefix
ResultCache::beginSweep(const SuiteRunner &runner,
                        const std::vector<WorkloadProfile> &suite,
                        InputSize size,
                        const std::vector<workloads::AppInputPair> &pairs)
{
    // A new session always starts with fresh commit state: the I/O
    // fault keying and the warn-once latch are per-sweep, not
    // per-cache-lifetime.
    journalWarned_ = false;
    commitIndex_ = 0;

    SweepPrefix prefix;
    if (path_.empty() || suite.empty())
        return prefix;
    JournalRead read = readJournal(runner, suite, size, pairs);
    using Status = JournalRead::Status;
    if (read.status == Status::ConfigMismatch && resume_) {
        // Replaying another campaign's records would silently
        // splice two configurations into one result set.
        throw JournalConfigMismatchError(
            "refusing to resume from " + journalFile(suite, size)
            + ": journal was written under config "
            + read.foundFingerprint
            + " but this invocation has config "
            + configFingerprint(runner)
            + " (rerun without --resume to recompute and "
              "overwrite, or point the cache elsewhere)");
    }
    if (read.status == Status::Ok && read.complete) {
        prefix.rows = std::move(read.rows);
        prefix.complete = true;
        return prefix;
    }
    if (read.status == Status::Ok && resume_) {
        prefix.rows = std::move(read.rows);
        if (!prefix.rows.empty())
            inform("resuming sweep from journal: ", prefix.rows.size(),
                   " pair(s) replayed without re-simulation");
    }
    return prefix;
}

void
ResultCache::checkpoint(const SuiteRunner &runner,
                        const std::vector<WorkloadProfile> &suite,
                        InputSize size,
                        const std::vector<PairResult> &results) const
{
    save(runner, suite, size, results, /*quiet=*/true);
}

void
ResultCache::finish(const SuiteRunner &runner,
                    const std::vector<WorkloadProfile> &suite,
                    InputSize size,
                    const std::vector<PairResult> &results) const
{
    // The loud commit doubles as the failure report for unwritable
    // cache locations.
    save(runner, suite, size, results);
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
        for (InputSize size : workloads::kAllInputSizes) {
            std::string stem = path_ + "." + generation + "."
                + workloads::inputSizeName(size);
            std::vector<std::string> files = {stem + ".csv"};
            if (shard_.active())
                files.push_back(stem + ".shard"
                                + std::to_string(shard_.index) + "of"
                                + std::to_string(shard_.count)
                                + ".csv");
            for (const std::string &file : files) {
                std::remove(file.c_str());
                std::remove((file + ".tmp").c_str());
            }
        }
    }
}

} // namespace suite
} // namespace spec17
