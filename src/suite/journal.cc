#include "suite/journal.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "suite/fault_injection.hh"
#include "util/atomic_file.hh"
#include "util/logging.hh"

namespace spec17 {
namespace suite {

namespace {

/** Cells of one CSV line (trailing empty cell preserved). */
std::size_t
countCells(const std::string &line)
{
    std::size_t cells = 1;
    for (char c : line)
        cells += c == ',';
    return cells;
}

bool
isHex16(const std::string &text)
{
    if (text.size() != 16)
        return false;
    for (char c : text) {
        if (!std::isxdigit(static_cast<unsigned char>(c))
            || (std::isalpha(static_cast<unsigned char>(c))
                && !std::islower(static_cast<unsigned char>(c))))
            return false;
    }
    return true;
}

} // namespace

std::optional<std::uint64_t>
parseUnsigned(std::string_view cell, std::uint64_t max, unsigned base)
{
    SPEC17_ASSERT(base == 10 || base == 16, "unsupported base ", base);
    if (cell.empty())
        return std::nullopt;
    std::uint64_t value = 0;
    for (const char c : cell) {
        std::uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return std::nullopt;
        if (digit > max || value > (max - digit) / base)
            return std::nullopt;
        value = value * base + digit;
    }
    return value;
}

std::optional<double>
parseDouble(std::string_view cell)
{
    // The writers' 17-digit grammar: -?D+(.D+)?(e[+-]D+)?
    std::size_t at = 0;
    const auto digits = [&cell, &at] {
        const std::size_t from = at;
        while (at < cell.size() && cell[at] >= '0' && cell[at] <= '9')
            ++at;
        return at > from;
    };
    const auto skip = [&cell, &at](char c) {
        const bool found = at < cell.size() && cell[at] == c;
        at += found;
        return found;
    };
    skip('-');
    if (!digits() || (skip('.') && !digits()))
        return std::nullopt;
    if (skip('e') && !((skip('+') || skip('-')) && digits()))
        return std::nullopt;
    if (at != cell.size())
        return std::nullopt;
    // from_chars keeps a subnormal value and reports overflow as a
    // range error; strtod reports both.
    double value = 0.0;
    if (std::from_chars(cell.data(), cell.data() + cell.size(), value).ec
        != std::errc())
        return std::nullopt;
    return value;
}

std::string
hex16(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
recordHash(const std::string &config_fingerprint,
           const std::string &payload)
{
    return hex16(fnv1a(payload, fnv1a("|", fnv1a(config_fingerprint))));
}

std::string
JournalHeader::serialize() const
{
    std::ostringstream os;
    os << "spec17-journal-v" << version << ",config="
       << configFingerprint << ",pairs=" << pairsDigest << ",shard="
       << shardIndex << "/" << shardCount;
    return os.str();
}

std::string
JournalHeader::shardLabel() const
{
    return std::to_string(shardIndex) + "/"
        + std::to_string(shardCount);
}

std::optional<JournalHeader>
JournalHeader::parse(const std::string &line, std::string &reason)
{
    static constexpr const char *kMagic = "spec17-journal-v";
    constexpr std::uint64_t kUnsignedMax =
        std::numeric_limits<unsigned>::max();
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream stream(line);
    while (std::getline(stream, cell, ','))
        cells.push_back(cell);
    if (cells.empty() || cells[0].rfind(kMagic, 0) != 0) {
        reason = "not a spec17 journal header (legacy v1 journals "
                 "carry no campaign header and cannot be verified)";
        return std::nullopt;
    }
    JournalHeader header;
    const auto version =
        parseUnsigned(cells[0].substr(std::strlen(kMagic)), kUnsignedMax);
    if (!version) {
        reason = "unparsable format version in '" + cells[0] + "'";
        return std::nullopt;
    }
    header.version = static_cast<unsigned>(*version);
    if (header.version != kJournalFormatVersion) {
        reason = "unsupported journal format version "
            + std::to_string(header.version) + " (this build reads v"
            + std::to_string(kJournalFormatVersion) + ")";
        return std::nullopt;
    }
    if (cells.size() != 4) {
        reason = "expected 4 header fields, got "
            + std::to_string(cells.size());
        return std::nullopt;
    }
    if (cells[1].rfind("config=", 0) != 0
        || !isHex16(cells[1].substr(7))) {
        reason = "malformed config fingerprint '" + cells[1] + "'";
        return std::nullopt;
    }
    header.configFingerprint = cells[1].substr(7);
    if (cells[2].rfind("pairs=", 0) != 0
        || !isHex16(cells[2].substr(6))) {
        reason = "malformed pair-set digest '" + cells[2] + "'";
        return std::nullopt;
    }
    header.pairsDigest = cells[2].substr(6);
    if (cells[3].rfind("shard=", 0) != 0) {
        reason = "malformed shard field '" + cells[3] + "'";
        return std::nullopt;
    }
    const std::string shard = cells[3].substr(6);
    const auto slash = shard.find('/');
    if (slash == std::string::npos) {
        reason = "malformed shard field '" + cells[3] + "'";
        return std::nullopt;
    }
    const auto index = parseUnsigned(shard.substr(0, slash), kUnsignedMax);
    const auto count = parseUnsigned(shard.substr(slash + 1), kUnsignedMax);
    if (!index || !count || *count == 0 || *index == 0
        || *index > *count) {
        reason = "invalid shard identity '" + shard + "'";
        return std::nullopt;
    }
    header.shardIndex = static_cast<unsigned>(*index);
    header.shardCount = static_cast<unsigned>(*count);
    return header;
}

JournalScan
scanJournalContent(const std::string &content, bool file_ok)
{
    JournalScan scan;
    scan.fileOk = file_ok;
    if (!file_ok) {
        scan.headerError = "cannot read journal file";
        return scan;
    }
    std::istringstream in(content);
    std::string line;
    if (!std::getline(in, line)) {
        scan.headerError = "empty file (no campaign header)";
        return scan;
    }
    std::string reason;
    const auto header = JournalHeader::parse(line, reason);
    if (!header) {
        scan.headerError = reason;
        return scan;
    }
    scan.header = *header;
    if (!std::getline(in, scan.columnHeader)
        || scan.columnHeader.empty()) {
        scan.headerError = "missing column header";
        return scan;
    }
    static constexpr const char *kHashColumn = ",record_hash";
    if (scan.columnHeader.size() <= std::strlen(kHashColumn)
        || scan.columnHeader.compare(
               scan.columnHeader.size() - std::strlen(kHashColumn),
               std::strlen(kHashColumn), kHashColumn)
            != 0) {
        scan.headerError =
            "column header lacks the record_hash column";
        return scan;
    }
    scan.headerOk = true;

    const std::size_t payload_cells =
        countCells(scan.columnHeader) - 1;
    std::map<std::string, std::size_t> seen;
    std::size_t index = 0;
    while (std::getline(in, line)) {
        std::string why;
        const auto comma = line.rfind(',');
        const std::string hash =
            comma == std::string::npos ? "" : line.substr(comma + 1);
        const std::string payload =
            comma == std::string::npos ? line : line.substr(0, comma);
        if (comma == std::string::npos || !isHex16(hash)) {
            why = "missing or malformed record hash";
        } else if (recordHash(scan.header.configFingerprint, payload)
                   != hash) {
            why = "record hash mismatch (payload altered or torn)";
        } else if (countCells(payload) != payload_cells) {
            why = "expected " + std::to_string(payload_cells)
                + " payload fields, got "
                + std::to_string(countCells(payload));
        } else {
            const std::string name =
                payload.substr(0, payload.find(','));
            const auto prior = seen.find(name);
            if (prior != seen.end()) {
                why = "duplicate record for pair '" + name
                    + "' (first at record "
                    + std::to_string(prior->second) + ")";
            } else {
                seen.emplace(name, index);
                scan.records.push_back(line);
                scan.names.push_back(name);
                ++index;
                continue;
            }
        }
        scan.corrupt = true;
        scan.corruptRecord = index;
        scan.corruptReason = why;
        break;
    }
    return scan;
}

JournalScan
scanJournal(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return scanJournalContent("", /*file_ok=*/false);
    std::ostringstream content;
    content << in.rdbuf();
    return scanJournalContent(content.str(), /*file_ok=*/true);
}

std::string
journalFileName(const std::string &stem, unsigned shard_index,
                unsigned shard_count)
{
    if (shard_count <= 1)
        return stem + ".csv";
    return stem + ".shard" + std::to_string(shard_index) + "of"
        + std::to_string(shard_count) + ".csv";
}

JournalSession::JournalSession(std::string file, JournalHeader header,
                               std::string column_header,
                               JournalIoFaultInjector *faults)
    : file_(std::move(file)), header_(std::move(header)),
      columnHeader_(std::move(column_header)), faults_(faults)
{
}

JournalSession::Prefix
JournalSession::open(const std::vector<std::string> &names, bool resume,
                     const RowParser &parse)
{
    Prefix prefix;
    if (file_.empty())
        return prefix;
    std::ifstream in(file_, std::ios::binary);
    if (!in)
        return prefix;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string content = buffer.str();

    if (faults_) {
        const auto fault = faults_->onJournalRead(file_);
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
        warn("ignoring journal at ", file_, ": ", scan.headerError);
        return prefix;
    }
    if (scan.header.configFingerprint != header_.configFingerprint) {
        // Replaying another campaign's records would silently splice
        // two configurations into one result set.
        if (resume) {
            throw JournalConfigMismatchError(
                "refusing to resume from " + file_
                + ": journal was written under config "
                + scan.header.configFingerprint
                + " but this invocation has config "
                + header_.configFingerprint
                + " (rerun without --resume to recompute and "
                  "overwrite, or point the cache elsewhere)");
        }
        return prefix;
    }
    if (scan.header.pairsDigest != header_.pairsDigest
        || scan.header.shardIndex != header_.shardIndex
        || scan.header.shardCount != header_.shardCount
        || scan.columnHeader != columnHeader_) {
        // Another enumeration, shard or build: a miss, not damage.
        return prefix;
    }
    if (scan.corrupt) {
        warn("quarantining journal tail of ", file_, " (",
             scan.corruptReason, ") after ", scan.records.size(),
             " valid record(s)");
    }

    // The hash-verified records still cross the name-order check and
    // the store's parser: only an order-matching prefix is a valid
    // checkpoint of *this* sweep.
    std::size_t kept = 0;
    for (; kept < scan.records.size() && kept < names.size(); ++kept) {
        if (scan.names[kept] != names[kept]) {
            warn("journal row ", kept, " names '", scan.names[kept],
                 "' where '", names[kept],
                 "' was expected; discarding the rest");
            break;
        }
        const std::string &record = scan.records[kept];
        std::string reason;
        if (!parse(kept, record.substr(0, record.rfind(',')), reason)) {
            warn("quarantining journal tail (", reason, ") after ", kept,
                 " valid rows");
            break;
        }
    }
    prefix.complete = !scan.corrupt && kept == names.size()
        && scan.records.size() == names.size();
    if (prefix.complete || resume)
        prefix.records = kept;
    if (!prefix.complete && prefix.records > 0)
        inform("resuming sweep from journal: ", prefix.records,
               " record(s) replayed without re-simulation");
    return prefix;
}

void
JournalSession::commit(const std::vector<std::string> &payloads,
                       bool quiet)
{
    if (file_.empty() || (quiet && warned_))
        return;
    // Render the complete journal image up front: the commit (and any
    // injected fault) operates on the exact final bytes.
    std::string image = header_.serialize() + "\n" + columnHeader_ + "\n";
    for (const std::string &payload : payloads) {
        image += payload;
        image += ",";
        image += recordHash(header_.configFingerprint, payload);
        image += "\n";
    }

    JournalIoFaultInjector::WriteFault fault;
    if (faults_)
        fault = faults_->onJournalWrite(file_, commits_);
    ++commits_;
    using Kind = JournalIoFaultInjector::WriteFault::Kind;
    std::string error;
    if (fault.kind == Kind::TornWrite) {
        // Simulated crash/power cut mid-write: a byte-level prefix of
        // the new image lands in the *final* file, bypassing the
        // temp-then-rename discipline, which is exactly what this
        // fault models. The hash check quarantines the damaged tail
        // on reopen.
        std::ofstream out(file_, std::ios::trunc | std::ios::binary);
        out.write(image.data(),
                  static_cast<std::streamsize>(
                      std::min(fault.keepBytes, image.size())));
        error = "torn write (injected); the damaged tail will be "
                "quarantined on reopen";
    } else if (fault.kind == Kind::Enospc) {
        error = "out of space (injected)";
    } else if (writeFileAtomic(file_, image, error)) {
        return;
    }
    // The sweep carries on: committed records stay trustworthy and
    // the uncommitted ones are recomputed on resume.
    warn("cannot commit result journal to ", file_, ": ", error,
         "; continuing without checkpoint");
    warned_ = true;
}

void
JournalSession::invalidate(const std::string &stem, unsigned shard_index,
                           unsigned shard_count)
{
    // Unsharded, both names are the same file; removing it twice is
    // harmless.
    for (const std::string &file :
         {journalFileName(stem, 1, 1),
          journalFileName(stem, shard_index, shard_count)}) {
        std::remove(file.c_str());
        std::remove((file + ".tmp").c_str());
    }
}

bool
repairJournal(const std::string &path, std::string &error)
{
    const JournalScan scan = scanJournal(path);
    if (!scan.headerOk) {
        error = "unrepairable journal (" + scan.headerError
            + "): the campaign header is the root of trust, and it "
              "is damaged";
        return false;
    }
    std::ostringstream out;
    out << scan.header.serialize() << "\n" << scan.columnHeader
        << "\n";
    for (const std::string &record : scan.records)
        out << record << "\n";
    return writeFileAtomic(path, out.str(), error);
}

MergeOutcome
mergeJournals(const std::vector<std::string> &shard_paths,
              const std::string &out_path, bool allow_partial)
{
    MergeOutcome outcome;
    if (shard_paths.empty()) {
        outcome.error = "no shard journals to merge";
        return outcome;
    }

    // Pass 1: scan and cross-validate every shard. Merge is strict
    // about integrity -- a corrupt shard must be fsck'd (and
    // possibly --repair'd) first, so damage is an explicit operator
    // decision instead of silently shortening the campaign.
    std::vector<JournalScan> scans;
    scans.reserve(shard_paths.size());
    for (const std::string &path : shard_paths) {
        JournalScan scan = scanJournal(path);
        if (!scan.headerOk) {
            outcome.error = path + ": " + scan.headerError;
            return outcome;
        }
        if (scan.corrupt) {
            outcome.error = path + ": record "
                + std::to_string(scan.corruptRecord) + " is damaged ("
                + scan.corruptReason
                + "); run `spec17 fsck --repair` first";
            return outcome;
        }
        scans.push_back(std::move(scan));
    }
    const JournalScan &first = scans.front();
    for (std::size_t i = 1; i < scans.size(); ++i) {
        const JournalScan &scan = scans[i];
        if (scan.header.configFingerprint
            != first.header.configFingerprint) {
            outcome.error = shard_paths[i]
                + ": config fingerprint "
                + scan.header.configFingerprint
                + " does not match " + shard_paths[0] + " ("
                + first.header.configFingerprint
                + "); shards come from different campaigns";
            return outcome;
        }
        if (scan.header.pairsDigest != first.header.pairsDigest) {
            outcome.error = shard_paths[i]
                + ": pair-set digest does not match "
                + shard_paths[0]
                + "; shards enumerate different pair sets";
            return outcome;
        }
        if (scan.header.shardCount != first.header.shardCount) {
            outcome.error = shard_paths[i] + ": shard count "
                + std::to_string(scan.header.shardCount)
                + " does not match "
                + std::to_string(first.header.shardCount);
            return outcome;
        }
        if (scan.columnHeader != first.columnHeader) {
            outcome.error = shard_paths[i]
                + ": column header differs from " + shard_paths[0]
                + " (mixed builds?)";
            return outcome;
        }
    }

    // Pass 2: place every record at its canonical index. Record j of
    // shard K/N is canonical pair j*N + (K-1) -- the round-robin
    // partition is what lets the merge reconstruct total order
    // without re-enumerating the suite.
    const unsigned shard_count = first.header.shardCount;
    std::map<std::size_t, std::pair<std::string, std::size_t>> slots;
    std::map<std::string, std::size_t> name_slots;
    std::map<unsigned, std::size_t> shard_sources;
    for (std::size_t s = 0; s < scans.size(); ++s) {
        const JournalScan &scan = scans[s];
        const unsigned k = scan.header.shardIndex;
        const auto prior = shard_sources.find(k);
        if (prior != shard_sources.end()) {
            // The same shard delivered twice (e.g. a retried upload):
            // tolerated only when byte-identical.
            const JournalScan &other = scans[prior->second];
            if (scan.records != other.records) {
                std::size_t at = 0;
                const std::size_t limit = std::min(
                    scan.records.size(), other.records.size());
                while (at < limit
                       && scan.records[at] == other.records[at])
                    ++at;
                outcome.error = "divergent duplicate of shard "
                    + scan.header.shardLabel() + ": "
                    + shard_paths[s] + " and "
                    + shard_paths[prior->second]
                    + " disagree at record " + std::to_string(at);
                return outcome;
            }
            continue;
        }
        shard_sources.emplace(k, s);
        for (std::size_t j = 0; j < scan.records.size(); ++j) {
            const std::size_t canonical = j * shard_count + (k - 1);
            const std::string &name = scan.names[j];
            const auto name_prior = name_slots.find(name);
            if (name_prior != name_slots.end()
                && name_prior->second != canonical) {
                outcome.error = "overlapping shards: pair '" + name
                    + "' appears at canonical index "
                    + std::to_string(name_prior->second)
                    + " and again at "
                    + std::to_string(canonical) + " (from "
                    + shard_paths[s] + ")";
                return outcome;
            }
            name_slots.emplace(name, canonical);
            slots.emplace(canonical,
                          std::make_pair(scan.records[j], s));
        }
    }
    outcome.shardsMerged = shard_sources.size();

    // Pass 3: the union must form a gap-free canonical prefix --
    // the defining journal invariant (resume and readers rely on it).
    std::vector<const std::string *> ordered;
    ordered.reserve(slots.size());
    std::size_t expected = 0;
    for (const auto &[canonical, entry] : slots) {
        if (canonical != expected) {
            if (!allow_partial) {
                const unsigned missing_shard = static_cast<unsigned>(
                    expected % shard_count) + 1;
                outcome.error = "gap at canonical record "
                    + std::to_string(expected) + " (shard "
                    + std::to_string(missing_shard) + "/"
                    + std::to_string(shard_count)
                    + " is missing or partial); pass --allow-partial "
                      "to keep the contiguous prefix";
                return outcome;
            }
            break;
        }
        ordered.push_back(&entry.first);
        ++expected;
    }
    outcome.recordsDropped = slots.size() - ordered.size();

    JournalHeader merged = first.header;
    merged.shardIndex = 1;
    merged.shardCount = 1;
    std::ostringstream out;
    out << merged.serialize() << "\n" << first.columnHeader << "\n";
    for (const std::string *record : ordered)
        out << *record << "\n";
    if (!writeFileAtomic(out_path, out.str(), outcome.error))
        return outcome;
    outcome.recordsWritten = ordered.size();
    outcome.ok = true;
    return outcome;
}

} // namespace suite
} // namespace spec17
