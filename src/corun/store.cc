#include "corun/store.hh"

#include <limits>
#include <optional>
#include <sstream>

namespace spec17 {
namespace corun {

namespace {

/** Payload columns; the journal's column header appends record_hash.
 *  `members` packs one `:`-separated cell per context, `;`-joined. */
std::string
columnHeader()
{
    return "name,masks,members,record_hash";
}

/** `<base>.corun.<size>`: the journal stem of one input size. */
std::string
journalStem(const std::string &base, workloads::InputSize size)
{
    return base + ".corun." + workloads::inputSizeName(size);
}

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream stream(text);
    while (std::getline(stream, cell, sep))
        cells.push_back(cell);
    if (!text.empty() && text.back() == sep)
        cells.push_back("");
    return cells;
}

} // namespace

std::string
corunConfigFingerprint(const CorunRunner &runner)
{
    return suite::hex16(suite::fnv1a(runner.configKey()));
}

std::string
serializeCorunRow(const CorunResult &result)
{
    // Full double precision so the payload -- and therefore its hash,
    // and therefore the journal bytes -- is identical no matter which
    // process or shard writes it.
    std::ostringstream out;
    out.precision(17);
    out << result.name << ","
        << (result.masks.empty() ? "-" : maskSetLabel(result.masks));
    out << ",";
    for (std::size_t c = 0; c < result.members.size(); ++c) {
        const MemberResult &m = result.members[c];
        out << (c == 0 ? "" : ";") << m.name << ":" << m.cycles << ":"
            << m.soloCycles << ":" << m.instructions << ":" << m.l3Hits
            << ":" << m.l3Misses << ":" << m.evictionsInflicted << ":"
            << m.evictionsSuffered << ":" << m.occupancyLines;
    }
    return out.str();
}

CorunResult
parseCorunRow(const std::string &payload, std::string &reason)
{
    CorunResult result;
    const std::vector<std::string> cells = splitOn(payload, ',');
    if (cells.size() != 3) {
        reason = "expected 3 fields, got "
            + std::to_string(cells.size());
        return {};
    }
    result.name = cells[0];
    if (cells[1] != "-") {
        for (const std::string &mask : splitOn(cells[1], '+')) {
            if (mask.size() <= 2 || mask.compare(0, 2, "0x") != 0) {
                reason = "malformed mask cell '" + cells[1] + "'";
                return {};
            }
            const auto value = suite::parseUnsigned(
                std::string_view(mask).substr(2),
                std::numeric_limits<std::uint32_t>::max(), 16);
            if (!value) {
                reason = "unparsable mask '" + mask + "'";
                return {};
            }
            result.masks.push_back(
                static_cast<std::uint32_t>(*value));
        }
    }
    for (const std::string &cell : splitOn(cells[2], ';')) {
        const std::vector<std::string> fields = splitOn(cell, ':');
        if (fields.size() != 9) {
            reason = "expected 9 member fields, got "
                + std::to_string(fields.size());
            return {};
        }
        MemberResult m;
        m.name = fields[0];
        const auto cycles = suite::parseDouble(fields[1]);
        const auto solo = suite::parseDouble(fields[2]);
        const auto instr = suite::parseUnsigned(fields[3]);
        const auto hits = suite::parseUnsigned(fields[4]);
        const auto misses = suite::parseUnsigned(fields[5]);
        const auto inflicted = suite::parseUnsigned(fields[6]);
        const auto suffered = suite::parseUnsigned(fields[7]);
        const auto occupancy = suite::parseUnsigned(fields[8]);
        if (m.name.empty() || !cycles || !solo || !instr || !hits
            || !misses || !inflicted || !suffered || !occupancy) {
            reason = "unparsable member cell '" + cell + "'";
            return {};
        }
        m.cycles = *cycles;
        m.soloCycles = *solo;
        m.instructions = *instr;
        m.l3Hits = *hits;
        m.l3Misses = *misses;
        m.evictionsInflicted = *inflicted;
        m.evictionsSuffered = *suffered;
        m.occupancyLines = *occupancy;
        result.members.push_back(std::move(m));
    }
    if (result.name.empty()) {
        reason = "record without a group name";
        return {};
    }
    return result;
}

CorunStore::CorunStore(std::string path, bool resume)
    : path_(std::move(path)), resume_(resume)
{
}

std::string
CorunStore::journalFile(const CorunRunner &runner) const
{
    if (path_.empty())
        return "";
    return suite::journalFileName(journalStem(path_, runner.options().size),
                                  shard_.index, shard_.count);
}

std::vector<CorunResult>
CorunStore::runOrLoad(const CorunRunner &runner,
                      const std::vector<CorunGroup> &groups,
                      const CorunRunner::GroupObserver &observer)
{
    const std::vector<CorunGroup> slice =
        suite::shardSlice(groups, shard_);
    suite::JournalHeader header;
    header.configFingerprint = corunConfigFingerprint(runner);
    header.pairsDigest = groupSetDigest(groups);
    header.shardIndex = shard_.index;
    header.shardCount = shard_.count;
    suite::JournalSession session(journalFile(runner), header,
                                  columnHeader());

    std::vector<std::string> names;
    names.reserve(slice.size());
    for (const CorunGroup &group : slice)
        names.push_back(group.name());
    std::vector<CorunResult> results;
    const suite::JournalSession::Prefix prefix = session.open(
        names, resume_,
        [&](std::size_t, const std::string &payload,
            std::string &reason) {
            CorunResult row = parseCorunRow(payload, reason);
            if (row.name.empty())
                return false;
            row.replayed = true;
            results.push_back(std::move(row));
            return true;
        });
    results.resize(prefix.records);
    if (prefix.complete)
        return results;

    std::vector<std::string> payloads;
    for (std::size_t i = 0; i < results.size(); ++i) {
        payloads.push_back(serializeCorunRow(results[i]));
        if (observer)
            observer(results[i], i, slice.size());
    }
    // The remainder runs on the ordered pool: completions arrive in
    // canonical order even at jobs > 1, so every checkpoint extends a
    // valid journal prefix.
    const std::size_t start = results.size();
    suite::runOrderedPool<CorunResult>(
        slice.size() - start, runner.options().jobs,
        [&](std::size_t k) { return runner.runGroup(slice[start + k]); },
        [&](const CorunResult &result, std::size_t k) {
            results.push_back(result);
            payloads.push_back(serializeCorunRow(result));
            session.commit(payloads, /*quiet=*/true);
            if (observer)
                observer(result, start + k, slice.size());
        });
    session.commit(payloads, /*quiet=*/false);
    return results;
}

void
CorunStore::invalidate() const
{
    if (path_.empty())
        return;
    for (workloads::InputSize size : workloads::kAllInputSizes)
        suite::JournalSession::invalidate(journalStem(path_, size),
                                          shard_.index, shard_.count);
}

} // namespace corun
} // namespace spec17
