/**
 * @file
 * Self-validating sweep-journal format (v2) and its offline
 * toolchain: scan, fsck/repair, and shard merge.
 *
 * A v2 journal is a text file of three parts:
 *
 *   1. a one-line campaign header binding the file to its campaign:
 *      format version, config fingerprint (hash of the runner's
 *      config key), pair-set digest (hash of the full canonical
 *      pair enumeration) and shard identity `K/N`;
 *   2. a CSV column-header line (doubles as a counter-set format
 *      check) whose last column is `record_hash`;
 *   3. one record per completed pair, in the shard's pair order,
 *      each line `payload,hash` where hash covers the campaign's
 *      config fingerprint plus the payload.
 *
 * Every record's provenance and integrity is therefore checkable
 * offline, with no access to the build that wrote it: the hash binds
 * the record both to its bytes (bit-flips) and to its campaign
 * (records smuggled in from a different configuration). Shards of one
 * campaign partition the canonical pair order round-robin -- record j
 * of shard K/N holds canonical index `j*N + (K-1)` -- so a merge can
 * reconstruct the exact unsharded journal without re-enumerating the
 * suite. The unsharded journal is simply shard 1/1; merging complete
 * shards 1..N/N reproduces it byte-identically.
 *
 * This header is deliberately independent of the runner: the merge
 * and fsck tools (and tests) operate on journal files at the line
 * level, never re-simulating or re-parsing results. The one journal
 * session (JournalSession) works on record payload strings too, so
 * every campaign store -- suite results, co-run groups -- shares it
 * and keeps only its own row codec.
 */

#ifndef SPEC17_SUITE_JOURNAL_HH_
#define SPEC17_SUITE_JOURNAL_HH_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/random.hh"

namespace spec17 {
namespace suite {

class JournalIoFaultInjector;

/** Journal format version this build reads and writes. */
inline constexpr unsigned kJournalFormatVersion = 2;

/** FNV-1a over @p data, continuing from @p seed (util/random.hh). */
using spec17::fnv1a;

/** 16-digit lowercase hex rendering of @p value. */
std::string hex16(std::uint64_t value);

/**
 * Parses one journal cell as an unsigned number in @p base (10, or 16
 * with lowercase digits): one or more digits and nothing else -- no
 * sign, blank or `0x` prefix -- whose value fits @p max, the largest
 * value of the field it lands in. nullopt otherwise. Every journal
 * reader parses its unsigned cells here.
 */
std::optional<std::uint64_t> parseUnsigned(
    std::string_view cell,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max(),
    unsigned base = 10);

/**
 * Parses one journal cell as a double in exactly the grammar the
 * 17-significant-digit writers emit: an optional `-`, digits, an
 * optional `.digits` and an optional `e` with a sign and digits. No
 * blank, `+`, hex float, `inf` or `nan` (no writer emits a non-finite
 * cell) and no value that overflows; a subnormal value loads. nullopt
 * otherwise. Every journal reader parses its double cells here.
 */
std::optional<double> parseDouble(std::string_view cell);

/**
 * Content hash of one journal record: FNV-1a over the campaign's
 * config fingerprint, a separator, and the record payload. Binding
 * the config fingerprint in makes a record unverifiable outside its
 * campaign, not just outside its file.
 */
std::string recordHash(const std::string &config_fingerprint,
                       const std::string &payload);

/** The one-line campaign header leading every v2 journal. */
struct JournalHeader
{
    unsigned version = kJournalFormatVersion;
    /** Fingerprint of the runner config key (see configFingerprint). */
    std::string configFingerprint;
    /** Digest of the full canonical pair enumeration (pre-shard). */
    std::string pairsDigest;
    /** 1-based shard identity; 1/1 is the canonical unsharded file. */
    unsigned shardIndex = 1;
    unsigned shardCount = 1;

    /** Renders the header line (no trailing newline). */
    std::string serialize() const;

    /** Parses a header line; nullopt with @p reason set on any
     *  malformation (including a v1 journal's bare fingerprint). */
    static std::optional<JournalHeader> parse(const std::string &line,
                                              std::string &reason);

    /** "K/N" label, e.g. "2/4". */
    std::string shardLabel() const;
};

/**
 * Line-level scan of one journal file: header validation plus the
 * longest verifiable record prefix. The scan stops at the first
 * damaged record -- journals are prefix-valid by construction, so
 * everything after the first fault is untrusted.
 */
struct JournalScan
{
    /** File existed and was readable. */
    bool fileOk = false;
    /** Campaign header and column header parsed and validated. */
    bool headerOk = false;
    /** Diagnosis when !fileOk or !headerOk. */
    std::string headerError;
    JournalHeader header;
    /** Verbatim column-header line. */
    std::string columnHeader;
    /** Verbatim `payload,hash` record lines of the valid prefix. */
    std::vector<std::string> records;
    /** First CSV cell (pair name) of each valid record. */
    std::vector<std::string> names;
    /** A damaged record (and therefore suffix) was quarantined. */
    bool corrupt = false;
    /** 0-based index of the first damaged record. */
    std::size_t corruptRecord = 0;
    /** Diagnosis of the first damaged record. */
    std::string corruptReason;

    /** Fully intact: header valid and no quarantined suffix. */
    bool clean() const { return headerOk && !corrupt; }
};

/** Scans the journal at @p path (see JournalScan). */
JournalScan scanJournal(const std::string &path);

/** scanJournal() over in-memory content (@p file_ok mirrors a read
 *  failure; pass true when the bytes came from a real file). */
JournalScan scanJournalContent(const std::string &content, bool file_ok);

/** `<stem>.csv`, or `<stem>.shardKofN.csv` for shard K of an actual
 *  split (N > 1): the journal file of one campaign slice. */
std::string journalFileName(const std::string &stem, unsigned shard_index,
                            unsigned shard_count);

/**
 * Thrown when --resume finds a journal written under a different
 * config key: replaying it would splice results from one campaign
 * into another, so the sweep refuses loudly instead of guessing.
 * (Without resume, a mismatched journal is an ordinary cache miss.)
 */
class JournalConfigMismatchError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * One sweep's session on one journal file, shared by every campaign
 * store. The store supplies the campaign header, its column header,
 * the expected record names and a row parser; the session owns
 * everything between those and the bytes on disk:
 *
 *  - open(): one read through the I/O fault hook, campaign-header
 *    classification, the hash-verified record prefix, the record-name
 *    order check, the store's row parser, and the resume policy --
 *    a complete journal is a cache hit even without resume, a partial
 *    prefix replays only with resume, and resuming from another
 *    config key throws JournalConfigMismatchError;
 *  - commit(): renders the journal image from record payloads and
 *    commits it atomically. A failed commit warns and leaves the
 *    previous journal in place; after one failure, quiet checkpoint
 *    commits are skipped for the rest of the session, while the final
 *    loud commit is always attempted and reports its own failure.
 *
 * A session with an empty file persists nothing: open() finds no
 * records and commits do nothing.
 */
class JournalSession
{
  public:
    /**
     * Decodes the payload of record @p index (hash-verified, its name
     * already checked) into the store's rows. Returning false, with
     * @p reason set, rejects the record and everything after it.
     */
    using RowParser = std::function<bool(
        std::size_t index, const std::string &payload, std::string &reason)>;

    /** What open() found. */
    struct Prefix
    {
        /** Leading parsed rows the store keeps: rows the parser
         *  accepted beyond this count are dropped by the policy. */
        std::size_t records = 0;
        /** Every expected record was journaled and nothing is
         *  damaged: the session has nothing left to run. */
        bool complete = false;
    };

    JournalSession() = default;

    /**
     * @param file journal file ("" disables persistence)
     * @param header the campaign header written and expected
     * @param column_header payload columns plus `,record_hash`
     * @param faults test-only I/O fault hook (borrowed; may be null)
     */
    JournalSession(std::string file, JournalHeader header,
                   std::string column_header,
                   JournalIoFaultInjector *faults = nullptr);

    /** Reads the journal and applies the resume policy (see the class
     *  comment). @p names are the expected record names, in order. */
    Prefix open(const std::vector<std::string> &names, bool resume,
                const RowParser &parse);

    /** Commits @p payloads as the whole record list; @p quiet marks a
     *  mid-sweep checkpoint, false the final commit. */
    void commit(const std::vector<std::string> &payloads, bool quiet);

    /** Removes the journals a session on @p stem may have written
     *  under shard K/N (the unsharded file and the shard's) together
     *  with their commit temps. */
    static void invalidate(const std::string &stem, unsigned shard_index,
                           unsigned shard_count);

  private:
    std::string file_;
    JournalHeader header_;
    std::string columnHeader_;
    JournalIoFaultInjector *faults_ = nullptr;
    /** Commit index within the session (I/O fault keying). */
    unsigned commits_ = 0;
    /** A commit failed: quiet checkpoints are skipped from now on. */
    bool warned_ = false;
};

/**
 * Rewrites the journal at @p path down to its valid prefix (header
 * plus the records scanJournal() verified), atomically. Refuses --
 * returning false with @p error set -- when the header itself is
 * damaged (there is no trusted content to keep) or the file cannot
 * be rewritten. A clean journal is rewritten unchanged.
 */
bool repairJournal(const std::string &path, std::string &error);

/** Outcome of merging shard journals into one canonical journal. */
struct MergeOutcome
{
    bool ok = false;
    /** Diagnosis when !ok. */
    std::string error;
    /** Records written to the merged journal. */
    std::size_t recordsWritten = 0;
    /** Distinct shard files consumed. */
    std::size_t shardsMerged = 0;
    /** Canonical records dropped at the first gap (only ever non-zero
     *  when allow_partial accepted an incomplete shard set). */
    std::size_t recordsDropped = 0;
};

/**
 * Validates and fuses the shard journals at @p shard_paths into one
 * canonical (shard 1/1) journal at @p out_path, written atomically.
 *
 * Merge invariants, each enforced with a named error:
 *  - every input is a clean v2 journal (fsck/--repair first if not);
 *  - all inputs share config fingerprint, pair-set digest, shard
 *    count and column header (one campaign, one format);
 *  - duplicate shard files are tolerated only when byte-identical;
 *    a record claimed twice with different bytes is a divergent
 *    duplicate and fails the merge;
 *  - one pair name may occupy only one canonical slot (overlapping
 *    or mislabeled shards fail the merge);
 *  - the union of records must cover a gap-free canonical prefix;
 *    with @p allow_partial the journal is truncated at the first gap
 *    (reported via recordsDropped), otherwise a gap fails the merge.
 *
 * Merging the complete shards 1..N/N of a campaign reproduces the
 * unsharded journal byte-for-byte.
 */
MergeOutcome mergeJournals(const std::vector<std::string> &shard_paths,
                           const std::string &out_path,
                           bool allow_partial = false);

} // namespace suite
} // namespace spec17

#endif // SPEC17_SUITE_JOURNAL_HH_
