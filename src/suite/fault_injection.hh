/**
 * @file
 * Deterministic fault-injection hooks for suite execution and
 * journal I/O.
 *
 * Two seams:
 *
 *  - FaultInjector: the runner consults it once per attempt at each
 *    application-input pair, before simulation starts. Tests use
 *    this to force throws, runaway (stalled) trace generation and
 *    transient attempt-1 failures at chosen pairs, making every
 *    recovery path of the fault-isolation layer exercisable without
 *    timing races: injection decisions are keyed on (pair name,
 *    attempt index), both of which are deterministic under a fixed
 *    root seed.
 *
 *  - JournalIoFaultInjector: the journal session (suite/journal.hh)
 *    of a ResultCache it is installed on consults it at every
 *    journal commit and reopen. Tests script torn writes (a crash
 *    or power cut leaves a byte-level prefix on disk), ENOSPC-style
 *    failed commits, short reads and bit-flips-on-reopen, proving
 *    the sweep degrades to warn-and-continue -- committed records
 *    stay trustworthy, damaged ones are recomputed on resume, and
 *    nothing ever crashes or silently returns corrupt results.
 */

#ifndef SPEC17_SUITE_FAULT_INJECTION_HH_
#define SPEC17_SUITE_FAULT_INJECTION_HH_

#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace spec17 {
namespace suite {

/** Injection interface the runner consults once per pair attempt. */
class FaultInjector
{
  public:
    /** What to inject into the consulted attempt. */
    enum class Action
    {
        None,  //!< run normally
        Throw, //!< raise an exception before simulation starts
        Stall, //!< make trace generation run past its op budget
    };

    virtual ~FaultInjector();

    /**
     * Called at the start of every attempt (including replays under
     * retry). @p pair is the display name, @p attempt is 0-based.
     */
    virtual Action onAttempt(const std::string &pair,
                             unsigned attempt) = 0;
};

/**
 * Scripted injector for tests: actions are programmed per
 * (pair, attempt) and every consultation is recorded, so tests can
 * also use it as a probe for which pairs a sweep actually simulated
 * (e.g. to prove resume-from-journal skips completed pairs).
 * Consultations are serialized internally, so the probe also works
 * under parallel sweeps -- though with jobs > 1 the recorded order
 * reflects completion order, not pair order (compare as sets).
 */
class ScriptedFaultInjector : public FaultInjector
{
  public:
    /** Injects @p action when @p pair reaches @p attempt. */
    void set(const std::string &pair, unsigned attempt, Action action);

    /** Throws on attempts [0, fail_count): a transient failure that
     *  succeeds once retries get past it. */
    void failFirstAttempts(const std::string &pair, unsigned fail_count);

    Action onAttempt(const std::string &pair,
                     unsigned attempt) override;

    /** Every (pair, attempt) the runner consulted, in consultation
     *  order. Read after the sweep has joined its workers. */
    const std::vector<std::pair<std::string, unsigned>> &
    consulted() const
    {
        return consulted_;
    }

  private:
    /** Guards consulted_ against concurrent sweep workers (plan_ is
     *  only written before the sweep starts). */
    std::mutex mutex_;
    std::map<std::pair<std::string, unsigned>, Action> plan_;
    std::vector<std::pair<std::string, unsigned>> consulted_;
};

/**
 * Journal-I/O injection interface. The journal session consults
 * onJournalWrite() once per commit attempt (with the 0-based commit
 * index of the sweep) and onJournalRead() once per journal reopen,
 * applying the returned fault to that one operation.
 */
class JournalIoFaultInjector
{
  public:
    /** What to do to one journal commit. */
    struct WriteFault
    {
        enum class Kind
        {
            None,      //!< commit normally
            TornWrite, //!< leave only keepBytes of the new content on
                       //!< disk (simulated crash/power cut mid-write)
                       //!< and report the commit failed
            Enospc,    //!< fail the commit outright, leaving the
                       //!< previous journal intact (no space / EIO)
        };
        Kind kind = Kind::None;
        std::size_t keepBytes = 0;
    };

    /** What to do to one journal reopen. */
    struct ReadFault
    {
        enum class Kind
        {
            None,      //!< read normally
            ShortRead, //!< deliver only keepBytes of the file
            BitFlip,   //!< flip bit @c bit of byte @c offset
        };
        Kind kind = Kind::None;
        std::size_t keepBytes = 0;
        std::size_t offset = 0;
        unsigned bit = 0;
    };

    virtual ~JournalIoFaultInjector();

    /** Consulted before commit @p commit_index (0-based within one
     *  sweep) of the journal at @p path. */
    virtual WriteFault onJournalWrite(const std::string &path,
                                      unsigned commit_index) = 0;

    /** Consulted at every reopen of the journal at @p path. */
    virtual ReadFault onJournalRead(const std::string &path) = 0;
};

/**
 * Scripted journal-I/O injector for tests. Write faults are keyed on
 * the sweep's commit index; read faults form a queue consumed one
 * per reopen (unscripted operations run clean). Thread-safe like
 * ScriptedFaultInjector, and usable as a probe: consultation counts
 * record how often the cache actually touched the journal.
 */
class ScriptedJournalIoFaults : public JournalIoFaultInjector
{
  public:
    /** Tears commit @p commit_index down to @p keep_bytes bytes. */
    void tornWriteAt(unsigned commit_index, std::size_t keep_bytes);

    /** Fails commit @p commit_index outright (ENOSPC semantics). */
    void enospcAt(unsigned commit_index);

    /** Fails every commit from @p commit_index on. */
    void enospcFrom(unsigned commit_index);

    /** Queues a short read delivering only @p keep_bytes. */
    void shortReadNext(std::size_t keep_bytes);

    /** Queues a bit-flip of bit @p bit of byte @p offset. */
    void bitFlipNext(std::size_t offset, unsigned bit);

    WriteFault onJournalWrite(const std::string &path,
                              unsigned commit_index) override;
    ReadFault onJournalRead(const std::string &path) override;

    /** Commits / reopens consulted so far. */
    unsigned writesConsulted() const;
    unsigned readsConsulted() const;

  private:
    mutable std::mutex mutex_;
    std::map<unsigned, WriteFault> writePlan_;
    /** All commits >= this index fail with Enospc (disabled when
     *  larger than any commit index, the default). */
    unsigned enospcFrom_ = 0xffffffffu;
    std::deque<ReadFault> readPlan_;
    unsigned writes_ = 0;
    unsigned reads_ = 0;
};

} // namespace suite
} // namespace spec17

#endif // SPEC17_SUITE_FAULT_INJECTION_HH_
