/**
 * @file
 * Trace persistence: write any TraceSource to a compact binary file
 * and replay it later. This is the bring-your-own-trace surface: a
 * user can generate traces elsewhere (e.g. from a binary-
 * instrumentation tool), convert them to this format, and
 * characterize them on the simulated machine.
 *
 * Format (little-endian):
 *   header: magic "S17T", u32 version, u64 record count,
 *           u64 virtual-reserve bytes
 *   records: packed MicroOp fields, 28 bytes each: u8 class, u8
 *            kind, u8 flags (trace::kFlag* bits), u8 size, u64 pc,
 *            u64 effAddr, u64 target
 *
 * A record the SoA lanes cannot carry (an undefined enum or flag bit,
 * a branch kind off a branch or a branch without one, or !fitsLanes)
 * is a fatal error when decoded, so a batched pull -- the base
 * adapter, next() into MicroOpBatch::set() -- never delivers a
 * different op than next() does, and the simulator never sees an op
 * a trace arena would reject. So is a header that counts more records
 * than the file holds, caught when the file is opened.
 */

#ifndef SPEC17_TRACE_FILE_HH_
#define SPEC17_TRACE_FILE_HH_

#include <fstream>
#include <string>
#include <vector>

#include "trace/source.hh"

namespace spec17 {
namespace trace {

/**
 * Drains @p source into the trace file at @p path.
 * @return number of micro-ops written. Fatal on I/O failure.
 */
std::uint64_t writeTrace(const std::string &path, TraceSource &source);

/**
 * Streams a trace file from disk. Records are read and decoded through
 * a fixed-size buffer, the one decode path of both pull surfaces.
 */
class FileTrace : public TraceSource
{
  public:
    /** Opens and validates @p path; fatal on missing, corrupt or
     *  truncated files. */
    explicit FileTrace(const std::string &path);

    bool next(isa::MicroOp &op) override;
    std::uint64_t virtualReserveBytes() const override;

    /** Total records in the file. */
    std::uint64_t size() const { return count_; }

  private:
    void refill();

    std::string path_;
    std::ifstream in_;
    std::uint64_t count_ = 0;
    std::uint64_t reserveBytes_ = 0;
    std::uint64_t delivered_ = 0;
    std::vector<isa::MicroOp> buffer_;
    std::size_t bufferPos_ = 0;
    std::vector<unsigned char> raw_; //!< one refill's records, reused
};

} // namespace trace
} // namespace spec17

#endif // SPEC17_TRACE_FILE_HH_
