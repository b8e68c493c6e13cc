#include "trace/file.hh"

#include <algorithm>
#include <cstring>

#include "util/logging.hh"

namespace spec17 {
namespace trace {

namespace {

constexpr char kMagic[4] = {'S', '1', '7', 'T'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kRecordBytes = 28;
constexpr std::size_t kBufferRecords = 4096;

/** Packs one micro-op into a 28-byte record. */
void
pack(const isa::MicroOp &op, unsigned char *out)
{
    out[0] = static_cast<unsigned char>(op.cls);
    out[1] = static_cast<unsigned char>(op.branch);
    out[2] = packFlags(op);
    out[3] = op.size;
    std::memcpy(out + 4, &op.pc, 8);
    std::memcpy(out + 12, &op.effAddr, 8);
    std::memcpy(out + 20, &op.target, 8);
}

/** Unpacks a 28-byte record; panics on invalid enum or flags bytes
 *  and on an op the lanes cannot carry (see trace/file.hh). */
isa::MicroOp
unpack(const unsigned char *in)
{
    SPEC17_ASSERT(in[0] < isa::kNumUopClasses,
                  "corrupt trace record: bad uop class ", int(in[0]));
    SPEC17_ASSERT(in[1] <= isa::kNumBranchKinds,
                  "corrupt trace record: bad branch kind ", int(in[1]));
    SPEC17_ASSERT(in[2] <= kFlagMask,
                  "corrupt trace record: bad flags ", int(in[2]));
    isa::MicroOp op;
    op.cls = static_cast<isa::UopClass>(in[0]);
    op.branch = static_cast<isa::BranchKind>(in[1]);
    op.taken = (in[2] & kFlagTaken) != 0;
    op.depOnLoad = (in[2] & kFlagDepOnLoad) != 0;
    op.depOnPrev = (in[2] & kFlagDepOnPrev) != 0;
    op.size = in[3];
    std::memcpy(&op.pc, in + 4, 8);
    std::memcpy(&op.effAddr, in + 12, 8);
    std::memcpy(&op.target, in + 20, 8);
    SPEC17_ASSERT(fitsLanes(op), "corrupt trace record: ",
                  isa::uopClassName(op.cls), " op with effAddr ",
                  op.effAddr, " and target ", op.target);
    return op;
}

} // namespace

std::uint64_t
writeTrace(const std::string &path, TraceSource &source)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        SPEC17_FATAL("cannot open trace file for writing: ", path);

    // Header with a placeholder count, patched at the end.
    std::uint64_t count = 0;
    const std::uint64_t reserve = source.virtualReserveBytes();
    out.write(kMagic, 4);
    out.write(reinterpret_cast<const char *>(&kVersion), 4);
    out.write(reinterpret_cast<const char *>(&count), 8);
    out.write(reinterpret_cast<const char *>(&reserve), 8);

    unsigned char record[kRecordBytes];
    isa::MicroOp op;
    while (source.next(op)) {
        pack(op, record);
        out.write(reinterpret_cast<const char *>(record),
                  kRecordBytes);
        ++count;
    }
    out.seekp(8);
    out.write(reinterpret_cast<const char *>(&count), 8);
    if (!out)
        SPEC17_FATAL("write failure on trace file: ", path);
    return count;
}

FileTrace::FileTrace(const std::string &path) : path_(path)
{
    in_.open(path, std::ios::binary);
    if (!in_)
        SPEC17_FATAL("cannot open trace file: ", path);
    char magic[4];
    std::uint32_t version = 0;
    in_.read(magic, 4);
    in_.read(reinterpret_cast<char *>(&version), 4);
    in_.read(reinterpret_cast<char *>(&count_), 8);
    in_.read(reinterpret_cast<char *>(&reserveBytes_), 8);
    if (!in_ || std::memcmp(magic, kMagic, 4) != 0)
        SPEC17_FATAL("not a spec17 trace file: ", path);
    if (version != kVersion)
        SPEC17_FATAL("trace file version ", version,
                     " unsupported (want ", kVersion, "): ", path);
    buffer_.reserve(kBufferRecords);
}

void
FileTrace::refill()
{
    buffer_.clear();
    bufferPos_ = 0;
    const std::uint64_t remaining = count_ - delivered_;
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, kBufferRecords));
    if (want == 0)
        return;
    std::vector<unsigned char> raw(want * kRecordBytes);
    in_.read(reinterpret_cast<char *>(raw.data()),
             static_cast<std::streamsize>(raw.size()));
    SPEC17_ASSERT(static_cast<std::size_t>(in_.gcount()) == raw.size(),
                  "trace file truncated: ", path_);
    for (std::size_t i = 0; i < want; ++i)
        buffer_.push_back(unpack(raw.data() + i * kRecordBytes));
}

bool
FileTrace::next(isa::MicroOp &op)
{
    if (delivered_ >= count_)
        return false;
    if (bufferPos_ >= buffer_.size())
        refill();
    op = buffer_[bufferPos_++];
    ++delivered_;
    return true;
}

std::uint64_t
FileTrace::virtualReserveBytes() const
{
    return reserveBytes_;
}

} // namespace trace
} // namespace spec17
