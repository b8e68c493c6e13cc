#include "trace/arena.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/atomic_file.hh"
#include "util/logging.hh"

namespace spec17 {
namespace trace {

namespace {

constexpr char kMagic[4] = {'S', '1', '7', 'A'};
/** Version 2: the six-lane layout (version 1 held nine lanes). */
constexpr std::uint32_t kVersion = 2;

/** Bytes one op occupies across the six lanes: the residency
 *  accounting unit and the spill image's per-op payload. */
constexpr std::size_t kOpBytes = sizeof(isa::UopClass)
    + sizeof(isa::BranchKind) + 2 * sizeof(std::uint64_t)
    + 2 * sizeof(std::uint8_t);

/** Appends one lane's raw bytes to the spill image. */
template <typename T>
void
appendLane(std::string &out, const std::vector<T> &lane, std::size_t n)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "spill lanes must be raw-copyable");
    out.append(reinterpret_cast<const char *>(lane.data()),
               n * sizeof(T));
}

/** Reads one lane's raw bytes back; false on a short image. */
template <typename T>
bool
readLane(std::istream &in, std::vector<T> &lane, std::size_t n)
{
    in.read(reinterpret_cast<char *>(lane.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
    return static_cast<std::size_t>(in.gcount()) == n * sizeof(T);
}

} // namespace

std::uint64_t
TraceArena::byteSize() const
{
    return static_cast<std::uint64_t>(lanes.capacity() * kOpBytes);
}

TraceArena
captureArena(TraceSource &source, std::size_t expected_ops)
{
    TraceArena arena;
    arena.lanes.ensure(expected_ops);
    arena.numOps = source.nextBatchSoA(arena.lanes, 0, expected_ops);
    arena.virtualReserveBytes = source.virtualReserveBytes();
    return arena;
}

TraceArena
captureArena(const SyntheticTraceParams &params)
{
    SyntheticTraceGenerator generator(params);
    TraceArena arena = captureArena(
        generator, static_cast<std::size_t>(params.numOps));
    arena.addressOffset = params.addressOffset;
    return arena;
}

std::string
describeTraceParams(const SyntheticTraceParams &params)
{
    std::ostringstream out;
    out << std::hexfloat;
    out << "trace-v1|ops=" << params.numOps << "|seed=" << params.seed
        << "|ld=" << params.loadFrac << "|st=" << params.storeFrac
        << "|br=" << params.branchFrac << "|fp=" << params.fpFrac
        << "|mul=" << params.mulFrac << "|div=" << params.divFrac
        << "|cond=" << params.condFrac
        << "|djmp=" << params.directJumpFrac
        << "|call=" << params.nearCallFrac
        << "|ijmp=" << params.indirectJumpFrac
        << "|ret=" << params.nearReturnFrac
        << "|bsites=" << params.numBranchSites
        << "|hard=" << params.hardBranchFrac
        << "|bias=" << params.easyTakenBias
        << "|brdep=" << params.branchDepOnLoadFrac
        << "|cdep=" << params.computeDepFrac
        << "|itgt=" << params.indirectTargets
        << "|iswitch=" << params.indirectSwitchProb
        << "|code=" << params.codeFootprintBytes
        << "|hot=" << params.hotCodeFrac
        << "|isites=" << params.numIndirectSites
        << "|extra=" << params.extraVirtualBytes
        << "|off=" << params.addressOffset;
    for (const MemoryRegionParams &region : params.regions) {
        out << "|r=" << accessPatternName(region.pattern) << ','
            << region.sizeBytes << ',' << region.strideBytes << ','
            << region.loadWeight << ',' << region.storeWeight;
    }
    return out.str();
}

bool
saveArena(const std::string &path, const TraceArena &arena)
{
    const std::size_t n = arena.numOps;
    std::string image;
    image.reserve(24 + static_cast<std::size_t>(arena.byteSize()));
    image.append(kMagic, 4);
    image.append(reinterpret_cast<const char *>(&kVersion), 4);
    const std::uint64_t count = n;
    image.append(reinterpret_cast<const char *>(&count), 8);
    image.append(
        reinterpret_cast<const char *>(&arena.virtualReserveBytes), 8);
    MicroOpBatch::forEachLane(
        [&](const auto &lane) { appendLane(image, lane, n); },
        arena.lanes);
    std::string error;
    if (!writeFileAtomic(path, image, error)) {
        warn("cannot spill trace arena: ", error);
        return false;
    }
    return true;
}

std::unique_ptr<TraceArena>
loadArena(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return nullptr;
    char magic[4];
    std::uint32_t version = 0;
    std::uint64_t count = 0;
    std::uint64_t reserve = 0;
    in.read(magic, 4);
    in.read(reinterpret_cast<char *>(&version), 4);
    in.read(reinterpret_cast<char *>(&count), 8);
    in.read(reinterpret_cast<char *>(&reserve), 8);
    if (!in || std::memcmp(magic, kMagic, 4) != 0
        || version != kVersion) {
        warn("ignoring unreadable arena spill (bad header): ", path);
        return nullptr;
    }
    // The op count must match the lane bytes actually present before
    // anything is allocated from it: a corrupt or forged count would
    // otherwise size the lanes from untrusted input.
    const std::streamoff lanes_start = in.tellg();
    in.seekg(0, std::ios::end);
    const auto lane_bytes =
        static_cast<std::uint64_t>(in.tellg() - lanes_start);
    in.seekg(lanes_start);
    if (lane_bytes % kOpBytes != 0 || count != lane_bytes / kOpBytes) {
        warn("ignoring arena spill whose op count disagrees with its "
             "size: ", path);
        return nullptr;
    }
    auto arena = std::make_unique<TraceArena>();
    const std::size_t n = static_cast<std::size_t>(count);
    arena->lanes.ensure(n);
    arena->numOps = n;
    arena->virtualReserveBytes = reserve;
    bool ok = true;
    MicroOpBatch::forEachLane(
        [&](auto &lane) { ok = ok && readLane(in, lane, n); },
        arena->lanes);
    if (!ok) {
        warn("ignoring truncated arena spill: ", path);
        return nullptr;
    }
    // Reject out-of-range enum and flags bytes, a branch kind off a
    // branch (or a branch without one), and an operand on an op that
    // has none, so a corrupt spill cannot feed the simulator undefined
    // class values or an op no trace source delivers.
    const MicroOpBatch &lanes = arena->lanes;
    for (std::size_t i = 0; i < n; ++i) {
        if (static_cast<std::uint8_t>(lanes.cls[i]) >= isa::kNumUopClasses
            || static_cast<std::uint8_t>(lanes.kind[i])
                > isa::kNumBranchKinds
            || (lanes.cls[i] == isa::UopClass::Branch)
                != (lanes.kind[i] != isa::BranchKind::None)
            || lanes.flags[i] > kFlagMask
            || !fitsLanes(lanes.get(i))) {
            warn("ignoring corrupt arena spill (bad op record): ",
                 path);
            return nullptr;
        }
    }
    return arena;
}

ReplaySource::ReplaySource(std::shared_ptr<const TraceArena> arena)
    : arena_(std::move(arena))
{
    SPEC17_ASSERT(arena_ != nullptr, "ReplaySource needs an arena");
}

ReplaySource::ReplaySource(std::shared_ptr<const TraceArena> arena,
                           std::uint64_t address_offset)
    : ReplaySource(std::move(arena))
{
    shift_ = address_offset - arena_->addressOffset;
}

bool
ReplaySource::next(isa::MicroOp &op)
{
    if (cursor_ >= arena_->numOps)
        return false;
    op = arena_->lanes.get(cursor_++);
    if (op.isMemory())
        op.effAddr += shift_;
    return true;
}

std::size_t
ReplaySource::nextBatchSoA(MicroOpBatch &out, std::size_t at,
                           std::size_t n)
{
    out.ensure(at + n);
    const std::size_t m = std::min(n, arena_->numOps - cursor_);
    MicroOpBatch::forEachLane(
        [&](auto &to, const auto &from) {
            std::memcpy(to.data() + at, from.data() + cursor_,
                        m * sizeof(from[0]));
        },
        out, arena_->lanes);
    if (shift_ != 0) {
        // The operand lane also holds branch targets, which a context's
        // offset does not move.
        for (std::size_t i = at; i < at + m; ++i) {
            if (out.cls[i] == isa::UopClass::Load
                || out.cls[i] == isa::UopClass::Store)
                out.operand[i] += shift_;
        }
    }
    cursor_ += m;
    return m;
}

const MicroOpBatch *
ReplaySource::nextLanes(std::size_t n, std::size_t &at,
                        std::size_t &got)
{
    if (shift_ != 0)
        return nullptr; // the arena's lanes hold the captured offset
    const std::size_t m = std::min(n, arena_->numOps - cursor_);
    at = cursor_;
    got = m;
    cursor_ += m;
    return &arena_->lanes;
}

} // namespace trace
} // namespace spec17
