#include "suite/arena_store.hh"

#include <filesystem>
#include <limits>
#include <sstream>

#include "util/logging.hh"
#include "util/random.hh"

namespace spec17 {
namespace suite {

TraceArenaStore::TraceArenaStore(std::uint64_t budget_bytes,
                                 std::string spill_dir)
    : budgetBytes_(budget_bytes), spillDir_(std::move(spill_dir))
{
    SPEC17_ASSERT(budgetBytes_ > 0,
                  "arena store needs a positive byte budget "
                  "(omit the store to disable replay)");
}

std::string
TraceArenaStore::spillPathFor(const std::string &key) const
{
    // The key's FNV-1a hash keeps names short and stable (the full key
    // is unbounded).
    std::ostringstream name;
    name << std::hex << fnv1a(key);
    return spillDir_ + "/arena-" + name.str() + ".s17a";
}

std::shared_ptr<const trace::TraceArena>
TraceArenaStore::find(const trace::SyntheticTraceParams &params)
{
    return lookup(params, false);
}

std::shared_ptr<const trace::TraceArena>
TraceArenaStore::acquire(const trace::SyntheticTraceParams &params)
{
    return lookup(params, true);
}

std::shared_ptr<const trace::TraceArena>
TraceArenaStore::lookup(const trace::SyntheticTraceParams &params,
                        bool capture)
{
    const std::string key = trace::describeTraceParams(params);
    if (std::optional<Entry> hit = table_.tryGet(key)) {
        hit->lastUse->store(useSeq_.fetch_add(1) + 1);
        hits_.fetch_add(1);
        return hit->arena;
    }

    std::shared_ptr<const trace::TraceArena> arena;
    if (!spillDir_.empty()) {
        // A well-formed spill of the wrong length (a hash collision or
        // a foreign file under this name) recaptures like a bad one.
        auto loaded = trace::loadArena(spillPathFor(key));
        if (loaded != nullptr && loaded->numOps == params.numOps) {
            // S17A does not store the capture offset, but the key
            // does: left at 0, a shifted replay would shift twice.
            loaded->addressOffset = params.addressOffset;
            arena = std::move(loaded);
            spillLoads_.fetch_add(1);
        }
    }
    if (arena == nullptr) {
        if (!capture)
            return nullptr;
        arena = std::make_shared<const trace::TraceArena>(
            trace::captureArena(params));
        captures_.fetch_add(1);
        if (!spillDir_.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(spillDir_, ec);
            if (ec)
                warn("cannot create arena spill dir ", spillDir_, ": ",
                     ec.message());
            else
                saveArena(spillPathFor(key), *arena);
        }
    }

    if (arena->byteSize() > budgetBytes_)
        return arena; // serve uncached; retention would thrash

    Entry entry;
    entry.arena = arena;
    entry.lastUse = std::make_shared<std::atomic<std::uint64_t>>(
        useSeq_.fetch_add(1) + 1);
    const Entry winner = table_.publish(key, std::move(entry));
    evictOverBudget();
    return winner.arena;
}

void
TraceArenaStore::release(const trace::SyntheticTraceParams &params)
{
    table_.erase(trace::describeTraceParams(params));
}

void
TraceArenaStore::evictOverBudget()
{
    for (;;) {
        std::uint64_t total = 0;
        std::size_t count = 0;
        std::string oldest;
        std::uint64_t oldest_use =
            std::numeric_limits<std::uint64_t>::max();
        table_.forEach([&](const std::string &key, const Entry &entry) {
            total += entry.arena->byteSize();
            ++count;
            const std::uint64_t use = entry.lastUse->load();
            if (use < oldest_use) {
                oldest_use = use;
                oldest = key;
            }
        });
        if (total <= budgetBytes_ || count <= 1)
            return;
        if (table_.erase(oldest))
            evictions_.fetch_add(1);
    }
}

TraceArenaStore::Stats
TraceArenaStore::stats() const
{
    Stats stats;
    stats.captures = captures_.load();
    stats.hits = hits_.load();
    stats.spillLoads = spillLoads_.load();
    stats.evictions = evictions_.load();
    table_.forEach(
        [&stats](const std::string &, const Entry &entry) {
            stats.residentBytes += entry.arena->byteSize();
            ++stats.entries;
        });
    return stats;
}

} // namespace suite
} // namespace spec17
