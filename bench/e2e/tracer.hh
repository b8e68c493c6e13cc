/**
 * @file
 * In-memory span recorder for the traced pass of bench_e2e: each span
 * is {name, start_ns, end_ns, parent, item, thread}, kept in memory
 * while the campaign runs and written as JSONL when it ends. Spans are
 * recorded by the harness around its calls into each library layer;
 * nothing inside the library is instrumented.
 */

#ifndef SPEC17_BENCH_E2E_TRACER_HH_
#define SPEC17_BENCH_E2E_TRACER_HH_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace spec17 {
namespace e2e {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since process start (the harness's time base). */
std::int64_t nowNs();

/** Small dense index of the calling thread (main thread = 0 when it
 *  asks first). */
inline unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
}

struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span, -1 for a root. */
    int parent = -1;
    /** Work item (pair, row or group index), -1 when none. */
    long item = -1;
    unsigned thread = 0;

    double seconds() const { return double(endNs - startNs) * 1e-9; }
};

/** Thread-safe span store. */
class Tracer
{
  public:
    /** Parent marker: the innermost span open on the calling thread. */
    static constexpr int kInnermost = -2;

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, long item = -1,
              int parent = kInnermost)
            : tracer_(tracer), id_(tracer.open(name, item, parent))
        {
        }
        ~Scope() { tracer_.close(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        int id() const { return id_; }

      private:
        Tracer &tracer_;
        int id_;
    };

    /** Records an already-timed span (e.g. one delimited by observer
     *  callbacks); returns its index. */
    int
    record(const char *name, std::int64_t start_ns, std::int64_t end_ns,
           int parent, long item)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, start_ns, end_ns, parent, item,
                          threadIndex()});
        return int(spans_.size()) - 1;
    }

    /** Snapshot of every span recorded so far. */
    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

    /** Writes one JSON object per span; false on I/O failure. */
    bool
    writeJsonl(const std::string &path) const
    {
        std::ofstream out(path, std::ios::trunc);
        for (const Span &span : spans()) {
            out << "{\"name\":\"" << span.name << "\",\"start_ns\":"
                << span.startNs << ",\"end_ns\":" << span.endNs
                << ",\"parent\":" << span.parent << ",\"item\":"
                << span.item << ",\"thread\":" << span.thread << "}\n";
        }
        return bool(out);
    }

  private:
    int
    open(const char *name, long item, int parent)
    {
        std::vector<int> &stack = openStack();
        if (parent == kInnermost)
            parent = stack.empty() ? -1 : stack.back();
        const int id = record(name, nowNs(), 0, parent, item);
        stack.push_back(id);
        return id;
    }

    void
    close(int id)
    {
        const std::int64_t end = nowNs();
        std::vector<int> &stack = openStack();
        stack.erase(std::remove(stack.begin(), stack.end(), id),
                    stack.end());
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[std::size_t(id)].endNs = end;
    }

    static std::vector<int> &
    openStack()
    {
        thread_local std::vector<int> stack;
        return stack;
    }

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

} // namespace e2e
} // namespace spec17

#endif // SPEC17_BENCH_E2E_TRACER_HH_
