#include "util/random.hh"

#include <bit>
#include <cmath>

#include "util/logging.hh"

namespace spec17 {

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
    // xoshiro256** must not start from the all-zero state; SplitMix64
    // cannot produce four zero outputs in a row, so the state is valid.
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    SPEC17_ASSERT(lo <= hi, "nextRange requires lo <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next());
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

double
Rng::nextGaussian()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spare_;
    }
    double u, v, s;
    do {
        u = 2.0 * nextDouble() - 1.0;
        v = 2.0 * nextDouble() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * mul;
    hasSpare_ = true;
    return u * mul;
}

std::size_t
Rng::nextDiscrete(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        SPEC17_ASSERT(w >= 0.0, "negative weight in nextDiscrete");
        total += w;
    }
    SPEC17_ASSERT(total > 0.0, "weights sum to zero in nextDiscrete");

    double pick = nextDouble() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        pick -= weights[i];
        if (pick < 0.0)
            return i;
    }
    // Floating-point slack: fall back to the last non-zero weight.
    for (std::size_t i = weights.size(); i-- > 0;) {
        if (weights[i] > 0.0)
            return i;
    }
    SPEC17_PANIC("unreachable in nextDiscrete");
}

std::uint64_t
fnv1a(std::string_view data, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
deriveSeed(std::uint64_t root, std::string_view label)
{
    // FNV-1a over the label, then mixed with the root through SplitMix64.
    std::uint64_t state = root ^ fnv1a(label);
    return splitMix64(state);
}

std::uint64_t
deriveSeed(std::uint64_t root, std::uint64_t salt0, std::uint64_t salt1)
{
    std::uint64_t state = root ^ (salt0 * 0x9e3779b97f4a7c15ULL)
        ^ std::rotl(salt1, 32);
    splitMix64(state);
    return splitMix64(state);
}

} // namespace spec17
