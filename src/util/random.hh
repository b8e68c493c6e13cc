/**
 * @file
 * Deterministic random number generation for reproducible simulation.
 *
 * Every stochastic component in the framework draws from an Rng seeded
 * through deriveSeed() so that a given (application, input, component)
 * triple always observes the same stream, independent of the order in
 * which other components draw.
 */

#ifndef SPEC17_UTIL_RANDOM_HH_
#define SPEC17_UTIL_RANDOM_HH_

#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/logging.hh"

namespace spec17 {

/**
 * xoshiro256** PRNG (Blackman & Vigna) with SplitMix64 seeding.
 *
 * Chosen over std::mt19937_64 for speed (the trace generator draws
 * several values per micro-op) and for a guaranteed cross-platform
 * stable sequence.
 */
class Rng
{
  public:
    /** Constructs a generator whose state is expanded from @p seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Returns the next raw 64-bit value. Inline: the trace
     *  generator draws several values per micro-op, so the xoshiro
     *  step must not cost a function call. */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Returns a uniform double in [0, 1). */
    double nextDouble()
    {
        // 53 high bits -> [0, 1) with full double precision.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Returns a uniform integer in [0, bound) without modulo bias. */
    std::uint64_t nextBounded(std::uint64_t bound)
    {
        SPEC17_ASSERT(bound > 0, "nextBounded requires bound > 0");
        // Power-of-two bound: the rejection threshold below is 0, so
        // the first draw is always accepted and the modulo is a
        // mask -- same value, no 64-bit divisions.
        if ((bound & (bound - 1)) == 0)
            return next() & (bound - 1);
        // Lemire-style rejection to avoid modulo bias.
        const std::uint64_t threshold = (-bound) % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Returns a uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Returns true with probability @p p. */
    bool nextBernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /** Returns a standard-normal variate (polar Box-Muller). */
    double nextGaussian();

    /**
     * Samples an index according to non-negative @p weights
     * (unnormalized). Weights summing to zero panic.
     */
    std::size_t nextDiscrete(const std::vector<double> &weights);

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
    bool hasSpare_ = false;
    double spare_ = 0.0;
};

/**
 * Precomputed form of Rng::nextBounded() for a bound that is fixed
 * across many draws (the trace generator's region spans, site counts
 * and target zones). nextBounded() pays two 64-bit divisions per call
 * on a non-power-of-two bound -- the rejection threshold and the
 * final modulo; this caches the threshold and replaces the modulo
 * with a Lemire-style multiply against a cached 128-bit reciprocal.
 * draw() consumes exactly the same Rng values and returns exactly the
 * same result as rng.nextBounded(bound) for every Rng state.
 */
class BoundedDraw
{
  public:
    BoundedDraw() : BoundedDraw(1) {}

    explicit BoundedDraw(std::uint64_t bound) : bound_(bound)
    {
        SPEC17_ASSERT(bound > 0, "BoundedDraw requires bound > 0");
        if ((bound & (bound - 1)) == 0) {
            mask_ = bound - 1;
            return;
        }
        threshold_ = (-bound) % bound;
        // ceil(2^128 / bound); exact-modulo proof needs headroom for
        // the error term, covered for any bound below 2^63 (see
        // draw()); larger bounds fall back to hardware modulo.
        if (bound < (std::uint64_t(1) << 63))
            magic_ = ~(unsigned __int128)0 / bound + 1;
    }

    std::uint64_t bound() const { return bound_; }

    /** Same value and Rng-state advance as rng.nextBounded(bound). */
    std::uint64_t
    draw(Rng &rng) const
    {
        if (threshold_ == 0) // power-of-two bound
            return rng.next() & mask_;
        for (;;) {
            const std::uint64_t r = rng.next();
            if (r >= threshold_)
                return mod(r);
        }
    }

  private:
    std::uint64_t
    mod(std::uint64_t r) const
    {
        if (magic_ == 0)
            return r % bound_; // bound >= 2^63: headroom proof fails
        // Lemire & Kaser fastmod, 64-bit operands: frac is the low
        // 128 bits of magic * r, i.e. 2^128 * (r/bound mod 1); the
        // remainder is then the high 64 bits of frac * bound. Exact
        // for bound < 2^63 because the rounding error in magic
        // contributes less than one unit after the final shift.
        const unsigned __int128 frac = magic_ * r;
        const std::uint64_t lo = static_cast<std::uint64_t>(frac);
        const std::uint64_t hi =
            static_cast<std::uint64_t>(frac >> 64);
        const unsigned __int128 prod = (unsigned __int128)hi * bound_
            + (((unsigned __int128)lo * bound_) >> 64);
        return static_cast<std::uint64_t>(prod >> 64);
    }

    std::uint64_t bound_ = 1;
    std::uint64_t mask_ = 0;      //!< power-of-two path
    std::uint64_t threshold_ = 0; //!< rejection threshold
    unsigned __int128 magic_ = 0; //!< ceil(2^128 / bound_), or 0
};

/**
 * Precomputed form of Rng::nextBernoulli() for a probability that is
 * fixed across many draws. nextBernoulli() converts a 53-bit draw x
 * to double and compares x * 2^-53 < p; both that scaling and the
 * conversion are exact, so the comparison holds exactly when
 * x < ceil(p * 2^53). Caching that integer threshold turns each draw
 * into a shift and an integer compare with the identical outcome.
 * The degenerate probabilities (p <= 0, p >= 1) are answered without
 * consuming an Rng value, exactly like nextBernoulli().
 */
class BernoulliDraw
{
  public:
    BernoulliDraw() = default;

    explicit BernoulliDraw(double p)
    {
        if (p <= 0.0) {
            degenerate_ = 1; // always false, no draw
        } else if (p >= 1.0) {
            degenerate_ = 2; // always true, no draw
        } else {
            degenerate_ = 0;
            threshold_ = thresholdOf(p);
        }
    }

    /** Same value and Rng-state advance as rng.nextBernoulli(p). */
    bool
    draw(Rng &rng) const
    {
        if (degenerate_ != 0)
            return degenerate_ == 2;
        return (rng.next() >> 11) < threshold_;
    }

    /** Integer threshold t in [0, 2^53] with, for every 53-bit x,
     *  (x * 2^-53 < p) == (x < t): ceil(p * 2^53), clamped. The
     *  scaling p * 2^53 is an exact exponent shift, so the ceiling
     *  is computed on the exact product. */
    static std::uint64_t thresholdOf(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return std::uint64_t{1} << 53;
        return static_cast<std::uint64_t>(
            std::ceil(std::ldexp(p, 53)));
    }

  private:
    std::uint64_t threshold_ = 0;
    std::uint8_t degenerate_ = 1; //!< 0 real, 1 never, 2 always
};

/** SplitMix64 step; exposed for seed derivation and tests. */
std::uint64_t splitMix64(std::uint64_t &state);

/** 64-bit FNV-1a over @p data, continuing from @p seed (the offset
 *  basis by default). Seeds, journal record hashes and arena spill
 *  file names all hash through it. */
std::uint64_t fnv1a(std::string_view data,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/**
 * Derives a stable child seed from a root seed and a component label
 * (FNV-1a hash mixed through SplitMix64). Used so that adding a new
 * stochastic component does not perturb existing streams.
 */
std::uint64_t deriveSeed(std::uint64_t root, std::string_view label);

/** Derives a stable child seed from a root seed and numeric salts. */
std::uint64_t deriveSeed(std::uint64_t root, std::uint64_t salt0,
                         std::uint64_t salt1 = 0);

} // namespace spec17

#endif // SPEC17_UTIL_RANDOM_HH_
