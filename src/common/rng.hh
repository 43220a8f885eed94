/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Every stochastic component owns its own Rng stream seeded from the
 * experiment seed plus a component salt, so results are reproducible
 * and independent of evaluation order.
 */

#ifndef SAC_COMMON_RNG_HH
#define SAC_COMMON_RNG_HH

#include <cstdint>

namespace sac {

/**
 * xoshiro256** generator. Small, fast and high quality; good enough
 * for workload synthesis and arbitration tie-breaking.
 */
class Rng
{
  public:
    /** Constructs a stream from a seed and a per-component salt. */
    explicit Rng(std::uint64_t seed, std::uint64_t salt = 0);

    // The draw methods are defined here: workload synthesis draws on
    // every issued access, so the per-call cost matters and these all
    // inline to a handful of ALU ops.

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        // Rejection-free multiply-shift; bias is negligible for
        // simulation population sizes (<< 2^32).
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool
    nextBool(double p)
    {
        return nextDouble() < p;
    }

  private:
    /** Rotate-left helper for xoshiro. */
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
};

} // namespace sac

#endif // SAC_COMMON_RNG_HH
