/**
 * @file
 * Deterministic pseudo-random number generator (xoshiro256**). All
 * stochastic choices in the simulator flow through explicitly-seeded
 * Rng instances so that runs are exactly reproducible.
 */

#ifndef SWEX_BASE_RNG_HH
#define SWEX_BASE_RNG_HH

#include <cstdint>

namespace swex
{

/** SplitMix64's Weyl increment (2^64 divided by the golden ratio). */
constexpr std::uint64_t goldenGamma = 0x9e3779b97f4a7c15ULL;

/**
 * SplitMix64's output finalizer, the 30/27/31 mix: a bijection on
 * 64-bit words that decorrelates nearby inputs, for seeding,
 * counter-based draws and hashing. Not cryptographic.
 */
constexpr std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * A small, fast, deterministic PRNG. Not cryptographic; used only for
 * workload generation and tie-breaking policies.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = goldenGamma)
    {
        // SplitMix64 seeding, as recommended by the xoshiro authors.
        std::uint64_t z = seed;
        for (auto &word : state) {
            z += goldenGamma;
            word = mix64(z);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound), bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Multiply-shift rejection-free mapping; adequate for workloads.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
            below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return real() < p; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
};

} // namespace swex

#endif // SWEX_BASE_RNG_HH
