/**
 * @file
 * Deterministic random number generation for simulations.
 *
 * Every stochastic model in the simulator (ADC noise, RF channel
 * corruption, sensor traces) draws from one `Rng` owned by the
 * `Simulator`, so a run is fully reproducible from its seed.
 */

#ifndef EDB_SIM_RNG_HH
#define EDB_SIM_RNG_HH

#include <cmath>
#include <cstdint>
#include <random>

namespace edb::sim {

/**
 * splitmix64 finalizer: the standard 64-bit avalanche mix. Used to
 * derive statistically independent per-world seeds from one fleet
 * seed (`deriveSeed`) so neighbouring world indices do not produce
 * correlated Mersenne twister streams.
 */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/**
 * Deterministic seed derivation: fleet seed × stream index → world
 * seed. Two rounds of splitmix64 over the (seed, stream) pair; never
 * returns 0 so the result is always a valid engine seed.
 */
constexpr std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t stream)
{
    std::uint64_t s = splitmix64(splitmix64(base) ^
                                 splitmix64(stream * 0xA24BAED4963EE407ULL));
    return s == 0 ? 0x9E3779B97F4A7C15ULL : s;
}

/**
 * Mersenne twister with the std::mt19937_64 parameter set.
 *
 * The C++ standard pins the output of
 * `mersenne_twister_engine<uint64_t, 64, 312, 156, ...>` exactly, so
 * this engine produces the same draw sequence as std::mt19937_64 for
 * the same seed (the unit tests assert it word for word). It exists
 * because the analog integration loop draws harvest noise once per
 * sub-step, and the library engine's per-draw bookkeeping dominated
 * that profile: here the twist *and* the tempering run in bulk every
 * 312 draws, so a draw is a buffered load.
 */
class Mt64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit Mt64(result_type value = defaultSeed) { seed(value); }

    /** Standard seeding recurrence (identical to std::mt19937_64). */
    void
    seed(result_type value)
    {
        state[0] = value;
        for (unsigned i = 1; i < n; ++i)
            state[i] = 6364136223846793005ULL *
                           (state[i - 1] ^ (state[i - 1] >> 62)) +
                       i;
        index = n;
    }

    result_type
    operator()()
    {
        if (index >= n)
            refill();
        return out[index++];
    }

    static constexpr result_type defaultSeed = 5489;

    /**
     * Full engine state, exportable for snapshots: the 312-word
     * twist state, the tempered output buffer, and the read index.
     * Restoring a saved State resumes the draw stream exactly where
     * it left off, mid-block included (the output buffer is part of
     * the state precisely so a snapshot taken between refills does
     * not replay or skip draws).
     */
    struct State
    {
        result_type state[312];
        result_type out[312];
        std::uint32_t index;
    };

    State
    exportState() const
    {
        State s;
        for (unsigned i = 0; i < n; ++i) {
            s.state[i] = state[i];
            s.out[i] = out[i];
        }
        s.index = index;
        return s;
    }

    void
    importState(const State &s)
    {
        for (unsigned i = 0; i < n; ++i) {
            state[i] = s.state[i];
            out[i] = s.out[i];
        }
        // Clamp a corrupt index to "buffer exhausted": the next draw
        // refills instead of reading out[] out of bounds.
        index = s.index > n ? n : s.index;
    }

  private:
    static constexpr unsigned n = 312;
    static constexpr unsigned m = 156;
    static constexpr result_type upperMask = ~result_type{0} << 31;
    static constexpr result_type lowerMask = ~upperMask;
    static constexpr result_type matrixA = 0xB5026F5AA96619E9ULL;

    void
    refill()
    {
        // Twist (three segments avoid the modulo of the textbook
        // loop), then temper the whole block in one pass the
        // vectorizer likes. Branchless conditional xor of matrixA.
        unsigned i = 0;
        for (; i < n - m; ++i) {
            result_type x =
                (state[i] & upperMask) | (state[i + 1] & lowerMask);
            state[i] = state[i + m] ^ (x >> 1) ^ (-(x & 1) & matrixA);
        }
        for (; i < n - 1; ++i) {
            result_type x =
                (state[i] & upperMask) | (state[i + 1] & lowerMask);
            state[i] =
                state[i + m - n] ^ (x >> 1) ^ (-(x & 1) & matrixA);
        }
        result_type x =
            (state[n - 1] & upperMask) | (state[0] & lowerMask);
        state[n - 1] = state[m - 1] ^ (x >> 1) ^ (-(x & 1) & matrixA);

        for (unsigned k = 0; k < n; ++k) {
            result_type y = state[k];
            y ^= (y >> 29) & 0x5555555555555555ULL;
            y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
            y ^= (y << 37) & 0xFFF7EEE000000000ULL;
            y ^= y >> 43;
            out[k] = y;
        }
        index = 0;
    }

    result_type state[n];
    /** Value-initialised: exportState() copies it before the first
     *  refill, and snapshots and digests of a fresh engine must not
     *  depend on whatever the storage held. */
    result_type out[n]{};
    unsigned index;
};

/**
 * Thin wrapper around a 64-bit Mersenne twister with convenience
 * samplers used throughout the analog and channel models.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 1) : engine(seed) {}

    /** Re-seed the generator (resets the stream). */
    void seed(std::uint64_t s) { engine.seed(s); }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine);
    }

    /**
     * Zero-mean Gaussian with the given standard deviation.
     *
     * Hand-inlined Marsaglia polar method, drawing uniforms through
     * canonical(). A freshly constructed std::normal_distribution is
     * stateless (no saved spare), so this consumes the same engine
     * draws and performs the same double arithmetic as
     * `std::normal_distribution<double>(0.0, sigma)(engine)` — the
     * stream is bit-identical, it just skips the library's generic
     * long-double uniform path (which re-derives log2(engine range)
     * per draw and dominated the analog integration profile).
     */
    double
    gaussian(double sigma)
    {
        if (sigma <= 0.0)
            return 0.0;
        double x, y, r2;
        do {
            x = 2.0 * canonical() - 1.0;
            y = 2.0 * canonical() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        const double mult = std::sqrt(-2 * std::log(r2) / r2);
        // Matches the library's `ret * stddev + mean` exactly,
        // including the +0.0 (not a no-op for signed zeros).
        return (y * mult) * sigma + 0.0;
    }

    /** Bernoulli trial: true with probability p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Uniform double in [0, 1) equal, bit for bit, to
     * `std::generate_canonical<double, 53>(raw())`: for a 64-bit
     * engine that specialization is a single draw scaled into [0, 1)
     * with a top-end guard (scaling by 2^-64 is exact, so multiply
     * and divide agree).
     */
    double
    canonical()
    {
        double r = static_cast<double>(engine()) * 0x1p-64;
        if (r >= 1.0) [[unlikely]]
            r = std::nextafter(1.0, 0.0);
        return r;
    }

    /** Access to the raw engine for std distributions. */
    Mt64 &raw() { return engine; }

    /** Export the complete engine state (for snapshots). */
    Mt64::State exportState() const { return engine.exportState(); }

    /** Restore a previously exported engine state. */
    void importState(const Mt64::State &s) { engine.importState(s); }

  private:
    Mt64 engine;
};

} // namespace edb::sim

#endif // EDB_SIM_RNG_HH
