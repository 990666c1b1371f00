#ifndef MUGI_SUPPORT_RNG_H_
#define MUGI_SUPPORT_RNG_H_

/**
 * @file
 * Deterministic random helpers.  All experiments seed explicitly so
 * the benchmark harness reproduces the same rows on every run.
 *
 * Mt19937 and fill_gaussian reproduce std::mt19937 and libstdc++'s
 * std::normal_distribution<float> bit for bit, faster, and without
 * depending on which standard library built them (DESIGN.md, "Model
 * weights").
 *
 * Thread-safety: externally serialized.  An engine is a plain value,
 * and fill_gaussian mutates both the caller's engine and the target
 * matrix; deterministic replay requires a fixed draw order, so each
 * engine must be confined to one thread at a time.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "support/matrix.h"

namespace mugi {
namespace support {

/**
 * The 32-bit Mersenne Twister, a UniformRandomBitGenerator whose
 * sequence equals std::mt19937's for every seed.  Each refill twists
 * and tempers the whole 624-word block in one branch-free pass;
 * operator() then hands out the tempered words.
 */
class Mt19937 {
  public:
    using result_type = std::uint32_t;

    static constexpr result_type kDefaultSeed = 5489u;

    explicit Mt19937(result_type seed = kDefaultSeed)
    {
        state_[0] = seed;
        for (std::uint32_t i = 1; i < kN; ++i) {
            const std::uint32_t prev = state_[i - 1];
            state_[i] = 1812433253u * (prev ^ (prev >> 30)) + i;
        }
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return 0xFFFFFFFFu; }

    result_type
    operator()()
    {
        if (next_ == kN) {
            refill();
        }
        return out_[next_++];
    }

  private:
    static constexpr std::size_t kN = 624;
    static constexpr std::size_t kM = 397;

    static std::uint32_t
    twist(std::uint32_t word, std::uint32_t next, std::uint32_t far)
    {
        const std::uint32_t y =
            (word & 0x80000000u) | (next & 0x7FFFFFFFu);
        return far ^ (y >> 1) ^ (0x9908B0DFu & (0u - (y & 1u)));
    }

    static std::uint32_t
    temper(std::uint32_t y)
    {
        y ^= y >> 11;
        y ^= (y << 7) & 0x9D2C5680u;
        y ^= (y << 15) & 0xEFC60000u;
        return y ^ (y >> 18);
    }

    /** Twist the next block in place and temper it into out_. */
    void
    refill()
    {
        std::uint32_t* s = state_.data();
        std::size_t i = 0;
        // Three ranges so no index wraps: words past kN - kM read
        // the already-twisted head of the block.
        for (; i < kN - kM; ++i) {
            s[i] = twist(s[i], s[i + 1], s[i + kM]);
            out_[i] = temper(s[i]);
        }
        for (; i < kN - 1; ++i) {
            s[i] = twist(s[i], s[i + 1], s[i + kM - kN]);
            out_[i] = temper(s[i]);
        }
        s[kN - 1] = twist(s[kN - 1], s[0], s[kM - 1]);
        out_[kN - 1] = temper(s[kN - 1]);
        next_ = 0;
    }

    std::array<std::uint32_t, kN> state_{};
    std::array<std::uint32_t, kN> out_{};
    std::size_t next_ = kN;
};

namespace detail {

/** Attempts the polar fill draws between two transform passes. */
inline constexpr std::size_t kPolarBlock = 256;

/**
 * 2·generate_canonical<float>(u) − 1 for one 32-bit word, as
 * libstdc++ computes it: float(u)·2⁻³², clamped below 1.  2·canon is
 * exact, so the float subtraction rounds once, exactly as
 * libstdc++'s double subtraction does when narrowed back to float.
 */
inline float
polar_coordinate(std::uint32_t u)
{
    const float canon =
        std::min(static_cast<float>(u) * 0x1p-32f, 0x1.fffffep-1f);
    return 2.0f * canon - 1.0f;
}

/**
 * Write @p pairs accepted polar samples to @p out as (y, x) pairs,
 * each coordinate times its scale, times stddev, plus mean.
 *
 * A block of attempts is drawn without branching on acceptance: each
 * (y, x) pair is stored at the next free pair and only an accepted
 * one advances, so the block compacts itself in place; a second pass
 * turns the kept pairs into samples.  No block draws more attempts
 * than pairs still needed, so the engine stops right after the last
 * accepted attempt, as libstdc++'s does.
 */
template <typename Engine>
void
fill_polar_pairs(float* out, std::size_t pairs, Engine& rng,
                 float mean, float stddev)
{
    std::size_t done = 0;
    while (done < pairs) {
        const std::size_t attempts =
            std::min(kPolarBlock, pairs - done);
        // kept <= j < attempts <= pairs - done: every store lands in
        // a pair not yet filled.
        float* pair = out + 2 * done;
        std::size_t kept = 0;
        for (std::size_t j = 0; j < attempts; ++j) {
            const float x =
                polar_coordinate(static_cast<std::uint32_t>(rng()));
            const float y =
                polar_coordinate(static_cast<std::uint32_t>(rng()));
            const float r2 = x * x + y * y;
            pair[2 * kept] = y;
            pair[2 * kept + 1] = x;
            // libstdc++ rejects r² > 1 and r² = 0.
            const bool accepted = r2 <= 1.0f && r2 != 0.0f;
            kept += static_cast<std::size_t>(accepted);
        }
        for (std::size_t i = 0; i < kept; ++i) {
            const float y = pair[2 * i];
            const float x = pair[2 * i + 1];
            const float r2 = x * x + y * y;
            const float scale = std::sqrt(-2.0f * std::log(r2) / r2);
            pair[2 * i] = (y * scale) * stddev + mean;
            pair[2 * i + 1] = (x * scale) * stddev + mean;
        }
        done += kept;
    }
}

}  // namespace detail

/**
 * Fill @p m with N(mean, stddev) samples from @p rng, bit-identical
 * to drawing every element from one fresh
 * std::normal_distribution<float>(mean, stddev) in libstdc++: each
 * polar attempt takes two words (x, then y), an accepted one yields
 * y's sample and then x's, and an odd count keeps the last y only.
 * The engine ends where libstdc++'s would, so the next fill
 * continues the same stream.
 */
template <typename Engine>
void
fill_gaussian(MatrixF& m, Engine& rng, float mean = 0.0f,
              float stddev = 1.0f)
{
    static_assert(Engine::min() == 0 && Engine::max() == 0xFFFFFFFFu,
                  "fill_gaussian draws 32-bit words: the engine's "
                  "range must be [0, 2^32 - 1]");
    float* out = m.data().data();
    const std::size_t n = m.size();
    detail::fill_polar_pairs(out, n / 2, rng, mean, stddev);
    if (n % 2 != 0) {
        float last[2] = {};
        detail::fill_polar_pairs(last, 1, rng, mean, stddev);
        out[n - 1] = last[0];
    }
}

}  // namespace support
}  // namespace mugi

#endif  // MUGI_SUPPORT_RNG_H_
