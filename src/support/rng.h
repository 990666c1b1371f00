#ifndef MUGI_SUPPORT_RNG_H_
#define MUGI_SUPPORT_RNG_H_

/**
 * @file
 * Deterministic random helpers.  All experiments seed explicitly so
 * the benchmark harness reproduces the same rows on every run.
 *
 * Mt19937 and fill_gaussian reproduce std::mt19937 and libstdc++'s
 * std::normal_distribution<float> bit for bit, faster, and without
 * depending on which standard library built them or which C library
 * is linked: the fill's log is glibc's logf, transcribed (DESIGN.md,
 * "Model weights").  Both run AVX-512F kernels where the CPU has them
 * and scalar ones elsewhere, with the same bits (src/support/rng.cc).
 *
 * Thread-safety: externally serialized.  An engine is a plain value,
 * and fill_gaussian mutates both the caller's engine and the target
 * matrix; deterministic replay requires a fixed draw order, so each
 * engine must be confined to one thread at a time.
 */

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "support/matrix.h"

namespace mugi {
namespace support {
namespace detail {

/** Words in one Mersenne Twister block (the state size). */
inline constexpr std::size_t kMtWords = 624;

/** Whether this CPU runs the AVX-512F kernels; asked once. */
bool cpu_has_avx512f();

/**
 * Twist the 624-word @p state in place and temper it into @p out.
 * The scalar form is the reference; the AVX-512F form (callable only
 * where cpu_has_avx512f()) works 16 words at a time, bit for bit
 * equal; mt_refill runs the one this CPU supports.
 */
void mt_refill_scalar(std::uint32_t* state, std::uint32_t* out);
void mt_refill_avx512(std::uint32_t* state, std::uint32_t* out);
void mt_refill(std::uint32_t* state, std::uint32_t* out);

}  // namespace detail

/**
 * The 32-bit Mersenne Twister, a UniformRandomBitGenerator whose
 * sequence equals std::mt19937's for every seed.  Each refill twists
 * and tempers the whole 624-word block in one pass; operator() then
 * hands out the tempered words one by one, and take() in place.
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

    /**
     * Draw up to @p n words in place: a view of the next
     * min(n, words left in the block) words, refilling first if the
     * block is used up.  They count as drawn, exactly as that many
     * operator() calls would have returned them; the view stays
     * valid until the next draw that refills.
     */
    std::span<const result_type>
    take(std::size_t n)
    {
        if (next_ == kN) {
            refill();
        }
        const std::size_t count = std::min(n, kN - next_);
        const result_type* words = out_.data() + next_;
        next_ += count;
        return {words, count};
    }

  private:
    static constexpr std::size_t kN = detail::kMtWords;

    void
    refill()
    {
        detail::mt_refill(state_.data(), out_.data());
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
 * libstdc++ computes it: float(u)·2⁻³², clamped below 1.  Every
 * nonzero value is at least 2⁻²⁴ in magnitude, so a kept r², in
 * (0, 1], is at least 2⁻⁴⁸.
 */
float polar_coordinate(std::uint32_t u);

/**
 * log(r²) for a kept r², equal bit for bit to glibc's logf on every
 * float of [2⁻⁵⁰, 1]: the main path of that logf (from ARM's
 * optimized-routines), written as one unfused op sequence, so the
 * weights do not depend on the libm linked.  polar_log_avx512,
 * callable only where cpu_has_avx512f(), writes the logs of the
 * @p n floats at @p r2 to @p out, 16 at a time as two halves of 8
 * double lanes, with the same bits; the block kernel runs that form.
 */
float polar_log(float r2);
void polar_log_avx512(const float* r2, std::size_t n, float* out);

/**
 * One block of polar attempts: attempt j takes (x, y) from words 2j
 * and 2j + 1; the accepted ones are written to @p out as (y, x)
 * pairs, in order, each coordinate times its scale, times stddev,
 * plus mean.  Returns how many were accepted.  @p attempts is at
 * most kPolarBlock, and @p out has room for that many pairs: a
 * kernel may scribble on the pairs past the ones it returns.
 *
 * The scalar kernel is the reference.  The AVX-512F one, callable
 * only where cpu_has_avx512f(), writes the same bits; polar_block()
 * is the one this CPU supports.
 */
using PolarBlock = std::size_t (*)(const std::uint32_t* words,
                                   std::size_t attempts, float* out,
                                   float mean, float stddev);
std::size_t polar_block_scalar(const std::uint32_t* words,
                               std::size_t attempts, float* out,
                               float mean, float stddev);
std::size_t polar_block_avx512(const std::uint32_t* words,
                               std::size_t attempts, float* out,
                               float mean, float stddev);
PolarBlock polar_block();

/**
 * Write @p pairs accepted polar samples to @p out through @p block,
 * drawing each block's words one by one from @p rng.  No block draws
 * more attempts than pairs still needed, so the engine stops right
 * after the last accepted attempt, as libstdc++'s does.
 */
template <typename Engine>
void
fill_polar_pairs(PolarBlock block, float* out, std::size_t pairs,
                 Engine& rng, float mean, float stddev)
{
    std::uint32_t words[2 * kPolarBlock] = {};
    std::size_t done = 0;
    while (done < pairs) {
        const std::size_t attempts =
            std::min(kPolarBlock, pairs - done);
        for (std::size_t w = 0; w < 2 * attempts; ++w) {
            words[w] = static_cast<std::uint32_t>(rng());
        }
        done += block(words, attempts, out + 2 * done, mean, stddev);
    }
}

/**
 * The same for Mt19937, reading its tempered words in place: a block
 * never spans a refill, and only an attempt whose two words a refill
 * splits is copied.
 */
void fill_polar_pairs(PolarBlock block, float* out, std::size_t pairs,
                      Mt19937& rng, float mean, float stddev);

/** fill_gaussian through the kernel @p block. */
template <typename Engine>
void
fill_gaussian_with(PolarBlock block, MatrixF& m, Engine& rng,
                   float mean, float stddev)
{
    static_assert(Engine::min() == 0 && Engine::max() == 0xFFFFFFFFu,
                  "fill_gaussian draws 32-bit words: the engine's "
                  "range must be [0, 2^32 - 1]");
    float* out = m.data().data();
    const std::size_t n = m.size();
    fill_polar_pairs(block, out, n / 2, rng, mean, stddev);
    if (n % 2 != 0) {
        float last[2] = {};
        fill_polar_pairs(block, last, 1, rng, mean, stddev);
        out[n - 1] = last[0];
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
    detail::fill_gaussian_with(detail::polar_block(), m, rng, mean,
                               stddev);
}

}  // namespace support
}  // namespace mugi

#endif  // MUGI_SUPPORT_RNG_H_
