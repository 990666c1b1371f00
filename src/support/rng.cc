#include "support/rng.h"

#include <bit>
#include <cmath>

#if defined(__x86_64__)
// GCC 12's AVX-512 intrinsics make their "undefined" vectors by
// self-initialization, which its own -Wuninitialized then reports
// wherever they inline (GCC bug 105593, fixed in GCC 13).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace mugi {
namespace support {
namespace detail {
namespace {

constexpr std::size_t kN = kMtWords;
constexpr std::size_t kM = 397;

std::uint32_t
twist(std::uint32_t word, std::uint32_t next, std::uint32_t far)
{
    const std::uint32_t y =
        (word & 0x80000000u) | (next & 0x7FFFFFFFu);
    return far ^ (y >> 1) ^ (0x9908B0DFu & (0u - (y & 1u)));
}

std::uint32_t
temper(std::uint32_t y)
{
    y ^= y >> 11;
    y ^= (y << 7) & 0x9D2C5680u;
    y ^= (y << 15) & 0xEFC60000u;
    return y ^ (y >> 18);
}

// The main path of glibc's logf (2.28 and later), which comes from
// ARM's optimized-routines (math/logf.c): its 16-entry table,
// glibc's __logf_data, and its polynomial.
constexpr std::uint32_t kLogOff = 0x3f330000u;
constexpr double kLogInvC[16] = {
    0x1.661ec79f8f3bep+0, 0x1.571ed4aaf883dp+0, 0x1.49539f0f010b0p+0,
    0x1.3c995b0b80385p+0, 0x1.30d190c8864a5p+0, 0x1.25e227b0b8ea0p+0,
    0x1.1bb4a4a1a343fp+0, 0x1.12358f08ae5bap+0, 0x1.0953f419900a7p+0,
    0x1.0000000000000p+0, 0x1.e608cfd9a47acp-1, 0x1.ca4b31f026aa0p-1,
    0x1.b2036576afce6p-1, 0x1.9c2d163a1aa2dp-1, 0x1.886e6037841edp-1,
    0x1.767dcf5534862p-1,
};
constexpr double kLogC[16] = {
    -0x1.57bf7808caadep-2, -0x1.2bef0a7c06ddbp-2,
    -0x1.01eae7f513a67p-2, -0x1.b31d8a68224e9p-3,
    -0x1.6574f0ac07758p-3, -0x1.1aa2bc79c8100p-3,
    -0x1.a4e76ce8c0e5ep-4, -0x1.1973c5a611cccp-4,
    -0x1.252f438e10c1ep-5, 0x0.0p+0,
    0x1.aa5aa5df25984p-5,  0x1.c5e53aa362eb4p-4,
    0x1.526e57720db08p-3,  0x1.bc2860d224770p-3,
    0x1.1058bc8a07ee1p-2,  0x1.4043057b6ee09p-2,
};
constexpr double kLn2 = 0x1.62e42fefa39efp-1;
constexpr double kLogA0 = -0x1.00ea348b88334p-2;
constexpr double kLogA1 = 0x1.5575b0be00b6ap-2;
constexpr double kLogA2 = -0x1.ffffef20a4123p-2;

}  // namespace

float
polar_coordinate(std::uint32_t u)
{
    // 2·canon is exact, so the float subtraction rounds once,
    // exactly as libstdc++'s double subtraction does when narrowed
    // to float.
    const float canon =
        std::min(static_cast<float>(u) * 0x1p-32f, 0x1.fffffep-1f);
    return 2.0f * canon - 1.0f;
}

float
polar_log(float r2)
{
    // r2 = 2^k·z exactly, with z in [0x1.66p-1, 0x1.66p+0) (the
    // floats kLogOff and twice it), and z in table interval i, whose
    // entry c is near its center: log(r2) is log1p(z/c − 1) + log(c)
    // + k·ln 2.  A kept r² is a normal positive float, so glibc's
    // special cases never arise.
    const std::uint32_t ix = std::bit_cast<std::uint32_t>(r2);
    const std::uint32_t tmp = ix - kLogOff;
    const std::size_t i = (tmp >> 19) & 15u;
    const int k = static_cast<std::int32_t>(tmp) >> 23;
    const double z = std::bit_cast<float>(ix - (tmp & 0xff800000u));
    const double r = z * kLogInvC[i] - 1.0;
    const double y0 = kLogC[i] + k * kLn2;
    const double rr = r * r;
    double y = kLogA1 * r + kLogA2;
    y = kLogA0 * rr + y;
    y = y * rr + (y0 + r);
    return static_cast<float>(y);
}

void
mt_refill_scalar(std::uint32_t* s, std::uint32_t* out)
{
    std::size_t i = 0;
    // Three ranges so no index wraps: words past kN - kM read the
    // already-twisted head of the block.
    for (; i < kN - kM; ++i) {
        s[i] = twist(s[i], s[i + 1], s[i + kM]);
        out[i] = temper(s[i]);
    }
    for (; i < kN - 1; ++i) {
        s[i] = twist(s[i], s[i + 1], s[i + kM - kN]);
        out[i] = temper(s[i]);
    }
    s[kN - 1] = twist(s[kN - 1], s[0], s[kM - 1]);
    out[kN - 1] = temper(s[kN - 1]);
}

std::size_t
polar_block_scalar(const std::uint32_t* words, std::size_t attempts,
                   float* out, float mean, float stddev)
{
    // Draw without branching on acceptance: each (y, x) pair is
    // stored at the next free pair and only an accepted one advances,
    // so the block compacts itself in place; kept <= j < attempts
    // keeps every store inside the block.
    std::size_t kept = 0;
    for (std::size_t j = 0; j < attempts; ++j) {
        const float x = polar_coordinate(words[2 * j]);
        const float y = polar_coordinate(words[2 * j + 1]);
        const float r2 = x * x + y * y;
        out[2 * kept] = y;
        out[2 * kept + 1] = x;
        // libstdc++ rejects r² > 1 and r² = 0.
        const bool accepted = r2 <= 1.0f && r2 != 0.0f;
        kept += static_cast<std::size_t>(accepted);
    }
    for (std::size_t i = 0; i < kept; ++i) {
        const float y = out[2 * i];
        const float x = out[2 * i + 1];
        const float r2 = x * x + y * y;
        const float scale = std::sqrt(-2.0f * polar_log(r2) / r2);
        out[2 * i] = (y * scale) * stddev + mean;
        out[2 * i + 1] = (x * scale) * stddev + mean;
    }
    return kept;
}

void
fill_polar_pairs(PolarBlock block, float* out, std::size_t pairs,
                 Mt19937& rng, float mean, float stddev)
{
    std::size_t done = 0;
    while (done < pairs) {
        const std::span<const std::uint32_t> words =
            rng.take(2 * std::min(kPolarBlock, pairs - done));
        const std::size_t attempts = words.size() / 2;
        if (attempts > 0) {
            done += block(words.data(), attempts, out + 2 * done,
                          mean, stddev);
        }
        if (words.size() % 2 != 0) {
            // The block ended mid-attempt, so take() returned fewer
            // words than asked and at least one pair is still
            // needed.  Copy the last word before rng() refills.
            const std::uint32_t x = words.back();
            const std::uint32_t split[2] = {x, rng()};
            done += block(split, 1, out + 2 * done, mean, stddev);
        }
    }
}

#if defined(__x86_64__)

#define MUGI_AVX512 __attribute__((target("avx512f")))

bool
cpu_has_avx512f()
{
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") != 0;
    }();
    return has;
}

namespace {

/** The low @p n of 16 lanes. */
__mmask16
low_lanes(std::size_t n)
{
    return static_cast<__mmask16>((1u << n) - 1u);
}

MUGI_AVX512 __m512i
splat(std::uint32_t v)
{
    return _mm512_set1_epi32(static_cast<int>(v));
}

MUGI_AVX512 __m512i
twist16(__m512i word, __m512i next, __m512i far)
{
    const __m512i y =
        _mm512_or_si512(_mm512_and_si512(word, splat(0x80000000u)),
                        _mm512_and_si512(next, splat(0x7FFFFFFFu)));
    const __m512i odd_a =
        _mm512_maskz_mov_epi32(_mm512_test_epi32_mask(y, splat(1u)),
                               splat(0x9908B0DFu));
    return _mm512_xor_si512(
        _mm512_xor_si512(far, _mm512_srli_epi32(y, 1)), odd_a);
}

MUGI_AVX512 __m512i
temper16(__m512i y)
{
    y = _mm512_xor_si512(y, _mm512_srli_epi32(y, 11));
    y = _mm512_xor_si512(
        y, _mm512_and_si512(_mm512_slli_epi32(y, 7),
                            splat(0x9D2C5680u)));
    y = _mm512_xor_si512(
        y, _mm512_and_si512(_mm512_slli_epi32(y, 15),
                            splat(0xEFC60000u)));
    return _mm512_xor_si512(y, _mm512_srli_epi32(y, 18));
}

/**
 * Twist and temper the @p lanes words from @p i, reading the far
 * words from @p far.
 */
MUGI_AVX512 void
twist_lanes(std::uint32_t* s, std::uint32_t* out, std::size_t i,
            std::size_t far, __mmask16 lanes)
{
    const __m512i word = _mm512_maskz_loadu_epi32(lanes, s + i);
    const __m512i next = _mm512_maskz_loadu_epi32(lanes, s + i + 1);
    const __m512i far_words =
        _mm512_maskz_loadu_epi32(lanes, s + far);
    const __m512i twisted = twist16(word, next, far_words);
    _mm512_mask_storeu_epi32(s + i, lanes, twisted);
    _mm512_mask_storeu_epi32(out + i, lanes, temper16(twisted));
}

/** (a, b) → (b, a) in every pair of lanes. */
MUGI_AVX512 __m512
swap_pairs(__m512 v)
{
    return _mm512_permute_ps(v, 0xB1);
}

/**
 * The attempts in the @p lanes words at @p words (a pair of lanes per
 * attempt): compress the accepted (y, x) pairs to @p pairs and their
 * r² to @p r2s, and return how many were accepted.  With all 16 lanes
 * the stores are whole vectors, 16 floats at @p pairs and 8 at
 * @p r2s; otherwise they write only the accepted ones.
 */
MUGI_AVX512 std::size_t
keep_attempts(const std::uint32_t* words, __mmask16 lanes,
              float* pairs, float* r2s)
{
    const __m512 one = _mm512_set1_ps(1.0f);
    // polar_coordinate lane by lane: vcvtudq2ps rounds as float(u),
    // and min(fma(float(u), 2⁻³¹, −1), 1 − 2⁻²³) is
    // 2·min(float(u)·2⁻³², 1 − 2⁻²⁴) − 1, rounded once either way
    // (DESIGN.md, "Same bits on either path").
    const __m512 u = _mm512_cvtepu32_ps(
        _mm512_maskz_loadu_epi32(lanes, words));
    const __m512 xy = _mm512_min_ps(
        _mm512_fmadd_ps(u, _mm512_set1_ps(0x1p-31f),
                        _mm512_set1_ps(-1.0f)),
        _mm512_set1_ps(0x1.fffffcp-1f));
    // x² + y² in both lanes of a pair: IEEE addition commutes.
    const __m512 sq = _mm512_mul_ps(xy, xy);
    const __m512 r2 = _mm512_add_ps(sq, swap_pairs(sq));
    // libstdc++ rejects r² > 1 and r² = 0; a pair's lanes agree.
    const __mmask16 keep = _mm512_mask_cmp_ps_mask(
        _mm512_mask_cmp_ps_mask(lanes, r2, one, _CMP_LE_OQ), r2,
        _mm512_setzero_ps(), _CMP_NEQ_OQ);
    const __m512 kept_pairs =
        _mm512_maskz_compress_ps(keep, swap_pairs(xy));
    // One r² per kept pair: the even lane's.
    const auto keep_even = static_cast<__mmask16>(keep & 0x5555u);
    const __m512 kept_r2 = _mm512_maskz_compress_ps(keep_even, r2);
    const std::size_t count =
        static_cast<std::size_t>(__builtin_popcount(keep)) / 2;
    if (lanes == 0xFFFFu) {
        _mm512_storeu_ps(pairs, kept_pairs);
        _mm256_storeu_ps(r2s, _mm512_castps512_ps256(kept_r2));
    } else {
        _mm512_mask_storeu_ps(pairs, low_lanes(2 * count),
                              kept_pairs);
        _mm512_mask_storeu_ps(r2s, low_lanes(count), kept_r2);
    }
    return count;
}

/**
 * polar_log of the low 8 of @p r2's 16 lanes, in 8 double lanes: the
 * same IEEE operations in the same order, so the same bits.
 * vpermt2pd looks up each lane's entry of a 16-entry table held in
 * two registers; it reads only an index's low 4 bits, so the & 15 is
 * implied.
 */
MUGI_AVX512 __m256
polar_log8(__m512 r2)
{
    const __m512i ix = _mm512_castps_si512(r2);
    const __m512i tmp = _mm512_sub_epi32(ix, splat(kLogOff));
    const __m512i index = _mm512_cvtepu32_epi64(
        _mm512_castsi512_si256(_mm512_srli_epi32(tmp, 19)));
    const __m512d k = _mm512_cvtepi32_pd(
        _mm512_castsi512_si256(_mm512_srai_epi32(tmp, 23)));
    const __m512i iz = _mm512_sub_epi32(
        ix, _mm512_and_si512(tmp, splat(0xff800000u)));
    const __m512d z = _mm512_cvtps_pd(
        _mm512_castps512_ps256(_mm512_castsi512_ps(iz)));
    const __m512d invc =
        _mm512_permutex2var_pd(_mm512_loadu_pd(kLogInvC), index,
                               _mm512_loadu_pd(kLogInvC + 8));
    const __m512d logc = _mm512_permutex2var_pd(
        _mm512_loadu_pd(kLogC), index, _mm512_loadu_pd(kLogC + 8));
    const __m512d r =
        _mm512_sub_pd(_mm512_mul_pd(z, invc), _mm512_set1_pd(1.0));
    const __m512d y0 =
        _mm512_add_pd(logc, _mm512_mul_pd(k, _mm512_set1_pd(kLn2)));
    const __m512d rr = _mm512_mul_pd(r, r);
    __m512d y =
        _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(kLogA1), r),
                      _mm512_set1_pd(kLogA2));
    y = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(kLogA0), rr), y);
    y = _mm512_add_pd(_mm512_mul_pd(y, rr), _mm512_add_pd(y0, r));
    return _mm512_cvtpd_ps(y);
}

/** polar_log of all 16 lanes of @p r2: polar_log8 of each half. */
MUGI_AVX512 __m512
polar_log16(__m512 r2)
{
    const __m256 low = polar_log8(r2);
    const __m256 high =
        polar_log8(_mm512_shuffle_f32x4(r2, r2, 0xEE));
    return _mm512_castpd_ps(_mm512_insertf64x4(
        _mm512_castps_pd(_mm512_castps256_ps512(low)),
        _mm256_castps_pd(high), 1));
}

/**
 * Finish the @p n (at most 8) kept (y, x) pairs at @p pairs: pair p
 * takes lane @p first + p of @p scales as its scale, in both of its
 * lanes, and each coordinate becomes coordinate·scale·stddev + mean,
 * rounded op by op in the scalar order.
 */
MUGI_AVX512 void
finish_pairs(float* pairs, std::size_t n, __m512 scales,
             std::uint32_t first, float mean, float stddev)
{
    const __m512i pair_of_lane = _mm512_add_epi32(
        _mm512_set_epi32(7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 0,
                         0),
        splat(first));
    const __mmask16 lanes = low_lanes(2 * n);
    const __m512 yx = _mm512_maskz_loadu_ps(lanes, pairs);
    const __m512 scale = _mm512_permutexvar_ps(pair_of_lane, scales);
    const __m512 sample = _mm512_add_ps(
        _mm512_mul_ps(_mm512_mul_ps(yx, scale),
                      _mm512_set1_ps(stddev)),
        _mm512_set1_ps(mean));
    _mm512_mask_storeu_ps(pairs, lanes, sample);
}

}  // namespace

MUGI_AVX512 void
polar_log_avx512(const float* r2, std::size_t n, float* out)
{
    for (std::size_t i = 0; i < n; i += 16) {
        const __mmask16 lanes =
            low_lanes(std::min<std::size_t>(16, n - i));
        const __m512 logs = polar_log16(_mm512_mask_loadu_ps(
            _mm512_set1_ps(1.0f), lanes, r2 + i));
        _mm512_mask_storeu_ps(out + i, lanes, logs);
    }
}

MUGI_AVX512 void
mt_refill_avx512(std::uint32_t* s, std::uint32_t* out)
{
    // The scalar ranges 16 words at a time.  A group loads its next
    // words before a later group twists them, and its far words are
    // either kM ahead (not yet twisted) or kN - kM > 16 behind
    // (twisted by an earlier group), as in the scalar order.
    std::size_t i = 0;
    for (; i + 16 <= kN - kM; i += 16) {
        twist_lanes(s, out, i, i + kM, 0xFFFFu);
    }
    twist_lanes(s, out, i, i + kM, low_lanes(kN - kM - i));
    for (i = kN - kM; i + 16 <= kN - 1; i += 16) {
        twist_lanes(s, out, i, i + kM - kN, 0xFFFFu);
    }
    twist_lanes(s, out, i, i + kM - kN, low_lanes(kN - 1 - i));
    s[kN - 1] = twist(s[kN - 1], s[0], s[kM - 1]);
    out[kN - 1] = temper(s[kN - 1]);
}

MUGI_AVX512 std::size_t
polar_block_avx512(const std::uint32_t* words, std::size_t attempts,
                   float* out, float mean, float stddev)
{
    // Left uninitialized: the masked loads below read only the r²
    // that keep_attempts wrote.
    alignas(64) float r2s[kPolarBlock];
    // Eight attempts per 16 words.  kept <= j and j + 8 <= attempts,
    // so a whole-vector store at pair kept stays inside the block.
    std::size_t kept = 0;
    std::size_t j = 0;
    for (; j + 8 <= attempts; j += 8) {
        kept += keep_attempts(words + 2 * j, 0xFFFFu, out + 2 * kept,
                              r2s + kept);
    }
    if (j < attempts) {
        kept += keep_attempts(words + 2 * j,
                              low_lanes(2 * (attempts - j)),
                              out + 2 * kept, r2s + kept);
    }
    // 16 kept pairs at a time, one lane per pair: one log (a
    // masked-off lane logs 1), divide and square root per pair, then
    // finish_pairs copies each pair's scale to its two lanes.
    for (std::size_t i = 0; i < kept; i += 16) {
        const std::size_t n = std::min<std::size_t>(16, kept - i);
        const __m512 r2 = _mm512_mask_loadu_ps(
            _mm512_set1_ps(1.0f), low_lanes(n), r2s + i);
        const __m512 scale = _mm512_sqrt_ps(_mm512_div_ps(
            _mm512_mul_ps(_mm512_set1_ps(-2.0f), polar_log16(r2)),
            r2));
        finish_pairs(out + 2 * i, std::min<std::size_t>(8, n), scale,
                     0, mean, stddev);
        if (n > 8) {
            finish_pairs(out + 2 * i + 16, n - 8, scale, 8, mean,
                         stddev);
        }
    }
    return kept;
}

#undef MUGI_AVX512

#else  // !__x86_64__: no AVX-512 kernels; the scalar ones always run.

bool
cpu_has_avx512f()
{
    return false;
}

void
mt_refill_avx512(std::uint32_t* s, std::uint32_t* out)
{
    mt_refill_scalar(s, out);
}

void
polar_log_avx512(const float* r2, std::size_t n, float* out)
{
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = polar_log(r2[i]);
    }
}

std::size_t
polar_block_avx512(const std::uint32_t* words, std::size_t attempts,
                   float* out, float mean, float stddev)
{
    return polar_block_scalar(words, attempts, out, mean, stddev);
}

#endif  // __x86_64__

void
mt_refill(std::uint32_t* s, std::uint32_t* out)
{
    if (cpu_has_avx512f()) {
        mt_refill_avx512(s, out);
    } else {
        mt_refill_scalar(s, out);
    }
}

PolarBlock
polar_block()
{
    return cpu_has_avx512f() ? polar_block_avx512
                             : polar_block_scalar;
}

}  // namespace detail
}  // namespace support
}  // namespace mugi
