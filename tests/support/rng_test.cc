/**
 * @file
 * Contract of support/rng.h: Mt19937 yields std::mt19937's sequence,
 * and fill_gaussian yields libstdc++'s
 * std::normal_distribution<float> bit for bit and leaves the engine
 * exactly where libstdc++ would, so a model's later tensors continue
 * the same stream.  TransformerModel's weights are therefore the ones
 * the std path built, tensor by tensor.  The fill cases run once per
 * block kernel, scalar and AVX-512F; the two block kernels are also
 * compared at every attempt count of a block, and the engine's
 * AVX-512F refill against the scalar one.  The fill's own log is
 * checked against the C library's logf, in both forms, over the
 * floats a kept r² can be.
 */

#include "support/rng.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ios>
#include <limits>
#include <ostream>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/config.h"
#include "model/transformer.h"

namespace mugi {
namespace {

TEST(Mt19937, MatchesStdMt19937)
{
    for (const std::uint32_t seed :
         {0u, 1u, 7u, 5489u, 0xFFFFFFFFu}) {
        std::mt19937 expected(seed);
        support::Mt19937 engine(seed);
        for (std::size_t i = 0; i < 3 * 624 + 5; ++i) {
            ASSERT_EQ(engine(), expected())
                << "seed " << seed << ", word " << i;
        }
    }
}

TEST(Mt19937, TenThousandthWordIsTheStandardsCheckValue)
{
    // [rand.predef]: the 10000th consecutive invocation of a
    // default-constructed mt19937 produces 4123659995.
    support::Mt19937 engine;
    std::uint32_t word = 0;
    for (int i = 0; i < 10000; ++i) {
        word = engine();
    }
    EXPECT_EQ(word, 4123659995u);
}

TEST(Mt19937, TakeHandsOutWhatOperatorCallReturns)
{
    for (const std::size_t skip : {0, 1, 623}) {
        SCOPED_TRACE(::testing::Message() << "skip " << skip);
        support::Mt19937 engine(42);
        support::Mt19937 expected(42);
        for (std::size_t i = 0; i < skip; ++i) {
            engine();
            expected();
        }
        std::size_t drawn = skip;
        for (const std::size_t n :
             {1, 2, 511, 512, 624, 1000, 3, 512, 512, 512, 700}) {
            const std::span<const std::uint32_t> words =
                engine.take(n);
            ASSERT_GE(words.size(), 1u);
            ASSERT_LE(words.size(), n);
            drawn += words.size();
            if (words.size() < n) {
                // Only a block end cuts a request short.
                EXPECT_EQ(drawn % 624, 0u) << "n " << n;
            }
            for (const std::uint32_t word : words) {
                ASSERT_EQ(word, expected()) << "n " << n;
            }
        }
        EXPECT_EQ(engine(), expected());
    }
}

TEST(Mt19937, Avx512RefillMatchesScalar)
{
    if (!support::detail::cpu_has_avx512f()) {
        GTEST_SKIP() << "CPU lacks avx512f";
    }
    using State =
        std::array<std::uint32_t, support::detail::kMtWords>;
    // Refills @p state both ways; leaves the scalar result in it.
    const auto expect_same_refill = [](State& state) {
        State vector_state = state;
        State scalar_out{};
        State vector_out{};
        support::detail::mt_refill_scalar(state.data(),
                                          scalar_out.data());
        support::detail::mt_refill_avx512(vector_state.data(),
                                          vector_out.data());
        EXPECT_EQ(vector_state, state);
        EXPECT_EQ(vector_out, scalar_out);
    };
    for (const std::uint32_t seed :
         {0u, 1u, 7u, 5489u, 0xFFFFFFFFu}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        // The standard's seeding, then three blocks in a row.
        State state{};
        state[0] = seed;
        for (std::uint32_t i = 1; i < state.size(); ++i) {
            const std::uint32_t prev = state[i - 1];
            state[i] = 1812433253u * (prev ^ (prev >> 30)) + i;
        }
        for (int block = 0; block < 3; ++block) {
            expect_same_refill(state);
        }
    }
    support::Mt19937 words(2024);
    for (int trial = 0; trial < 1000; ++trial) {
        SCOPED_TRACE(::testing::Message() << "state " << trial);
        State state{};
        for (std::uint32_t& word : state) {
            word = words();
        }
        expect_same_refill(state);
    }
}

TEST(PolarLog, SmallestNonzeroCoordinateIsTwoToTheMinus24)
{
    // polar_coordinate does not decrease as the word grows, so the
    // nonzero values nearest zero lie next to the words that give
    // zero.  The window holds all of those and nonzero words on both
    // sides of them.
    const auto coordinate = support::detail::polar_coordinate;
    constexpr std::uint32_t kMid = 0x80000000u;
    constexpr std::uint32_t kHalfWidth = 4096;
    ASSERT_LT(coordinate(kMid - kHalfWidth), 0.0f);
    ASSERT_GT(coordinate(kMid + kHalfWidth), 0.0f);
    float smallest = 1.0f;
    for (std::uint32_t u = kMid - kHalfWidth; u < kMid + kHalfWidth;
         ++u) {
        ASSERT_LE(coordinate(u), coordinate(u + 1)) << "word " << u;
        if (coordinate(u) != 0.0f) {
            smallest = std::min(smallest, std::abs(coordinate(u)));
        }
    }
    EXPECT_EQ(smallest, 0x1p-24f);
    // So a kept r² is at least 2⁻⁴⁸: the log cases below cover
    // [2⁻⁵⁰, 1].
    EXPECT_EQ(smallest * smallest, 0x1p-48f);
}

// polar_log is glibc's logf transcribed: another C library's logf
// rounds some of these floats the other way.
#ifdef __GLIBC__

void
scalar_logs(const float* r2, std::size_t n, float* out)
{
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = support::detail::polar_log(r2[i]);
    }
}

/** A form of polar_log: writes the logs of the n floats at r2. */
struct LogForm {
    const char* name;
    void (*logs)(const float* r2, std::size_t n, float* out);
};

const LogForm kScalarLog = {"scalar", scalar_logs};
const LogForm kAvx512Log = {"avx512",
                             support::detail::polar_log_avx512};

/**
 * Require every form in @p forms to give std::log's bits on every
 * @p stride-th float from @p first up to, not past, @p last (both
 * positive).
 */
void
expect_matches_libm(std::span<const LogForm> forms, float first,
                    float last, std::uint32_t stride)
{
    constexpr std::size_t kChunk = 4096;
    std::vector<float> r2(kChunk);
    std::vector<float> expected(kChunk);
    std::vector<float> logs(kChunk);
    std::vector<std::uint64_t> mismatches(forms.size());
    std::uint64_t bits = std::bit_cast<std::uint32_t>(first);
    const std::uint64_t end = std::bit_cast<std::uint32_t>(last);
    while (bits <= end) {
        std::size_t n = 0;
        for (; n < kChunk && bits <= end; ++n, bits += stride) {
            r2[n] = std::bit_cast<float>(
                static_cast<std::uint32_t>(bits));
            expected[n] = std::log(r2[n]);
        }
        for (std::size_t f = 0; f < forms.size(); ++f) {
            forms[f].logs(r2.data(), n, logs.data());
            for (std::size_t i = 0; i < n; ++i) {
                if (std::bit_cast<std::uint32_t>(logs[i]) ==
                    std::bit_cast<std::uint32_t>(expected[i])) {
                    continue;
                }
                if (mismatches[f]++ < 8) {
                    ADD_FAILURE() << forms[f].name << std::hexfloat
                                  << ": log(" << r2[i] << ") = "
                                  << logs[i] << ", libm "
                                  << expected[i];
                }
            }
        }
    }
    for (std::size_t f = 0; f < forms.size(); ++f) {
        EXPECT_EQ(mismatches[f], 0u)
            << forms[f].name << std::hexfloat << " over [" << first
            << ", " << last << "], stride " << stride;
    }
}

/**
 * Every float of [0.5, 1], which holds all 16 table intervals and
 * 1.0, then every 97th float of [2⁻⁵⁰, 0.5).
 */
void
expect_matches_libm_on_sample(const LogForm& form)
{
    expect_matches_libm({&form, 1}, 0.5f, 1.0f, 1);
    expect_matches_libm({&form, 1}, 0x1p-50f,
                        std::nextafter(0.5f, 0.0f), 97);
}

TEST(PolarLog, ScalarMatchesLibm)
{
    expect_matches_libm_on_sample(kScalarLog);
}

TEST(PolarLog, Avx512MatchesLibm)
{
    if (!support::detail::cpu_has_avx512f()) {
        GTEST_SKIP() << "CPU lacks avx512f";
    }
    expect_matches_libm_on_sample(kAvx512Log);
}

// All 419,430,401 floats, each form against one libm call per float:
// a few seconds in Release.  CI's Release entry runs it with
// --gtest_also_run_disabled_tests.
TEST(PolarLog, DISABLED_MatchesLibmOnEveryFloatOfTheDomain)
{
    std::vector<LogForm> forms = {kScalarLog};
    if (support::detail::cpu_has_avx512f()) {
        forms.push_back(kAvx512Log);
    }
    expect_matches_libm(forms, 0x1p-50f, 1.0f, 1);
}

#endif  // __GLIBC__

TEST(FillGaussian, SamplesHaveTheRequestedMoments)
{
    support::Mt19937 engine(5);
    support::MatrixF m(256, 682);
    support::fill_gaussian(m, engine, 3.0f, 2.0f);
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const float v : m.data()) {
        ASSERT_TRUE(std::isfinite(v));
        sum += v;
        sum_sq += static_cast<double>(v) * v;
    }
    const double n = static_cast<double>(m.size());
    const double mean = sum / n;
    EXPECT_NEAR(mean, 3.0, 0.02);
    EXPECT_NEAR(std::sqrt(sum_sq / n - mean * mean), 2.0, 0.02);
}

TEST(PolarBlock, Avx512MatchesScalarAtEveryAttemptCount)
{
    // The same words for every count, so the kept count takes every
    // value from 0 up: the AVX-512F kernel finishes 16 kept pairs at
    // a time, in two halves of 8, and meets every tail of both.
    if (!support::detail::cpu_has_avx512f()) {
        GTEST_SKIP() << "CPU lacks avx512f";
    }
    constexpr std::size_t kBlock = support::detail::kPolarBlock;
    support::Mt19937 random(23);
    std::vector<std::uint32_t> words(2 * kBlock);
    for (std::uint32_t& word : words) {
        word = random();
    }
    std::vector<float> expected(2 * kBlock);
    std::vector<float> got(2 * kBlock);
    for (std::size_t attempts = 1; attempts <= kBlock; ++attempts) {
        SCOPED_TRACE(::testing::Message() << "attempts " << attempts);
        // A pair a kernel fails to write keeps a NaN, which no sample
        // is.
        std::ranges::fill(got,
                          std::numeric_limits<float>::quiet_NaN());
        const std::size_t kept = support::detail::polar_block_scalar(
            words.data(), attempts, expected.data(), -1.25f, 0.3f);
        ASSERT_EQ(support::detail::polar_block_avx512(
                      words.data(), attempts, got.data(), -1.25f,
                      0.3f),
                  kept);
        EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                              2 * kept * sizeof(float)),
                  0);
    }
}

// The reference below is libstdc++'s algorithm; other libraries may
// draw normal_distribution differently, and fill_gaussian does not
// follow them.
#ifdef __GLIBCXX__

/** The loop fill_gaussian replaced: a fresh distribution per fill. */
void
fill_gaussian_std(support::MatrixF& m, std::mt19937& rng, float mean,
                  float stddev)
{
    std::normal_distribution<float> dist(mean, stddev);
    for (float& v : m.data()) {
        v = dist(rng);
    }
}

bool
same_bits(const support::MatrixF& a, const support::MatrixF& b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           (a.size() == 0 ||
            std::memcmp(a.data().data(), b.data().data(),
                        a.size() * sizeof(float)) == 0);
}

/** A polar block kernel, and whether it needs AVX-512F. */
struct KernelPath {
    const char* name;
    support::detail::PolarBlock block;
    bool needs_avx512f;
};

/** A failing case names its kernel, not the struct's bytes. */
void
PrintTo(const KernelPath& path, std::ostream* os)
{
    *os << path.name;
}

const KernelPath kKernelPaths[] = {
    {"scalar", support::detail::polar_block_scalar, false},
    {"avx512", support::detail::polar_block_avx512, true},
};

/** Each case runs once per kernel; fill() goes through it. */
class FillGaussianKernel
    : public ::testing::TestWithParam<KernelPath> {
  protected:
    void
    SetUp() override
    {
        if (GetParam().needs_avx512f &&
            !support::detail::cpu_has_avx512f()) {
            GTEST_SKIP() << "CPU lacks avx512f";
        }
    }

    template <typename Engine>
    void
    fill(support::MatrixF& m, Engine& rng, float mean,
         float stddev) const
    {
        support::detail::fill_gaussian_with(GetParam().block, m, rng,
                                            mean, stddev);
    }
};

INSTANTIATE_TEST_SUITE_P(
    Paths, FillGaussianKernel, ::testing::ValuesIn(kKernelPaths),
    [](const ::testing::TestParamInfo<KernelPath>& info) {
        return std::string(info.param.name);
    });

TEST_P(FillGaussianKernel, MatchesLibstdcxxAndStopsWhereItDoes)
{
    struct Params {
        float mean;
        float stddev;
    };
    // The last stddev is not a power of two, so the product rounds.
    const Params params[] = {{0.0f, 1.0f},
                             {3.0f, 2.0f},
                             {0.0f, 1.0f / 16.0f},
                             {-1.25f, 0.3f}};
    for (const std::size_t n : {0, 1, 2, 3, 255, 256, 257, 623, 624,
                                625, 65537}) {
        for (const Params p : params) {
            for (const std::size_t skip : {0, 1, 623}) {
                const std::uint32_t seed =
                    static_cast<std::uint32_t>(n * 31 + skip);
                std::mt19937 reference(seed);
                std::mt19937 std_engine(seed);
                support::Mt19937 engine(seed);
                for (std::size_t i = 0; i < skip; ++i) {
                    reference();
                    std_engine();
                    engine();
                }
                support::MatrixF expected(1, n);
                support::MatrixF with_std(1, n);
                support::MatrixF with_mt(1, n);
                fill_gaussian_std(expected, reference, p.mean,
                                  p.stddev);
                fill(with_std, std_engine, p.mean, p.stddev);
                fill(with_mt, engine, p.mean, p.stddev);
                SCOPED_TRACE(::testing::Message()
                             << "n " << n << ", mean " << p.mean
                             << ", stddev " << p.stddev << ", skip "
                             << skip);
                EXPECT_TRUE(same_bits(with_std, expected));
                EXPECT_TRUE(same_bits(with_mt, expected));
                const std::uint32_t next =
                    static_cast<std::uint32_t>(reference());
                EXPECT_EQ(std_engine(), next);
                EXPECT_EQ(engine(), next);
            }
        }
    }
}

/** Replays fixed 32-bit words; drawing past the script throws. */
class ScriptedEngine {
  public:
    using result_type = std::uint32_t;

    explicit ScriptedEngine(std::vector<std::uint32_t> words)
        : words_(std::move(words))
    {
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return 0xFFFFFFFFu; }
    result_type operator()() { return words_.at(drawn_++); }
    std::size_t drawn() const { return drawn_; }

  private:
    std::vector<std::uint32_t> words_;
    std::size_t drawn_ = 0;
};

TEST_P(FillGaussianKernel, MatchesLibstdcxxOnBoundaryWords)
{
    // (x, y) word pairs that random draws almost never reach.
    std::vector<std::uint32_t> words = {
        0x80000000u, 0x80000000u,  // x = y = 0: r² = 0, rejected.
        0xFFFFFFFFu, 0x80000000u,  // x clamps below 1: accepted.
        0x00000000u, 0x80000000u,  // x = -1, y = 0: r² = 1, accepted.
        0x00000000u, 0x00000000u,  // x = y = -1: r² = 2, rejected.
        0xFFFFFF80u, 0x7FFFFFFFu,  // float(u) rounds to 2^32, 2^31.
        0x40000000u, 0xC0000000u,  // x = -1/2, y = 1/2.
        0xFFFFFF7Fu, 0x80000000u,  // Largest word below the clamp.
    };
    support::Mt19937 tail(17);
    for (int i = 0; i < 64; ++i) {
        words.push_back(tail());
    }
    for (const std::size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}) {
        SCOPED_TRACE(::testing::Message() << "n " << n);
        ScriptedEngine reference(words);
        ScriptedEngine engine(words);
        std::normal_distribution<float> dist(-1.25f, 0.3f);
        support::MatrixF expected(1, n);
        for (float& v : expected.data()) {
            v = dist(reference);
        }
        support::MatrixF got(1, n);
        fill(got, engine, -1.25f, 0.3f);
        EXPECT_TRUE(same_bits(got, expected));
        EXPECT_EQ(engine.drawn(), reference.drawn());
    }
}

TEST_P(FillGaussianKernel, MatchesLibstdcxxOnBoundaryWordsInEveryLane)
{
    // The boundary (x, y) pairs above.  The AVX-512F kernel takes 16
    // words, 8 attempts, at a time from the start of a block; pair b
    // goes to slot `slot` of vector b, so each pair meets each slot.
    const std::uint32_t boundary[][2] = {
        {0x80000000u, 0x80000000u},  // r² = 0, rejected.
        {0x00000000u, 0x80000000u},  // r² = 1, accepted.
        {0xFFFFFFFFu, 0x80000000u},  // x clamps below 1: accepted.
        {0xFFFFFF80u, 0x7FFFFFFFu},  // float(u) rounds to 2^32, 2^31.
        {0xFFFFFF7Fu, 0x80000000u},  // Largest word below the clamp.
        {0x00000000u, 0x00000000u},  // r² = 2, rejected.
    };
    constexpr std::size_t kScripted = 8 * std::size(boundary);
    for (std::size_t slot = 0; slot < 8; ++slot) {
        support::Mt19937 random(100 + slot);
        std::vector<std::uint32_t> words(2 * (kScripted + 96));
        for (std::uint32_t& word : words) {
            word = random();
        }
        for (std::size_t b = 0; b < std::size(boundary); ++b) {
            const std::size_t attempt = 8 * b + slot;
            words[2 * attempt] = boundary[b][0];
            words[2 * attempt + 1] = boundary[b][1];
        }
        // Each first block holds every scripted attempt.
        for (const std::size_t n :
             {2 * kScripted, 2 * kScripted + 1, 2 * kScripted + 16}) {
            SCOPED_TRACE(::testing::Message()
                         << "slot " << slot << ", n " << n);
            ScriptedEngine reference(words);
            ScriptedEngine engine(words);
            std::normal_distribution<float> dist(-1.25f, 0.3f);
            support::MatrixF expected(1, n);
            for (float& v : expected.data()) {
                v = dist(reference);
            }
            support::MatrixF got(1, n);
            fill(got, engine, -1.25f, 0.3f);
            EXPECT_TRUE(same_bits(got, expected));
            EXPECT_EQ(engine.drawn(), reference.drawn());
        }
    }
}

/**
 * Rebuild @p config's weights with the std path, tensor by tensor in
 * the constructor's order, and require every one to match the model's
 * bytewise, and the same draw through @p block too.
 */
void
expect_weights_match_std_path(support::detail::PolarBlock block,
                              const model::ModelConfig& config,
                              std::uint32_t seed)
{
    SCOPED_TRACE(::testing::Message()
                 << config.name << " d_model " << config.d_model
                 << ", seed " << seed);
    const model::TransformerModel model(config, seed);
    std::mt19937 rng(seed);
    support::Mt19937 engine(seed);
    const auto draw = [&rng, &engine, block](std::size_t rows,
                                             std::size_t cols,
                                             float stddev) {
        support::MatrixF m(rows, cols);
        fill_gaussian_std(m, rng, 0.0f, stddev);
        support::MatrixF with_block(rows, cols);
        support::detail::fill_gaussian_with(block, with_block, engine,
                                            0.0f, stddev);
        EXPECT_TRUE(same_bits(with_block, m))
            << rows << "x" << cols << " stddev " << stddev;
        return m;
    };
    const std::size_t d = config.d_model;
    const std::size_t kv_dim =
        config.num_kv_heads * config.head_dim();
    const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(d));
    const float inv_sqrt_ff =
        1.0f / std::sqrt(static_cast<float>(config.d_ff));
    const float resid_gain =
        1.0f / std::sqrt(2.0f * config.num_layers);

    const support::MatrixF embedding = draw(config.vocab, d, 1.0f);
    for (std::size_t token = 0; token < config.vocab; ++token) {
        const std::span<const float> row =
            model.embedding(static_cast<int>(token));
        ASSERT_EQ(row.size(), d);
        EXPECT_EQ(std::memcmp(row.data(), embedding.row_data(token),
                              d * sizeof(float)),
                  0)
            << "embedding row " << token;
    }
    EXPECT_TRUE(same_bits(model.lm_head(),
                          draw(d, config.vocab, inv_sqrt_d)));

    for (std::size_t l = 0; l < config.num_layers; ++l) {
        SCOPED_TRACE(::testing::Message() << "layer " << l);
        const model::LayerWeights& w = model.layer(l);
        const float qk_std = 1.5f * inv_sqrt_d;
        EXPECT_TRUE(same_bits(w.wq, draw(d, d, qk_std)));
        EXPECT_TRUE(same_bits(w.wk, draw(d, kv_dim, qk_std)));
        EXPECT_TRUE(same_bits(w.wv, draw(d, kv_dim, inv_sqrt_d)));
        EXPECT_TRUE(
            same_bits(w.wo, draw(d, d, inv_sqrt_d * resid_gain)));
        if (config.gated_ffn()) {
            EXPECT_TRUE(same_bits(
                w.w_gate, draw(d, config.d_ff, 2.0f * inv_sqrt_d)));
        } else {
            EXPECT_EQ(w.w_gate.size(), 0u);
        }
        EXPECT_TRUE(same_bits(
            w.w_up, draw(d, config.d_ff, 2.0f * inv_sqrt_d)));
        const float down_std = inv_sqrt_ff * resid_gain;
        EXPECT_TRUE(
            same_bits(w.w_down, draw(config.d_ff, d, down_std)));
    }
}

TEST_P(FillGaussianKernel, TransformerWeightsMatchTheStdPath)
{
    // Small configs of both FFN shapes, then the two functional
    // serving configs: the serving benchmark's and mugi_server's.
    const support::detail::PolarBlock block = GetParam().block;
    expect_weights_match_std_path(
        block, model::llama2_7b().scaled_for_eval(2, 32, 64), 99);
    expect_weights_match_std_path(
        block, model::whisper_tiny().scaled_for_eval(2, 48, 96), 3);
    expect_weights_match_std_path(
        block, model::llama2_7b().scaled_for_eval(4, 256, 1024), 7);
    expect_weights_match_std_path(
        block, model::llama2_7b().scaled_for_eval(4, 128, 512), 11);
}

#endif  // __GLIBCXX__

}  // namespace
}  // namespace mugi
