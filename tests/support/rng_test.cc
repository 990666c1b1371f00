/**
 * @file
 * Contract of support/rng.h: Mt19937 yields std::mt19937's sequence,
 * and fill_gaussian yields libstdc++'s
 * std::normal_distribution<float> bit for bit and leaves the engine
 * exactly where libstdc++ would, so a model's later tensors continue
 * the same stream.  TransformerModel's weights are therefore the ones
 * the std path built, tensor by tensor.
 */

#include "support/rng.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
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

TEST(FillGaussian, MatchesLibstdcxxAndStopsWhereItDoes)
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
                support::fill_gaussian(with_std, std_engine, p.mean,
                                       p.stddev);
                support::fill_gaussian(with_mt, engine, p.mean,
                                       p.stddev);
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

TEST(FillGaussian, MatchesLibstdcxxOnBoundaryWords)
{
    // (x, y) word pairs that random draws almost never reach.
    std::vector<std::uint32_t> words = {
        0x80000000u, 0x80000000u,  // x = y = 0: r² = 0, rejected.
        0xFFFFFFFFu, 0x80000000u,  // x clamps below 1: accepted.
        0x00000000u, 0x80000000u,  // x = -1, y = 0: r² = 1, accepted.
        0x00000000u, 0x00000000u,  // x = y = -1: r² = 2, rejected.
        0xFFFFFF80u, 0x7FFFFFFFu,  // float(u) rounds to 2^32, 2^31.
        0x40000000u, 0xC0000000u,  // x = -1/2, y = 1/2.
    };
    support::Mt19937 tail(17);
    for (int i = 0; i < 64; ++i) {
        words.push_back(tail());
    }
    for (const std::size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9}) {
        SCOPED_TRACE(::testing::Message() << "n " << n);
        ScriptedEngine reference(words);
        ScriptedEngine engine(words);
        std::normal_distribution<float> dist(-1.25f, 0.3f);
        support::MatrixF expected(1, n);
        for (float& v : expected.data()) {
            v = dist(reference);
        }
        support::MatrixF got(1, n);
        support::fill_gaussian(got, engine, -1.25f, 0.3f);
        EXPECT_TRUE(same_bits(got, expected));
        EXPECT_EQ(engine.drawn(), reference.drawn());
    }
}

/**
 * Rebuild @p config's weights with the std path, tensor by tensor in
 * the constructor's order, and require every one to match the model's
 * bytewise.
 */
void
expect_weights_match_std_path(const model::ModelConfig& config,
                              std::uint32_t seed)
{
    SCOPED_TRACE(::testing::Message()
                 << config.name << " d_model " << config.d_model
                 << ", seed " << seed);
    const model::TransformerModel model(config, seed);
    std::mt19937 rng(seed);
    const auto draw = [&rng](std::size_t rows, std::size_t cols,
                             float stddev) {
        support::MatrixF m(rows, cols);
        fill_gaussian_std(m, rng, 0.0f, stddev);
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

TEST(FillGaussian, TransformerWeightsMatchTheStdPath)
{
    // Small configs of both FFN shapes, then the two functional
    // serving configs: the serving benchmark's and mugi_server's.
    expect_weights_match_std_path(
        model::llama2_7b().scaled_for_eval(2, 32, 64), 99);
    expect_weights_match_std_path(
        model::whisper_tiny().scaled_for_eval(2, 48, 96), 3);
    expect_weights_match_std_path(
        model::llama2_7b().scaled_for_eval(4, 256, 1024), 7);
    expect_weights_match_std_path(
        model::llama2_7b().scaled_for_eval(4, 128, 512), 11);
}

#endif  // __GLIBCXX__

}  // namespace
}  // namespace mugi
