#include "vlp/vlp_gemm.h"

#include <cmath>
#include <cstring>
#include <iterator>
#include <random>

#include <gtest/gtest.h>

#include "numerics/bfloat16.h"

namespace mugi {
namespace vlp {
namespace {

Int4Matrix
random_int4(std::size_t rows, std::size_t cols, std::mt19937& rng)
{
    Int4Matrix m(rows, cols);
    std::uniform_int_distribution<int> dist(-7, 7);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            m.at(r, c) = numerics::Int4::from_int(dist(rng));
        }
    }
    return m;
}

support::MatrixF
random_bf16(std::size_t rows, std::size_t cols, std::mt19937& rng)
{
    support::MatrixF m(rows, cols);
    std::normal_distribution<float> dist(0.0f, 1.0f);
    for (float& v : m.data()) {
        v = numerics::bf16_round(dist(rng));
    }
    return m;
}

TEST(VlpGemmMugi, MatchesReferenceExactly)
{
    std::mt19937 rng(141);
    const Int4Matrix w = random_int4(24, 12, rng);
    const support::MatrixF x = random_bf16(12, 8, rng);
    const VlpGemmResult got = vlp_gemm_mugi(w, x, 16, 8);
    const support::MatrixF expected = int4_gemm_reference(w, x);
    ASSERT_EQ(got.out.rows(), expected.rows());
    ASSERT_EQ(got.out.cols(), expected.cols());
    for (std::size_t n = 0; n < expected.rows(); ++n) {
        for (std::size_t b = 0; b < expected.cols(); ++b) {
            EXPECT_EQ(got.out.at(n, b), expected.at(n, b))
                << n << "," << b;
        }
    }
}

TEST(VlpGemmMugi, MatchesFloatGemmClosely)
{
    // Temporal accumulation of BF16 activations with magnitudes <= 7
    // is exact in binary32, so the result also matches an fma-free
    // float GEMM up to accumulation-order effects (none here: same
    // k-ascending order).
    std::mt19937 rng(151);
    const Int4Matrix w = random_int4(9, 33, rng);
    const support::MatrixF x = random_bf16(33, 5, rng);
    const VlpGemmResult got = vlp_gemm_mugi(w, x, 8, 8);
    for (std::size_t n = 0; n < w.rows(); ++n) {
        for (std::size_t b = 0; b < x.cols(); ++b) {
            float direct = 0.0f;
            for (std::size_t k = 0; k < w.cols(); ++k) {
                direct += static_cast<float>(w.at(n, k).value()) *
                          x.at(k, b);
            }
            EXPECT_NEAR(got.out.at(n, b), direct, 1e-4)
                << n << "," << b;
        }
    }
}

TEST(VlpGemmMugi, CycleCountMatchesAnalyticModel)
{
    std::mt19937 rng(161);
    const struct {
        std::size_t n, k, b;
        int h, w;
    } cases[] = {
        {16, 8, 8, 16, 8},  {32, 8, 8, 16, 8},  {16, 8, 16, 16, 8},
        {17, 3, 9, 16, 8},  {128, 4, 8, 32, 8}, {5, 5, 5, 8, 8},
    };
    for (const auto& c : cases) {
        const Int4Matrix w = random_int4(c.n, c.k, rng);
        const support::MatrixF x = random_bf16(c.k, c.b, rng);
        const VlpGemmResult got = vlp_gemm_mugi(w, x, c.h, c.w);
        EXPECT_EQ(got.cycles,
                  vlp_gemm_mugi_cycles(c.n, c.b, c.k, c.h, c.w))
            << c.n << "x" << c.k << "x" << c.b;
    }
}

TEST(VlpGemmMugi, EverySubscriptionFiresExactlyOnce)
{
    std::mt19937 rng(171);
    const Int4Matrix w = random_int4(16, 10, rng);
    const support::MatrixF x = random_bf16(10, 8, rng);
    const VlpGemmResult got = vlp_gemm_mugi(w, x, 16, 8);
    // One subscription per (n, k, b) triple: N*K*B total.
    EXPECT_EQ(got.subscriptions, 16u * 10u * 8u);
}

TEST(VlpGemmMugi, ZeroWeightsContributeZero)
{
    Int4Matrix w(4, 4);  // All zeros.
    std::mt19937 rng(181);
    const support::MatrixF x = random_bf16(4, 4, rng);
    const VlpGemmResult got = vlp_gemm_mugi(w, x, 4, 4);
    for (const float v : got.out.data()) {
        EXPECT_EQ(v, 0.0f);
    }
}

TEST(VlpGemmSweepAccumulator, BitIdenticalToBaselineAcrossRaggedShapes)
{
    // The sweep-accumulator kernel must reproduce the literal
    // cycle-by-row scan bit for bit -- outputs and all three
    // counters -- including tile remainders, single rows/columns and
    // an empty batch.
    std::mt19937 rng(401);
    const struct {
        std::size_t n, k, b;
        int h, w;
    } cases[] = {
        {24, 12, 8, 16, 8},   // tile remainder on rows
        {17, 3, 9, 16, 8},    // remainders on rows and columns
        {1, 1, 1, 8, 8},      // single everything
        {1, 16, 8, 64, 8},    // single row
        {64, 16, 1, 64, 8},   // single column (decode shape)
        {64, 16, 0, 64, 8},   // empty batch
        {5, 5, 5, 3, 2},      // tiny array, ragged everywhere
        {256, 32, 24, 256, 8},  // serving shape
        {33, 0, 7, 16, 8},    // empty reduction
    };
    for (const auto& c : cases) {
        const Int4Matrix w = random_int4(c.n, c.k, rng);
        const support::MatrixF x = random_bf16(c.k, c.b, rng);
        const VlpGemmResult fast = vlp_gemm_mugi(w, x, c.h, c.w);
        const VlpGemmResult golden =
            vlp_gemm_mugi_baseline(w, x, c.h, c.w);
        EXPECT_TRUE(fast.out == golden.out)
            << c.n << "x" << c.k << "x" << c.b;
        EXPECT_EQ(fast.cycles, golden.cycles);
        EXPECT_EQ(fast.sweeps, golden.sweeps);
        EXPECT_EQ(fast.subscriptions, golden.subscriptions);
    }
}

TEST(VlpGemmSweepAccumulator, ExactZerosMatchBaselineSignBitsIncluded)
{
    // Exact +0 / -0 activations against every sign-magnitude code,
    // including both zero-magnitude ones (0x8 is the -0 code
    // from_int never makes).  Outputs must equal the literal scan's
    // bit for bit: == would let a -0 pass for a +0.
    std::mt19937 rng(471);
    const std::size_t n = 19, k = 23, b = 11;
    Int4Matrix codes(n, k);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < k; ++c) {
            // Row 0 holds only the -0 code, row 1 alternates the two
            // zero codes, and the rest cycle through all sixteen.
            std::uint8_t nibble = (r * 5 + c * 3) & 0xF;
            if (r == 0) nibble = 0x8;
            if (r == 1) nibble = (c & 1) ? 0x8 : 0x0;
            codes.at(r, c) = numerics::Int4::decode(nibble);
        }
    }
    support::MatrixF values = random_bf16(k, b, rng);
    for (std::size_t r = 0; r < k; ++r) {
        for (std::size_t c = 0; c < b; ++c) {
            // Columns 0 and 1 are exact zeros of both signs; the rest
            // mix zeros in with the normals.
            if (c < 2 || (r + c) % 3 == 0) {
                values.at(r, c) = ((r + c) & 1) ? -0.0f : 0.0f;
            }
        }
    }
    const auto same_bits = [](const support::MatrixF& a,
                              const support::MatrixF& b) {
        return a.rows() == b.rows() && a.cols() == b.cols() &&
               std::memcmp(a.data().data(), b.data().data(),
                           a.size() * sizeof(float)) == 0;
    };

    const VlpGemmResult mugi = vlp_gemm_mugi(codes, values, 16, 8);
    const VlpGemmResult mugi_golden =
        vlp_gemm_mugi_baseline(codes, values, 16, 8);
    EXPECT_TRUE(same_bits(mugi.out, mugi_golden.out));
    EXPECT_EQ(mugi.subscriptions, mugi_golden.subscriptions);
    for (std::size_t c = 0; c < b; ++c) {
        EXPECT_FALSE(std::signbit(mugi.out.at(0, c))) << c;
        EXPECT_FALSE(std::signbit(mugi.out.at(1, c))) << c;
    }
}

TEST(VlpGemmSweep, PartialKRangesComposeToTheFullGemm)
{
    // Running consecutive k-ranges over the same output accumulates
    // the full GEMM -- the property the grouped serving path relies
    // on (one k-run per quantization group, no weight copies).  The
    // ranges are empty, shorter than, equal to and longer than the
    // executor's 32-column k blocks, and the batch spans more than
    // one 8-column panel.
    std::mt19937 rng(431);
    const std::size_t n = 21, k = 80, b = 13;
    const Int4Matrix w = random_int4(n, k, rng);
    const support::MatrixF x = random_bf16(k, b, rng);
    const std::size_t splits[] = {0, 0, 6, 38, 39, k};
    support::MatrixF split(n, b, 0.0f);
    for (std::size_t i = 0; i + 1 < std::size(splits); ++i) {
        vlp_gemm_sweep(w, x, splits[i], splits[i + 1], split);
    }
    const VlpGemmResult whole = vlp_gemm_mugi_baseline(w, x, 64, 8);
    EXPECT_TRUE(split == whole.out);
}

TEST(VlpGemm, MugiMappingUtilizationAdvantageAtSmallBatch)
{
    // Sec. 4.2: with batch 8 on the columns, Mugi's transposed mapping
    // fills the array; Carat's row mapping of the batch leaves rows
    // idle.  Compare sweeps (occupancy proxy) for the same GEMM.
    std::mt19937 rng(201);
    const std::size_t n = 64, k = 16, b = 8;
    const Int4Matrix w = random_int4(n, k, rng);
    const support::MatrixF x = random_bf16(k, b, rng);
    const VlpGemmResult mugi = vlp_gemm_mugi(w, x, 64, 8);

    // Carat maps the batch (8) across its 64 rows: 56 idle rows.  Its
    // mapping is Mugi's with the operands in the other order, the
    // batch's INT4 codes as the temporal operand.
    Int4Matrix acts_t(b, k);
    support::MatrixF w_t(k, n);
    std::uniform_int_distribution<int> dist(-7, 7);
    for (std::size_t i = 0; i < b; ++i)
        for (std::size_t j = 0; j < k; ++j)
            acts_t.at(i, j) = numerics::Int4::from_int(dist(rng));
    for (std::size_t i = 0; i < k; ++i)
        for (std::size_t j = 0; j < n; ++j) w_t.at(i, j) = 1.0f;
    const VlpGemmResult carat = vlp_gemm_mugi(acts_t, w_t, 64, 8);

    // Same MAC count; Mugi needs strictly fewer sweeps (cycles).
    EXPECT_LT(mugi.cycles, carat.cycles);
    EXPECT_EQ(mugi.cycles * 8, carat.cycles);  // 64/8 ratio.
}

}  // namespace
}  // namespace vlp
}  // namespace mugi
