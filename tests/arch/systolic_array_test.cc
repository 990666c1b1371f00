#include "arch/systolic_array.h"

#include <random>

#include <gtest/gtest.h>

#include "model/ops.h"
#include "support/rng.h"

namespace mugi {
namespace arch {
namespace {

support::MatrixF
random_matrix(std::size_t r, std::size_t c, std::uint32_t seed)
{
    std::mt19937 rng(seed);
    support::MatrixF m(r, c);
    support::fill_gaussian(m, rng, 0.0f, 1.0f);
    return m;
}

TEST(SystolicArray, MatchesReferenceGemm)
{
    const auto a = random_matrix(12, 20, 401);
    const auto b = random_matrix(20, 9, 402);
    const SystolicResult got = systolic_gemm(a, b, 4);
    const support::MatrixF expected = model::linear(a, b);
    for (std::size_t i = 0; i < 12; ++i) {
        for (std::size_t j = 0; j < 9; ++j) {
            EXPECT_NEAR(got.out.at(i, j), expected.at(i, j), 1e-4);
        }
    }
}

TEST(SystolicArray, CycleCountMatchesAnalytic)
{
    const struct {
        std::size_t m, k, n, dim;
    } cases[] = {{8, 16, 16, 16}, {16, 16, 16, 16}, {8, 64, 32, 16},
                 {5, 7, 9, 4},    {32, 8, 8, 8},    {1, 128, 16, 16}};
    for (const auto& c : cases) {
        const auto a = random_matrix(c.m, c.k, 403);
        const auto b = random_matrix(c.k, c.n, 404);
        const SystolicResult got = systolic_gemm(a, b, c.dim);
        EXPECT_EQ(got.cycles,
                  systolic_cycles(c.m, c.n, c.k, c.dim))
            << c.m << "x" << c.k << "x" << c.n << " A=" << c.dim;
    }
}

TEST(SystolicArray, SmallBatchUnderutilization)
{
    // Sec. 6.2: small-batch GEMM under-utilizes large arrays.  With
    // m = 8 activations, a 16x16 array cannot fill its output tile.
    const auto a8 = random_matrix(8, 256, 405);
    const auto b = random_matrix(256, 256, 406);
    const SystolicResult small_batch = systolic_gemm(a8, b, 16);
    EXPECT_LT(small_batch.utilization, 0.5);

    const auto a32 = random_matrix(32, 256, 407);
    const SystolicResult large_batch = systolic_gemm(a32, b, 16);
    EXPECT_GT(large_batch.utilization,
              small_batch.utilization * 1.5);
}

TEST(SystolicArray, UtilizationWorsensWithArraySize)
{
    const auto a = random_matrix(8, 128, 409);
    const auto b = random_matrix(128, 128, 410);
    const SystolicResult a8 = systolic_gemm(a, b, 8);
    const SystolicResult a32 = systolic_gemm(a, b, 32);
    EXPECT_GT(a8.utilization, a32.utilization);
}

TEST(SystolicArray, MacCountExact)
{
    const auto a = random_matrix(6, 10, 411);
    const auto b = random_matrix(10, 7, 412);
    const SystolicResult got = systolic_gemm(a, b, 4);
    EXPECT_EQ(got.macs, 6u * 10u * 7u);
}

class SystolicDimTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SystolicDimTest, CorrectAcrossArraySizes)
{
    const std::size_t dim = GetParam();
    const auto a = random_matrix(dim + 3, 2 * dim + 1, 413);
    const auto b = random_matrix(2 * dim + 1, dim - 1, 414);
    const SystolicResult got = systolic_gemm(a, b, dim);
    const support::MatrixF expected = model::linear(a, b);
    for (std::size_t i = 0; i < expected.rows(); ++i) {
        for (std::size_t j = 0; j < expected.cols(); ++j) {
            EXPECT_NEAR(got.out.at(i, j), expected.at(i, j), 1e-3);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Dims, SystolicDimTest,
                         ::testing::Values(2, 4, 8, 16));

}  // namespace
}  // namespace arch
}  // namespace mugi
