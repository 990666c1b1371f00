/**
 * @file
 * support/matrix.h: a Matrix owns a block of its own or views a
 * slice of a shared one, which it keeps alive; copies are deep, a
 * moved-from matrix is 0x0, and data() is a view whose assignment
 * copies an equal-size range in.
 */

#include "support/matrix.h"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace mugi {
namespace support {
namespace {

/** A block of 0, 1, ..., n - 1 that sets @p *released when freed. */
std::shared_ptr<float[]>
counting_block(std::size_t n, bool* released)
{
    std::shared_ptr<float[]> block(new float[n],
                                   [released](float* p) {
                                       *released = true;
                                       delete[] p;
                                   });
    for (std::size_t i = 0; i < n; ++i) {
        block[i] = static_cast<float>(i);
    }
    return block;
}

TEST(Matrix, ShapeConstructorsOwnInitializedElements)
{
    const MatrixF zeros(2, 3);
    const MatrixF sevens(2, 3, 7.0f);
    ASSERT_EQ(zeros.size(), 6u);
    for (std::size_t i = 0; i < zeros.size(); ++i) {
        EXPECT_EQ(zeros.data()[i], 0.0f);
        EXPECT_EQ(sevens.data()[i], 7.0f);
    }
    EXPECT_NE(zeros.row_data(0), sevens.row_data(0));
}

TEST(Matrix, SliceReadsItsBlockAndKeepsItAlive)
{
    bool released = false;
    std::shared_ptr<float[]> block = counting_block(16, &released);
    MatrixF slice(2, 3, block, 5);
    EXPECT_EQ(slice.row_data(0), block.get() + 5);
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_EQ(slice(r, c), static_cast<float>(5 + 3 * r + c));
        }
    }
    // Writes go to the block.
    slice(1, 2) = -1.0f;
    EXPECT_EQ(block[10], -1.0f);

    {
        MatrixF other(1, 4, block, 12);
        EXPECT_EQ(other(0, 3), 15.0f);
    }
    block.reset();
    EXPECT_FALSE(released);
    EXPECT_EQ(slice(0, 0), 5.0f);
    EXPECT_EQ(slice(1, 2), -1.0f);
    slice = MatrixF();
    EXPECT_TRUE(released);
}

TEST(Matrix, CopiesAreDeep)
{
    bool released = false;
    const std::shared_ptr<float[]> block =
        counting_block(8, &released);
    MatrixF owned(2, 2, 1.5f);
    MatrixF slice(2, 2, block, 4);
    for (MatrixF* source : {&owned, &slice}) {
        MatrixF copy(*source);
        MatrixF assigned(1, 1);
        assigned = *source;
        for (MatrixF* target : {&copy, &assigned}) {
            EXPECT_TRUE(*target == *source);
            EXPECT_NE(target->row_data(0), source->row_data(0));
            target->at(0, 0) = 100.0f;
            EXPECT_NE(source->at(0, 0), 100.0f);
        }
    }
    // Assigning over a slice replaces its storage, not the block's
    // elements.
    slice = owned;
    EXPECT_EQ(block[4], 4.0f);
    EXPECT_NE(slice.row_data(0), block.get() + 4);
}

TEST(Matrix, MovedFromIsEmpty)
{
    MatrixF source(3, 4, 2.0f);
    const float* elements = source.row_data(0);
    MatrixF moved(std::move(source));
    EXPECT_EQ(moved.row_data(0), elements);
    EXPECT_EQ(source.rows(), 0u);
    EXPECT_EQ(source.cols(), 0u);
    EXPECT_EQ(source.size(), 0u);
    EXPECT_TRUE(source.data().empty());

    MatrixF target(1, 1);
    target = std::move(moved);
    EXPECT_EQ(target.rows(), 3u);
    EXPECT_EQ(target.cols(), 4u);
    EXPECT_EQ(target.row_data(0), elements);
    EXPECT_EQ(moved.rows(), 0u);
    EXPECT_EQ(moved.cols(), 0u);
    EXPECT_TRUE(moved.data().empty());
}

TEST(Matrix, AssigningToDataCopiesTheRangeIn)
{
    // How a caller fills a matrix from a std::vector:
    // m.data() = values.
    MatrixF m(2, 3);
    const float* elements = m.row_data(0);
    m.data() = std::vector<float>{1, 2, 3, 4, 5, 6};
    EXPECT_EQ(m.row_data(0), elements);
    EXPECT_EQ(m(0, 0), 1.0f);
    EXPECT_EQ(m(1, 2), 6.0f);

    // Into a slice, through to its block.
    bool released = false;
    const std::shared_ptr<float[]> block =
        counting_block(8, &released);
    MatrixF slice(1, 3, block, 2);
    const std::vector<float> values = {-1, -2, -3};
    slice.data() = values;
    EXPECT_EQ(block[2], -1.0f);
    EXPECT_EQ(block[4], -3.0f);
    EXPECT_EQ(block[5], 5.0f);

    // From another matrix's elements.
    const MatrixF source(2, 3, 9.0f);
    m.data() = source.data();
    EXPECT_TRUE(m == source);

    EXPECT_THROW(m.data() = std::vector<float>(5), std::length_error);
    EXPECT_EQ(m(0, 0), 9.0f);
}

}  // namespace
}  // namespace support
}  // namespace mugi
