/**
 * @file
 * model::linear with a worker pool against the serial kernel: the
 * output-column panels run as concurrent tasks, each adding up its
 * rows in a private tile, and every result must be bit-identical to
 * pool == nullptr.  Run under TSan in CI (the panels' tile copies
 * into the shared output are the writes the sanitizer should see).
 */

#include "model/ops.h"

#include <cstddef>
#include <cstring>
#include <random>

#include <gtest/gtest.h>

#include "support/rng.h"
#include "support/thread_pool.h"

namespace mugi {
namespace model {
namespace {

TEST(PooledLinear, BitIdenticalToSerialAcrossWorkerCounts)
{
    // Row counts cross the 32-row tile; column counts fall below, on
    // and off a 16-column panel edge, so pools of 1-4 workers see one
    // task, ragged panels and more workers than panels.
    std::mt19937 rng(322);
    for (std::size_t workers = 1; workers <= 4; ++workers) {
        support::ThreadPool pool(workers);
        for (const std::size_t rows : {1u, 3u, 16u, 40u}) {
            for (const std::size_t cols : {5u, 16u, 40u, 100u}) {
                support::MatrixF x(rows, 24);
                support::MatrixF w(24, cols);
                support::fill_gaussian(x, rng, 0.0f, 1.0f);
                support::fill_gaussian(w, rng, 0.0f, 0.5f);
                x.at(0, 3) = 0.0f;
                x.at(rows - 1, 20) = -0.0f;
                const support::MatrixF serial = linear(x, w);
                const support::MatrixF pooled = linear(x, w, &pool);
                ASSERT_EQ(pooled.rows(), rows);
                ASSERT_EQ(pooled.cols(), cols);
                EXPECT_EQ(std::memcmp(pooled.data().data(),
                                      serial.data().data(),
                                      serial.size() * sizeof(float)),
                          0)
                    << workers << " workers, " << rows << " x "
                    << cols;
            }
        }
    }
}

}  // namespace
}  // namespace model
}  // namespace mugi
