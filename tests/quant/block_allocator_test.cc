/**
 * @file
 * Contract of quant::BlockPool, the shared allocator under the paged
 * KV cache: exact byte accounting, free-list block reuse, storage
 * created zeroed on first use, refcounts, and peak tracking.  The
 * pool has no capacity: allocate always succeeds, and the KV budget
 * is serve::Scheduler's alone.
 */

#include "quant/block_allocator.h"

#include <gtest/gtest.h>

namespace mugi {
namespace quant {
namespace {

TEST(BlockPool, ExactAccountingAndPeak)
{
    BlockPool pool{units::Tokens(8)};
    EXPECT_EQ(pool.block_tokens(), units::Tokens(8));
    EXPECT_EQ(pool.bytes_in_use(), units::Bytes(0));
    EXPECT_EQ(pool.blocks_in_use(), units::Blocks(0));

    const BlockId a = pool.allocate(units::Bytes(300));
    const BlockId b = pool.allocate(units::Bytes(200));
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.bytes_in_use(), units::Bytes(500));
    EXPECT_EQ(pool.blocks_in_use(), units::Blocks(2));
    EXPECT_EQ(pool.block_bytes(a), units::Bytes(300));

    pool.release(a);
    EXPECT_EQ(pool.bytes_in_use(), units::Bytes(200));
    EXPECT_EQ(pool.blocks_in_use(), units::Blocks(1));
    // Peak is monotone: it remembers the high-water mark.
    EXPECT_EQ(pool.peak_bytes_in_use(), units::Bytes(500));
    pool.release(b);
    EXPECT_EQ(pool.bytes_in_use(), units::Bytes(0));
    EXPECT_EQ(pool.peak_bytes_in_use(), units::Bytes(500));
}

TEST(BlockPool, ReleasedBlocksAreReused)
{
    BlockPool pool{units::Tokens(16)};
    const BlockId a = pool.allocate(units::Bytes(64));
    const BlockId b = pool.allocate(units::Bytes(64));
    const BlockId c = pool.allocate(units::Bytes(128));
    pool.release(b);
    pool.release(a);
    // Same-size allocation reuses the most recently freed slot
    // instead of growing the slot table.
    EXPECT_EQ(pool.allocate(units::Bytes(64)), a);
    EXPECT_EQ(pool.allocate(units::Bytes(64)), b);
    // A different size cannot reuse those slots.
    pool.release(c);
    const BlockId d = pool.allocate(units::Bytes(256));
    EXPECT_NE(d, c);
    // ... but the same size can.
    EXPECT_EQ(pool.allocate(units::Bytes(128)), c);
}

TEST(BlockPool, ReusedBlocksComeBackZeroed)
{
    // The INT4 KV append path ORs nibbles into block bytes, so a
    // block's storage must read as zeros on its first data() call --
    // fresh, reused after being written, or reused after a life spent
    // only in the accounting (a slot released before it ever had
    // storage).
    BlockPool pool{units::Tokens(4)};
    const BlockId a = pool.allocate(units::Bytes(16));
    std::byte* data = pool.data(a);
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(data[i], std::byte{0}) << "fresh block byte " << i;
        data[i] = std::byte{0xAB};
    }
    pool.release(a);
    const BlockId b = pool.allocate(units::Bytes(16));
    ASSERT_EQ(b, a);
    const std::byte* reused = pool.data(b);
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(reused[i], std::byte{0}) << "reused block byte " << i;
    }

    const BlockId c = pool.allocate(units::Bytes(24));
    EXPECT_EQ(pool.bytes_in_use(), units::Bytes(40));
    pool.release(c);  // Never had storage.
    const BlockId d = pool.allocate(units::Bytes(24));
    ASSERT_EQ(d, c);
    EXPECT_EQ(pool.block_bytes(d), units::Bytes(24));
    const std::byte* first = pool.data(d);
    for (std::size_t i = 0; i < 24; ++i) {
        EXPECT_EQ(first[i], std::byte{0}) << "storage-less byte " << i;
    }
    EXPECT_EQ(pool.check_invariants(), "");
}

TEST(BlockPool, RefcountsFreeTheBlockExactlyOnce)
{
    BlockPool pool{units::Tokens(8)};
    const BlockId a = pool.allocate(units::Bytes(64));
    EXPECT_EQ(pool.ref_count(a), 1u);
    EXPECT_EQ(pool.shared_blocks(), units::Blocks(0));

    pool.retain(a);
    pool.retain(a);
    EXPECT_EQ(pool.ref_count(a), 3u);
    EXPECT_EQ(pool.shared_blocks(), units::Blocks(1));
    // Shared or not, the physical bytes are counted exactly once.
    EXPECT_EQ(pool.bytes_in_use(), units::Bytes(64));
    EXPECT_EQ(pool.blocks_in_use(), units::Blocks(1));

    // Two of the three holders release: storage survives and the
    // accounting never moves.
    pool.release(a);
    pool.release(a);
    EXPECT_EQ(pool.ref_count(a), 1u);
    EXPECT_EQ(pool.shared_blocks(), units::Blocks(0));
    EXPECT_EQ(pool.bytes_in_use(), units::Bytes(64));
    // The block's data pointer stays valid until the last release.
    EXPECT_NE(pool.data(a), nullptr);

    pool.release(a);  // Last holder: now the slot frees.
    EXPECT_EQ(pool.bytes_in_use(), units::Bytes(0));
    EXPECT_EQ(pool.blocks_in_use(), units::Blocks(0));
    // And the slot is reusable for same-size allocations again.
    EXPECT_EQ(pool.allocate(units::Bytes(64)), a);
    EXPECT_EQ(pool.ref_count(a), 1u);
}

TEST(BlockPool, UnboundedPoolNeverRefuses)
{
    BlockPool pool;
    EXPECT_EQ(pool.block_tokens(), BlockPool::kDefaultBlockTokens);
    // Blocks far past any KV budget a scheduler would set are still
    // handed out; they get no storage until their first data() call.
    const BlockId a = pool.allocate(units::Bytes(std::size_t{1} << 40));
    const BlockId b = pool.allocate(units::Bytes(std::size_t{1} << 40));
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.bytes_in_use(), units::Bytes(std::size_t{1} << 41));
    pool.release(a);
    pool.release(b);
    EXPECT_EQ(pool.bytes_in_use(), units::Bytes(0));
    EXPECT_EQ(pool.peak_bytes_in_use(), units::Bytes(std::size_t{1} << 41));
    EXPECT_EQ(pool.check_invariants(), "");
}

}  // namespace
}  // namespace quant
}  // namespace mugi
