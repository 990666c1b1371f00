#ifndef MUGI_QUANT_BLOCK_ALLOCATOR_H_
#define MUGI_QUANT_BLOCK_ALLOCATOR_H_

/**
 * @file
 * Fixed-size block pool backing the paged KV cache.
 *
 * Production serving stacks (vLLM / ScaleLLM block managers) replaced
 * per-request contiguous KV storage with fixed-size blocks drawn from
 * one shared pool, so admission can reserve at block granularity
 * instead of projecting every request to its full generation length.
 * This is that pool for the modeled SRAM/HBM footprint: every KvCache
 * of a serving engine draws its blocks from it -- functional sessions
 * one cache per layer, analytic (workload-model-only) sessions one
 * all-layer cache that is only ever extended, never written -- so
 * `bytes_in_use()` is the exact device footprint either way: packed
 * INT4 nibbles + BF16 scales for KVQ blocks, raw floats for the
 * baseline precision.  A block gets its storage on its first data()
 * call, so blocks that are only accounted cost no host memory.
 *
 * Quantities are unit-typed (support/units.h): footprints are
 * units::Bytes, block geometry is units::Tokens, block counts are
 * units::Blocks and handles are the opaque units::BlockId -- so a
 * caller cannot pass a token count where a byte size goes without a
 * compile error.  Internals unwrap with .value() at the arithmetic
 * leaves.
 *
 * The pool has no capacity, and `allocate` always succeeds.  The KV
 * budget and every rule that spends it -- admission, watermarks,
 * preemption under pressure -- live in serve::Scheduler alone; the
 * pool is accounting plus storage.  Released blocks go on per-size
 * free lists and are reused (most recently freed first) before fresh
 * slots are created; a block's storage reads as all zeros on its
 * first data() call after allocation, a contract the INT4 KV append
 * path (which ORs nibbles into block bytes) depends on.
 *
 * Blocks are *refcounted* for cross-request prefix sharing
 * (quant::KvCache::share_prefix_from): allocate() hands out a block
 * with one reference, retain() adds one per additional sharer, and
 * release() only frees the slot when the last reference drops.  A
 * shared block's bytes are physical and therefore counted exactly
 * once in bytes_in_use() no matter how many caches reference it.
 *
 * Thread-safety: internally synchronized -- all member functions are
 * locked on one support::Mutex, matching serve::Engine's
 * concurrent-const contract.  The lock discipline is
 * capability-checked: every mutable field is MUGI_GUARDED_BY(mutex_),
 * so a Clang build with -DMUGI_THREAD_SAFETY_ANALYSIS=ON proves no
 * unlocked access compiles
 * (tests/concurrency/block_pool_stress_test.cc exercises the same
 * contract under TSan).
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/mutex.h"
#include "support/thread_annotations.h"
#include "support/units.h"

namespace mugi {
namespace quant {

/** Handle to one pool block (index into the pool's slot table). */
using BlockId = units::BlockId;

/** A shared pool of fixed-token-count KV blocks. */
class BlockPool {
  public:
    /** Positions per block when callers don't choose one. */
    static constexpr units::Tokens kDefaultBlockTokens{16};

    /**
     * @param block_tokens KV positions each block covers.  Byte sizes
     *        still vary per (geometry, precision); the pool keys its
     *        free lists by block byte size.
     */
    explicit BlockPool(units::Tokens block_tokens = kDefaultBlockTokens);

    BlockPool(const BlockPool&) = delete;
    BlockPool& operator=(const BlockPool&) = delete;

    units::Tokens block_tokens() const { return block_tokens_; }

    /** Bytes of the live blocks, with or without storage yet. */
    units::Bytes bytes_in_use() const;
    /** Largest bytes_in_use ever observed. */
    units::Bytes peak_bytes_in_use() const;
    /** Blocks currently allocated. */
    units::Blocks blocks_in_use() const;
    /** Live blocks currently referenced by more than one holder. */
    units::Blocks shared_blocks() const;

    /**
     * Allocate a block of @p bytes; its storage is zeroed on the
     * first data() call.  Always succeeds: whether the bytes fit a
     * budget is the scheduler's decision, made before it asks.
     * Discarding the id leaks the block until pool destruction,
     * hence [[nodiscard]].
     */
    [[nodiscard]] BlockId allocate(units::Bytes bytes);

    /**
     * Add one reference to a live block -- prefix sharing: a second
     * cache mapping the block into its table retains it so neither
     * owner's release frees the storage under the other.
     */
    void retain(BlockId id);

    /** References currently held on a live block (>= 1). */
    std::size_t ref_count(BlockId id) const;

    /**
     * Drop one reference; the slot is freed (and reused for same-size
     * allocates) only when the last reference drops.
     */
    void release(BlockId id);

    /**
     * Backing storage of a live block, created (all zeros) on the
     * first call; it never moves while the block is live.
     */
    std::byte* data(BlockId id);
    units::Bytes block_bytes(BlockId id) const;

    /** Sum of refs over every live block (one per referencing cache). */
    std::size_t ref_total() const;

    // ---- Invariant auditing (support/audit.h). ----

    /**
     * Recompute the pool's accounting from scratch -- live-slot bytes
     * vs block_bytes_in_use, live-slot count vs blocks_in_use,
     * refs >= 2 count vs shared_blocks, free-list entries exactly
     * covering the non-live slots with matching byte-size keys and no
     * duplicates, peak >= current -- and return a description of the
     * first violation found.  Empty string: consistent.  Available in
     * every build type (error-return form of the auditor).
     */
    [[nodiscard]] std::string check_invariants() const;

    /** audit_failure() iff check_invariants() reports a violation. */
    void audit(const char* where) const;

    /**
     * Test-only hook: overwrite a live block's refcount *without*
     * touching the shared/accounting counters, manufacturing exactly
     * the drift check_invariants() exists to catch
     * (tests/concurrency/invariant_auditor_test.cc).  Never call
     * outside tests.
     */
    void corrupt_refs_for_test(BlockId id, std::uint32_t refs);

  private:
    struct Slot {
        /** Empty until the first data() call, then `bytes` long. */
        std::vector<std::byte> storage;
        std::size_t bytes = 0;
        bool in_use = false;
        /** References held on the block; meaningful while in_use. */
        std::uint32_t refs = 0;
    };

    const units::Tokens block_tokens_;

    mutable support::Mutex mutex_;
    std::vector<Slot> slots_ MUGI_GUARDED_BY(mutex_);
    /** Released slot ids per block byte size, most recent last. */
    std::unordered_map<std::size_t, std::vector<BlockId>> free_lists_
        MUGI_GUARDED_BY(mutex_);
    std::size_t block_bytes_in_use_ MUGI_GUARDED_BY(mutex_) = 0;
    std::size_t blocks_in_use_ MUGI_GUARDED_BY(mutex_) = 0;
    std::size_t shared_blocks_ MUGI_GUARDED_BY(mutex_) = 0;
    std::size_t peak_bytes_in_use_ MUGI_GUARDED_BY(mutex_) = 0;
};

}  // namespace quant
}  // namespace mugi

#endif  // MUGI_QUANT_BLOCK_ALLOCATOR_H_
