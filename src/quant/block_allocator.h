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
 * This is that pool for the modeled SRAM/HBM budget: every KvCache of
 * a serving engine draws its blocks from it -- functional sessions
 * one cache per layer, analytic (workload-model-only) sessions one
 * all-layer cache that is only ever extended, never written -- so
 * `bytes_in_use()` is the exact device footprint either way: packed
 * INT4 nibbles + BF16 scales for KVQ blocks, raw floats for the
 * baseline precision.  A block gets its storage on its first data()
 * call, so blocks that are only accounted cost no host memory.
 *
 * Quantities are unit-typed (support/units.h): capacities and
 * footprints are units::Bytes, block geometry is units::Tokens,
 * block counts are units::Blocks and handles are the opaque
 * units::BlockId -- so a caller cannot pass a token count where the
 * byte budget goes (the PR 4 watermark bug class) without a compile
 * error.  Internals unwrap with .value() at the arithmetic leaves.
 *
 * Capacity is *advisory*: `allocate` always succeeds (a scheduler
 * that admitted an oversized request alone must still be able to run
 * it), while `try_allocate`/`fits` enforce the budget.  Policy --
 * admission watermarks, preemption under pressure -- lives in
 * serve::Scheduler; the pool is accounting plus storage.  Released
 * blocks go on per-size free lists and are reused (most recently
 * freed first) before fresh slots are created; a block's storage
 * reads as all zeros on its first data() call after allocation, a
 * contract the INT4 KV append path (which ORs nibbles into block
 * bytes) depends on.
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
 * capability-checked: every mutable field is MUGI_GUARDED_BY(mutex_)
 * and the _locked helpers MUGI_REQUIRES(mutex_), so a Clang build
 * with -DMUGI_THREAD_SAFETY_ANALYSIS=ON proves no unlocked access
 * compiles (tests/concurrency/block_pool_stress_test.cc exercises
 * the same contract under TSan).
 */

#include <cstddef>
#include <cstdint>
#include <limits>
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

/** Returned by try_allocate when the block would exceed capacity. */
inline constexpr BlockId kInvalidBlock =
    BlockId(std::numeric_limits<BlockId::Rep>::max());

/** A shared pool of fixed-token-count KV blocks. */
class BlockPool {
  public:
    /** Positions per block when callers don't choose one. */
    static constexpr units::Tokens kDefaultBlockTokens{16};

    /**
     * @param capacity_bytes Advisory budget; 0 = unbounded.
     * @param block_tokens KV positions each block covers.  Byte sizes
     *        still vary per (geometry, precision); the pool keys its
     *        free lists by block byte size.
     */
    explicit BlockPool(units::Bytes capacity_bytes = units::Bytes(0),
                       units::Tokens block_tokens = kDefaultBlockTokens);

    BlockPool(const BlockPool&) = delete;
    BlockPool& operator=(const BlockPool&) = delete;

    units::Tokens block_tokens() const { return block_tokens_; }
    units::Bytes capacity_bytes() const { return capacity_bytes_; }

    /** Bytes of the live blocks, with or without storage yet. */
    units::Bytes bytes_in_use() const;
    /** Largest bytes_in_use ever observed. */
    units::Bytes peak_bytes_in_use() const;
    /** Blocks currently allocated. */
    units::Blocks blocks_in_use() const;
    /** Live blocks currently referenced by more than one holder. */
    units::Blocks shared_blocks() const;

    /** Would @p bytes more stay within capacity?  Unbounded: yes. */
    [[nodiscard]] bool fits(units::Bytes bytes) const;
    /** bytes_in_use / capacity (0 when unbounded). */
    double utilization() const;
    /** peak_bytes_in_use / capacity (0 when unbounded). */
    double peak_utilization() const;

    /**
     * Allocate a block of @p bytes; its storage is zeroed on the
     * first data() call.  Always succeeds -- capacity may be
     * overcommitted; callers wanting enforcement use try_allocate or
     * check fits() first.  Discarding the id leaks the block until
     * pool destruction, hence [[nodiscard]].
     */
    [[nodiscard]] BlockId allocate(units::Bytes bytes);

    /** allocate(), or kInvalidBlock when it would exceed capacity. */
    [[nodiscard]] BlockId try_allocate(units::Bytes bytes);

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

    bool fits_locked(std::size_t bytes) const MUGI_REQUIRES(mutex_);
    BlockId allocate_locked(std::size_t bytes) MUGI_REQUIRES(mutex_);

    const units::Bytes capacity_bytes_;
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
