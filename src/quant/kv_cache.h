#ifndef MUGI_QUANT_KV_CACHE_H_
#define MUGI_QUANT_KV_CACHE_H_

/**
 * @file
 * Paged KV cache with optional INT4 quantization (KVQ, Sec. 2.3.3).
 *
 * The cache stores one K and one V vector per (kv-head, position).
 * With KVQ enabled, vectors are quantized per token with one BF16
 * scale per vector -- the per-token granularity KVQuant-style schemes
 * use -- cutting the cache footprint ~4x while staying within a
 * bounded error.  Dequantized reads feed the attention GEMMs; the INT4
 * codes are exactly what Mugi's weight rows consume (Sec. 4.2).
 *
 * Storage is *paged*: positions live in fixed-token-count blocks drawn
 * on demand from a quant::BlockPool (block_allocator.h) and released
 * when the cache is destroyed or release_blocks()-ed, so a serving
 * scheduler can reserve, account and reclaim KV memory at block
 * granularity instead of projecting each request to its full
 * generation length.  extend() grows a cache by block bookkeeping
 * alone -- the same blocks, refcounts and copy-on-write as append(),
 * with nothing written -- which is how an analytic serving session
 * accounts the KV footprint of a model it never runs.  Blocks hold
 * the exact device layout -- packed INT4 nibbles + raw BF16 scale
 * bits for kInt4, raw floats for kFloat -- so block accounting equals
 * physical bytes, and reads are byte-identical to the former
 * contiguous storage (the INT4 sign-magnitude nibble and the BF16 bit
 * pattern both round-trip losslessly).  Callers that don't pass a
 * pool get a private unbounded one; either way the read/append API is
 * unchanged.
 *
 * Blocks can be *shared* across caches drawing from the same pool
 * (prefix caching): share_prefix_from() maps another cache's leading
 * blocks into this one's table under a pool refcount, so two requests
 * with a common prompt prefix read the same physical bytes.  Appends
 * are copy-on-write: writing into a block referenced by another cache
 * first clones the writer's live prefix of that block into a fresh
 * zeroed block, so a sharer's reads are byte-identical forever no
 * matter what its neighbours append.
 *
 * Quantities are unit-typed (support/units.h): cache lengths and read
 * indices are units::Positions, footprints units::Bytes, block
 * geometry units::Tokens/units::Blocks -- so position indices cannot
 * leak into byte accounting without a named conversion.  Internals
 * unwrap at the arithmetic leaves.
 *
 * Thread-safety: externally serialized -- one cache belongs to one
 * session's stream of appends/reads at a time.  The BlockPool it
 * draws from is internally synchronized, and blocks shared across
 * caches are never written in place (copy-on-write), so *distinct*
 * caches -- even ones sharing prefix blocks -- may be used from
 * different threads concurrently; cached block-storage pointers stay
 * valid because a live block's storage never moves.
 */

#include <cstddef>
#include <memory>
#include <vector>

#include "numerics/int4.h"
#include "quant/block_allocator.h"
#include "support/matrix.h"

namespace mugi {
namespace quant {

/** Storage precision of the cache. */
enum class KvPrecision {
    kFloat,  ///< Float storage (baseline).
    kInt4,   ///< KVQ: INT4 codes + per-vector BF16 scale.
};

/** A growable per-head key/value cache over pooled blocks. */
class KvCache {
  public:
    /**
     * @param num_heads Number of KV heads (GQA: may be fewer than the
     *        number of query heads).
     * @param head_dim Dimension of each K/V vector.
     * @param precision Storage precision.
     * @param pool Shared block pool; must outlive the cache.  nullptr
     *        allocates a private unbounded pool.
     */
    KvCache(std::size_t num_heads, std::size_t head_dim,
            KvPrecision precision, BlockPool* pool = nullptr);

    /**
     * The source is left drained *and inert*: length 0, no blocks,
     * and no pool -- its owned pool (if any) moved with the blocks,
     * so the moved-from object must not silently allocate from
     * storage it no longer owns.  Using append() or
     * share_prefix_from() on a moved-from cache asserts; destroying
     * it is safe.
     */
    KvCache(KvCache&&) noexcept;
    /** Releases the target's blocks before adopting the source's. */
    KvCache& operator=(KvCache&&) noexcept;
    KvCache(const KvCache&) = delete;
    KvCache& operator=(const KvCache&) = delete;

    ~KvCache();

    /** Append one position: K and V vectors for every head. */
    void append(const support::MatrixF& k_heads,
                const support::MatrixF& v_heads);

    /**
     * Grow by @p positions without writing them: append()'s block
     * bookkeeping (a fresh block at each boundary, a private copy of
     * a shared tail block first) and nothing else, so memory_bytes()
     * and the pool account exactly what appending would.  The new
     * positions have no contents: a cache grown this way is for
     * accounting only and must not be read or appended to.
     */
    void extend(units::Positions positions);

    /** Number of cached positions. */
    units::Positions length() const
    {
        return units::Positions(length_);
    }
    std::size_t num_heads() const { return num_heads_; }
    std::size_t head_dim() const { return head_dim_; }
    KvPrecision precision() const { return precision_; }

    /** Dequantized K vector of (head, position) into @p out. */
    void read_key(std::size_t head, units::Positions pos,
                  float* out) const;
    /** Dequantized V vector of (head, position) into @p out. */
    void read_value(std::size_t head, units::Positions pos,
                    float* out) const;

    /**
     * Batched gather: dequantize K vectors of @p head for every
     * position in [@p begin, @p end) into @p out, laid out as
     * [end - begin, head_dim] row-major.  Walks the block table once
     * per block instead of once per position, so attention can decode
     * a whole resident sequence into contiguous scratch in one call.
     * Bit-identical to end-begin read_key() calls (same per-vector
     * decode arithmetic, pinned by tests/quant/kv_cache_test).
     */
    void read_keys(std::size_t head, units::Positions begin,
                   units::Positions end, float* out) const;
    /** Batched gather of V vectors; see read_keys(). */
    void read_values(std::size_t head, units::Positions begin,
                     units::Positions end, float* out) const;

    /** Raw INT4 key codes (valid only with kInt4 precision). */
    numerics::Int4 key_code(std::size_t head, units::Positions pos,
                            std::size_t d) const;
    /** Per-vector key scale (valid only with kInt4 precision). */
    float key_scale(std::size_t head, units::Positions pos) const;

    /**
     * Exact device footprint in bytes of the blocks currently
     * allocated: packed INT4 nibbles + one BF16 scale per vector
     * (kInt4) or full float storage (kFloat), rounded up to whole
     * blocks -- a serving scheduler's KV budget accounts exactly
     * this quantity.
     */
    units::Bytes memory_bytes() const
    {
        return units::Bytes(table_.size() * block_bytes_);
    }

    /** Exact K+V bytes one cached position costs at @p precision. */
    static units::Bytes bytes_per_position(std::size_t num_heads,
                                           std::size_t head_dim,
                                           KvPrecision precision);

    /** Positions each block of this cache covers. */
    units::Tokens block_tokens() const
    {
        return units::Tokens(block_tokens_);
    }
    /** Blocks currently allocated from the pool. */
    units::Blocks blocks_in_use() const
    {
        return units::Blocks(table_.size());
    }
    /** Bytes of one of this cache's blocks. */
    units::Bytes block_bytes() const
    {
        return units::Bytes(block_bytes_);
    }

    /**
     * Map the first @p positions of @p src into this (empty) cache
     * under pool refcounts -- the prefix-caching primitive.  Both
     * caches must draw from the same pool and have identical
     * geometry and precision; @p positions must not exceed
     * src.length().  Shared blocks are read-only in effect: an append
     * that would write into one (by either cache) copy-on-writes it
     * first, so reads of the shared prefix stay byte-identical in
     * both caches for both precisions.  A non-block-aligned
     * @p positions shares the containing (partial) block too; the
     * pool frees a shared block only when the last referencing cache
     * releases it.
     */
    void share_prefix_from(const KvCache& src,
                           units::Positions positions);

    /** Blocks of this cache currently shared with another cache. */
    units::Blocks shared_blocks() const;

    /**
     * Release every block back to the pool and reset to length 0 --
     * the preemption path: an evicted request's KV memory is reclaimed
     * immediately and rebuilt later by recompute-style re-prefill.
     */
    void release_blocks();

  private:
    struct QuantVector {
        std::vector<numerics::Int4> codes;
        float scale = 0.0f;
    };

    QuantVector quantize_vector(const float* data) const;

    /** Dequantize one stored K/V vector at @p src into @p out. */
    void decode_vector(const std::byte* src, float* out) const;
    /** Blockwise gather body shared by read_keys/read_values. */
    void read_range(std::size_t vector_offset, std::size_t begin,
                    std::size_t end, float* out) const;

    /**
     * Copy-on-write of the partial tail block before this cache
     * claims its next position: when another cache references the
     * block, swap in a fresh private one -- holding a copy of this
     * cache's live prefix of it when @p copy_live is set.
     */
    void unshare_tail(bool copy_live);

    /** Writable storage of position @p pos (block-table lookup). */
    std::byte* position_data(std::size_t pos);
    const std::byte* position_data(std::size_t pos) const;
    /** One K or V vector's bytes within a position's storage. */
    std::size_t vector_bytes() const;

    std::size_t num_heads_;
    std::size_t head_dim_;
    KvPrecision precision_;
    std::size_t length_ = 0;

    /** Set iff constructed without a shared pool. */
    std::unique_ptr<BlockPool> owned_pool_;
    BlockPool* pool_ = nullptr;  ///< The pool blocks come from.
    std::vector<BlockId> table_;  ///< Block per block_tokens_ positions.
    /**
     * Cached storage pointer per table_ entry: block storage never
     * moves while the block is live, so reads skip the pool lock.
     * nullptr for blocks added by extend(), which never touch
     * storage.
     */
    std::vector<std::byte*> block_data_;
    std::size_t block_tokens_ = 0;
    std::size_t bytes_per_position_ = 0;
    std::size_t block_bytes_ = 0;
};

}  // namespace quant
}  // namespace mugi

#endif  // MUGI_QUANT_KV_CACHE_H_
