#ifndef MUGI_SERVE_SESSION_H_
#define MUGI_SERVE_SESSION_H_

/**
 * @file
 * Per-request serving state.
 *
 * An Engine (serve/engine.h) is immutable and shared; everything that
 * changes while a request is being served lives here: the (optionally
 * KVQ-quantized, Sec. 2.3.3) KV caches, the decode position, and the
 * per-layer nonlinear window tuning of Fig. 7 -- each request may
 * deploy its own VLP kernels without affecting its neighbours in the
 * batch.  A session starts on its engine's default kernels, so it
 * must not outlive the engine that created it.
 *
 * A functional session holds one KV cache per layer.  An analytic
 * (workload-model-only) session holds one cache whose heads are all
 * layers' KV heads: nothing ever reads it, so one block per
 * all-layer block group accounts the same bytes as per-layer caches
 * would, with one pool operation where they need one per layer.
 * Either way the blocks are real, refcounted pool blocks, so prefix
 * sharing, preemption and the scheduler's audit treat both kinds
 * alike.
 *
 * Thread-safety: externally serialized -- a session is not
 * individually thread-safe (one request = one stream of steps), but
 * distinct sessions never share mutable state (shared KV blocks are
 * copy-on-write), so disjoint session sets may be stepped
 * concurrently through the same engine
 * (tests/concurrency/engine_step_stress_test.cc exercises exactly
 * this under TSan).
 */

#include <cstddef>
#include <vector>

#include "model/transformer.h"
#include "quant/kv_cache.h"

namespace mugi {
namespace serve {

class Engine;

/** Per-request knobs fixed at admission time. */
struct SessionOptions {
    /** KV-cache storage precision (KVQ INT4 by default, Sec. 2.3.3). */
    quant::KvPrecision kv_precision = quant::KvPrecision::kInt4;
    /**
     * Pre-existing context length for analytic (workload-model-only)
     * serving, accounted in the session's cache from creation; must
     * be 0 when the engine hosts a functional model, whose context is
     * built by prefilling real tokens.
     */
    units::Tokens initial_context{0};
    /**
     * Shared block pool the session's KV caches draw from (must
     * outlive the session) -- serve::Scheduler points every admitted
     * request at its pool so admission, preemption and the caches all
     * account the same bytes.  nullptr: each cache uses a private
     * unbounded pool.
     */
    quant::BlockPool* kv_pool = nullptr;
};

/** One request's mutable state; created by Engine::create_session. */
class Session {
  public:
    Session(Session&&) = default;
    Session& operator=(Session&&) = default;

    /** Tokens resident in the KV cache (the current context length). */
    units::Positions position() const
    {
        return units::Positions(position_);
    }

    quant::KvPrecision kv_precision() const { return kv_precision_; }

    /**
     * Exact KV block footprint across layers (KvCache::memory_bytes
     * semantics), in bytes -- for analytic sessions too, whose one
     * all-layer cache holds the same blocks' bytes.
     */
    units::Bytes kv_bytes() const;

    /**
     * Prefix caching: map the first @p positions of @p donor's KV
     * blocks into this freshly-created session's caches under pool
     * refcounts (quant::KvCache::share_prefix_from) and advance the
     * position to match, so chunked prefill resumes after the shared
     * prefix.  Requires an untouched session (position 0), a donor
     * from the same engine whose caches share this session's pool,
     * identical KV precision, and donor position >= @p positions.
     * Growth by either session copy-on-writes shared blocks, so both
     * keep byte-identical reads; serve::Scheduler calls this when its
     * prefix scan maps a new prompt onto resident blocks.
     */
    void adopt_kv_prefix(const Session& donor,
                         units::Positions positions);

    /** Layer @p layer's KV cache (functional sessions). */
    const quant::KvCache&
    kv_cache(std::size_t layer) const
    {
        return caches_[layer];
    }

    /** KV blocks (summed over layers) shared with another session. */
    units::Blocks shared_kv_blocks() const;

    /**
     * KV blocks this session's caches hold across layers -- each
     * cache's table entries, shared or not.  The scheduler's
     * invariant auditor compares the sum over resident sessions
     * against the pool's per-block refcount total.
     */
    units::Blocks kv_block_count() const;

    /**
     * Run every layer on @p hooks.  The approximators referenced by
     * @p hooks must outlive the session; the engine's default_hooks()
     * live as long as the engine.
     */
    void set_hooks(const model::NonlinearHooks& hooks);

    /** Run layer @p layer on @p hooks (Fig. 7 per-layer tuning). */
    void set_layer_hooks(std::size_t layer,
                         const model::NonlinearHooks& hooks);

    /** Hooks layer @p layer runs. */
    const model::NonlinearHooks& hooks_for(std::size_t layer) const
    {
        return hooks_[layer];
    }

  private:
    friend class Engine;

    Session(quant::KvPrecision kv_precision,
            std::size_t initial_context, std::size_t num_layers);

    quant::KvPrecision kv_precision_ = quant::KvPrecision::kInt4;
    std::size_t position_ = 0;

    /**
     * Per-layer KV caches (functional), or the one all-layer cache
     * an analytic session extends without writing.
     */
    std::vector<quant::KvCache> caches_;

    std::vector<model::NonlinearHooks> hooks_;  ///< One per layer.
};

}  // namespace serve
}  // namespace mugi

#endif  // MUGI_SERVE_SESSION_H_
