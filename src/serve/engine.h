#ifndef MUGI_SERVE_ENGINE_H_
#define MUGI_SERVE_ENGINE_H_

/**
 * @file
 * The serving-oriented Mugi API.
 *
 * The Engine is the immutable half of the request/engine split
 * production LLM servers use: it owns the accelerator design
 * (sim/design.h), one node-default VLP kernel per nonlinear op
 * (the LUT of Sec. 3.1 is static per-node state, so one kernel per
 * op serves every request), and optionally a functional transformer
 * whose weights are fixed at load time.  Everything mutable belongs
 * to a Session (serve/session.h), and what a caller sizes belongs to
 * the caller: a pooled step runs on the support::ThreadPool the
 * caller passes in.  A WOQ GEMM is serve::run_prepared_gemm on a
 * PreparedWeights handle the caller quantized once
 * (serve/prepared_weights.h).
 *
 * Engine::step is the continuous-batching primitive: one call takes
 * a batch of heterogeneous sessions (different context lengths, KV
 * precisions, per-layer window tunings), builds a single mixed
 * Workload, runs the performance model once (StepResult::perf, the
 * step's one modeled charge), and -- when a functional model is
 * loaded -- runs every decode token and prefill-chunk token as one
 * row of a single ragged forward pass
 * (TransformerModel::decode_layer_batch), which reproduces
 * single-request, token-by-token numerics bit-for-bit.  Without one,
 * each session's all-layer KV cache grows by block bookkeeping alone
 * (quant::KvCache::extend), so analytic serving accounts KV in the
 * same pool blocks functional serving writes.  The area, carbon and
 * event-sim models run only on request, through evaluate(); the
 * other simulator models are sim:: functions of design().
 *
 * Thread-safety: every member function is const and safe to call
 * concurrently, provided no Session appears in two concurrent step()
 * batches (sessions are single-request streams).  The engine has no
 * mutable state: its kernels are built in the constructor and are
 * deeply immutable (vlp/vlp_approximator.h).  Concurrent steps may
 * share one worker pool, which is internally synchronized
 * (support/thread_pool.h).
 * tests/concurrency/engine_step_stress_test.cc drives N threads of
 * step() over disjoint sessions through one engine under TSan.
 */

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "carbon/carbon_model.h"
#include "model/transformer.h"
#include "model/workload.h"
#include "serve/session.h"
#include "sim/event_sim.h"
#include "sim/performance_model.h"
#include "support/thread_pool.h"
#include "vlp/vlp_approximator.h"

namespace mugi {
namespace serve {

/** Combined evaluation of one workload on a design (evaluate()). */
struct SystemReport {
    sim::PerfReport perf;
    sim::AreaBreakdown area;
    carbon::CarbonReport carbon;
    sim::EventSimResult event_sim;
};

/**
 * The per-op default VLP configuration a Mugi node deploys: the
 * profiled softmax exponent band [-3, 4] for exp and the
 * zero-clustered [-6, 1] band for SiLU/GELU (Fig. 4), with one
 * mapping per @p mapping_rows inputs (one array load, Sec. 3.3).
 */
vlp::VlpConfig default_vlp_config(nonlinear::NonlinearOp op,
                                  std::size_t mapping_rows);

/** What one batched Engine::step produced. */
struct StepResult {
    struct SessionOutput {
        /** Context length after the step. */
        units::Positions position{0};
        /** Next-token logits (empty for analytic-only engines). */
        std::vector<float> logits;
        /** Greedy next token (-1 for analytic-only engines). */
        int next_token = -1;
    };
    /** One entry per stepped session, in batch order. */
    std::vector<SessionOutput> outputs;
    /**
     * One entry per StepPlan prefill chunk, in plan order.  logits /
     * next_token are those after the chunk's last token, so a chunk
     * that completes a prompt already carries the request's first
     * generated token.
     */
    std::vector<SessionOutput> prefill_outputs;
    /** Performance model of the whole batched step's workload. */
    sim::PerfReport perf;

    /** Worker-pool utilization of one pooled step. */
    struct WorkerStats {
        /** Worker threads the step ran on (0 = serial step). */
        std::size_t threads = 0;
        /** Pool tasks the step executed. */
        std::uint64_t tasks = 0;
        /**
         * Fraction of the workers' capacity (threads x wall time of
         * the step) spent executing tasks; the remainder is
         * idle_fraction -- joins at stage barriers, queue waits, and
         * the step's serial stages.  Approximate when concurrent
         * steps share the pool.
         */
        double busy_fraction = 0.0;
        double idle_fraction = 0.0;
    };
    /** Zeroed unless the step ran on a worker pool. */
    WorkerStats workers;
};

/**
 * One continuous-batching iteration's worth of work: decode steps
 * and chunked-prefill chunks that share a single mixed workload
 * evaluation (one WOQ weight stream for everything -- see
 * model::build_mixed_step_workload).  This is what serve::Scheduler
 * hands Engine::step each iteration.
 */
struct StepPlan {
    /** Sessions taking one decode step. */
    std::vector<Session*> decode_sessions;
    /**
     * Token each decode session consumes; empty for analytic-only
     * stepping, otherwise one per decode session.
     */
    std::vector<int> decode_tokens;

    struct PrefillEntry {
        Session* session = nullptr;
        /** Prompt chunk to feed (functional engines). */
        std::span<const int> tokens;
        /** Chunk length for analytic engines (tokens empty). */
        units::Tokens analytic_tokens{0};

        units::Tokens
        size() const
        {
            return tokens.empty() ? analytic_tokens
                                  : units::Tokens(tokens.size());
        }
    };
    /** Prefill chunks interleaved into this step. */
    std::vector<PrefillEntry> prefills;

    bool
    empty() const
    {
        return decode_sessions.empty() && prefills.empty();
    }
};

/** An immutable, shareable Mugi serving engine. */
class Engine {
  public:
    /** Kernels + workload evaluation only (no sessions). */
    explicit Engine(const sim::DesignConfig& design);

    /** + analytic sessions serving @p model-shaped requests. */
    Engine(const sim::DesignConfig& design,
           const model::ModelConfig& model);

    /** + functional sessions decoding through @p model's weights. */
    Engine(const sim::DesignConfig& design,
           std::shared_ptr<const model::TransformerModel> model);

    /** Paper-default Mugi node: H=256, window 8, coverage policy. */
    static std::unique_ptr<Engine> default_mugi();

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    const sim::DesignConfig& design() const { return design_; }
    bool has_model() const { return model_ != nullptr; }
    /** Set iff constructed with a model config or functional model. */
    const std::optional<model::ModelConfig>&
    model_config() const
    {
        return model_config_;
    }

    // ---- Request lifecycle. ----

    /**
     * Admit a new request.  Sessions start on default_hooks() and may
     * retune per layer; a session must not outlive its engine.
     */
    Session create_session(const SessionOptions& options = {}) const;

    /**
     * Run one decode step over a batch of sessions.  @p tokens[i] is
     * the token session i consumes; pass an empty span for
     * analytic-only stepping (positions still advance).  Sessions
     * may have arbitrary, heterogeneous context lengths.
     */
    StepResult step(std::span<Session* const> sessions,
                    std::span<const int> tokens = {}) const;

    /** Single-session convenience wrapper over the batched step. */
    StepResult step(Session& session, int token) const;

    /**
     * One mixed serving iteration: every decode step and prefill
     * chunk in @p plan shares a single build_mixed_step_workload
     * evaluation, and a functional engine runs them all as one ragged
     * forward pass, rows in plan order (decode entries, then each
     * chunk's tokens), bit-identical to feeding the tokens one at a
     * time.  A session may appear more than once; its rows take
     * consecutive positions in that order, so occurrences behave as
     * that many sequential steps (positions and modeled contexts
     * advance per occurrence).
     *
     * With a @p pool, each layer's stages of the forward pass split
     * into row-range and (cache, kv head) tasks on it, joining at the
     * layer's stage barriers; every task writes disjoint outputs with
     * the identical float-op sequence, so results are bit-identical
     * to a serial step (pinned by
     * tests/concurrency/pooled_step_test.cc).  Analytic engines
     * ignore the pool.
     */
    StepResult step(const StepPlan& plan,
                    support::ThreadPool* pool = nullptr) const;

    /**
     * Feed a prompt through a functional session without per-step
     * reports; returns the logits after the last prompt token.
     */
    std::vector<float> prefill(Session& session,
                               std::span<const int> prompt) const;

    /**
     * Chunk-bounded prefill entry point (functional engines): feed
     * one chunk of a prompt as rows of one forward pass and return
     * the logits after its last token.  Feeding a prompt chunk by
     * chunk is bit-identical to one prefill() call, and to feeding it
     * token by token -- the invariant that lets serve::Scheduler
     * interleave prefill chunks with decode batches.
     */
    std::vector<float> prefill_chunk(Session& session,
                                     std::span<const int> tokens) const;

    // ---- Workload evaluation. ----

    /** Performance, area, carbon and event-sim of @p workload. */
    SystemReport evaluate(const model::Workload& workload) const;

    // ---- Functional kernels. ----

    /** Functional VLP softmax over @p logits (one row). */
    std::vector<float> run_softmax(std::span<const float> logits) const;

    /** Functional VLP activation (SiLU or GELU) over @p values. */
    std::vector<float> run_activation(nonlinear::NonlinearOp op,
                                      std::span<const float> values)
        const;

    /**
     * The engine-default nonlinear kernels (VLP softmax-exp plus the
     * model's FFN activation, SiLU without a model).  Pointers remain
     * valid for the engine's lifetime.
     */
    model::NonlinearHooks default_hooks() const;

  private:
    /**
     * The functional forward pass of @p plan: one row per decode
     * entry, then one per prefill-chunk token, run through every
     * layer as ragged rows in blocks of up to 32 (appending to the
     * sessions' KV caches), then the final norm and LM head on the
     * consumed rows only.  Returns their logits, [decode entries +
     * chunks, vocab], in plan order.  Positions are the caller's to
     * advance.
     */
    support::MatrixF forward_rows(const StepPlan& plan,
                                  support::ThreadPool* pool) const;

    /** The kernel of default_vlp_config(op, design().array_rows). */
    const vlp::VlpApproximator&
    kernel(nonlinear::NonlinearOp op) const
    {
        return kernels_[static_cast<std::size_t>(op)];
    }

    sim::DesignConfig design_;
    std::optional<model::ModelConfig> model_config_;
    std::shared_ptr<const model::TransformerModel> model_;
    /** One per nonlinear::NonlinearOp, indexed by its value. */
    std::array<vlp::VlpApproximator, 3> kernels_;
};

}  // namespace serve
}  // namespace mugi

#endif  // MUGI_SERVE_ENGINE_H_
