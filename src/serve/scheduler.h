#ifndef MUGI_SERVE_SCHEDULER_H_
#define MUGI_SERVE_SCHEDULER_H_

/**
 * @file
 * The request-lifecycle serving frontend: admission control, chunked
 * prefill, continuous batching and KV-memory management over
 * Engine::step.
 *
 * Callers submit() Requests and step() (or run()) the scheduler; it
 * owns everything in between:
 *
 *  - a quant::BlockPool that every admitted request's caches draw
 *    fixed-size blocks from -- per-layer caches that functional
 *    serving writes, or the one all-layer cache an analytic session
 *    grows by bookkeeping alone -- so the pool's bytes_in_use is the
 *    exact device footprint either way.  The pool only accounts; the
 *    KV budget and every rule that spends it live here, nowhere else;
 *  - an admission queue ordered by submission, gated on each
 *    request's modeled arrival time and on **block-level
 *    reservation**: a request is admitted when the blocks covering
 *    its prompt (plus a watermark of free blocks that keeps decode
 *    headroom) fit beside the blocks committed to resident requests
 *    -- not its full projected generation length, which is what lets
 *    a paged pool admit strictly more concurrent sessions
 *    (bench/kv_paging.cc measures the gap).  Admission is FIFO
 *    (head-of-line blocking, no starvation);
 *  - **preemption**: when decode growth would run the pool dry, the
 *    lowest-priority running request (ties: latest admitted) is
 *    evicted -- its session reset, so its blocks free immediately --
 *    and its record moves back to the queue front for
 *    recompute-style re-prefill through the existing chunked-prefill
 *    path (its prompt plus the tokens it had already generated are
 *    replayed, so its remaining output is bit-identical to an
 *    uncontended run).  A request keeps that one record from submit
 *    to retirement; queue and active set only move it;
 *  - **prefix caching**: admission scans the resident requests for
 *    the one at the new request's KV precision that has already
 *    computed the most whole blocks of its prompt prefix, maps its
 *    session onto those physical blocks under pool refcounts
 *    (copy-on-write protected), charges only the unshared tail
 *    against the budget, and skips the shared blocks' prefill chunks
 *    entirely -- under Mugi's INT4-KVQ layout a hit saves both the
 *    recompute and the quantization pass.  Functional prompts match
 *    on their real tokens; analytic requests declaring a common
 *    Request::prefix_group share blocks and skip the shared chunks
 *    the same way, through the same Session::adopt_kv_prefix.
 *    Preemption interacts through the refcounts: evicting one sharer
 *    never frees a block another sharer still reads;
 *  - chunked prefill: admitted prompts are fed at most
 *    prefill_chunk_tokens per iteration, interleaved with the decode
 *    batch in one Engine::step(StepPlan) whose mixed workload shares
 *    a single WOQ weight stream (vLLM/Sarathi-style chunked prefill);
 *  - continuous batching toward the BatchPolicy target derived from
 *    the Fig. 14 sweep: finished requests leave mid-flight and
 *    queued requests are admitted the same iteration.
 *
 * Chunked-prefill invariant: feeding a prompt chunk by chunk is
 * bit-identical to one Engine::prefill call, and the mixed step's
 * workload MACs equal the sum of the equivalent standalone chunk and
 * decode workloads -- so scheduling (including preemption) changes
 * *when* work happens, never its numerics or totals
 * (tests/serve/scheduler_test.cc).
 *
 * Time is the modeled clock: each iteration advances it by the mixed
 * step's modeled runtime, which is what the TTFT/TPOT/queue numbers
 * in ServerStats are measured in.
 *
 * Admission accounting is *unit-typed* (support/units.h): budgets and
 * reservations are units::Bytes, chunk sizes and prompt lengths
 * units::Tokens, block counts units::Blocks, and every
 * tokens-to-bytes crossing goes through the named conversion helpers
 * (blocks_for / bytes_for) -- the admission-path functions contain no
 * raw .value() unwraps, which tools/mugi_check.py rule R4 enforces.
 *
 * Thread-safety: externally serialized -- the scheduler is a
 * single-threaded control loop (submit/cancel/step/run from one
 * thread at a time).  serve::Server is the push-based front: it owns
 * the one thread that calls these members and feeds it submissions /
 * cancellations through a support::Channel, so callers never touch
 * the scheduler directly; the engine it drives and the block pool and
 * worker pool it owns are the internally-synchronized pieces.
 * Every step ends with an invariant audit under
 * MUGI_AUDIT_INVARIANTS (support/audit.h): check_invariants()
 * recomputes the pool's accounting and the resident block tables
 * from scratch and any drift aborts.
 */

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "quant/block_allocator.h"
#include "serve/batch_policy.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "sim/performance_model.h"
#include "support/thread_pool.h"

namespace mugi {
namespace serve {

/** Scheduler knobs fixed at construction. */
struct SchedulerConfig {
    /**
     * KV-memory budget in bytes shared by all admitted requests; 0 =
     * unbounded.  Admission and preemption enforce it against the
     * pool's exact footprint.  submit() refuses a request whose KV
     * (prompt plus max_new_tokens positions) exceeds the budget, with
     * FinishReason::kOverBudget.  One that fits token by token but
     * not in whole blocks plus the watermark is still admitted when
     * it can run alone -- the pool overcommits for it.
     */
    units::Bytes kv_budget_bytes{0};
    /** Max prompt tokens fed per request per iteration. */
    units::Tokens prefill_chunk_tokens{256};
    /**
     * Concurrent-request target the continuous batch is steered
     * toward; 0 = derive via BatchPolicy from the engine's design
     * and model config.
     */
    std::size_t max_batch = 0;

    /** KV positions per block of the shared pool. */
    units::Tokens kv_block_tokens = quant::BlockPool::kDefaultBlockTokens;
    /**
     * Cross-request KV prefix caching: map a new request's prompt
     * onto blocks a resident request already computed, charge
     * admission only for the unshared tail, and skip the shared
     * blocks' prefill chunks.  Off reverts to recompute-everything
     * admission (the A/B baseline bench/prefix_cache.cc measures
     * against).
     */
    bool prefix_caching = true;

    /**
     * Bounded admission queue: when more than this many *arrived*,
     * never-admitted requests are waiting, the newest of them are
     * retired with FinishReason::kShed instead of letting the queue
     * grow without bound; 0 = unbounded (the pre-overload
     * behaviour).  Checked every scheduling iteration, before
     * admission, on the modeled clock.
     */
    std::size_t max_queued_requests = 0;
    /**
     * Default maximum queue wait (modeled seconds) before a request
     * still awaiting admission is retired with
     * FinishReason::kAdmissionTimeout; 0 = no limit.
     * Request::admission_timeout_s overrides per request.  Distinct
     * from deadlines: this bounds only the arrival -> admission
     * window and never fires once the request is admitted.
     */
    double admission_timeout_s = 0.0;

    /**
     * Workers of the pool the Scheduler builds once, at construction,
     * and passes to every mixed Engine::step to fan its functional
     * work across; 0 = serial, and analytic engines get no pool.
     * Pooled steps are bit-identical to serial ones, so this knob
     * changes wall-clock only -- never tokens, numerics, or the
     * modeled clock.  kAutoThreads resolves at Scheduler
     * construction to hardware_concurrency() - 1 (one core left for
     * the loop thread), clamped to kMaxAutoThreads, and to 0
     * (serial) on a single-core box.
     */
    std::size_t step_threads = 0;

    /** step_threads sentinel: size the pool from the hardware. */
    static constexpr std::size_t kAutoThreads =
        static_cast<std::size_t>(-1);
    /** Upper clamp of the kAutoThreads resolution. */
    static constexpr std::size_t kMaxAutoThreads = 16;
};

/**
 * Resolve a step_threads request: kAutoThreads becomes
 * hardware_concurrency() - 1 clamped to [0, kMaxAutoThreads] (0 --
 * serial -- when the hardware reports <= 1 or unknown); any other
 * value passes through unchanged.
 */
std::size_t resolve_step_threads(std::size_t requested);

/**
 * Parse a --threads flag value: "auto" (case-sensitive) yields
 * SchedulerConfig::kAutoThreads, a whole decimal number up to
 * SchedulerConfig::kMaxAutoThreads itself, anything else nullopt.
 */
std::optional<std::size_t> threads_flag(const char* text);

/** Serving-horizon report: accumulator totals + latency stats. */
struct ServerStats {
    /**
     * sim::PerfAccumulator total over every mixed step: cycles,
     * energy, tokens (prefill + decode) and recomputed rates --
     * energy_per_token_j here is the serving energy-per-token number.
     */
    sim::PerfReport horizon;
    std::size_t steps = 0;
    /** Modeled clock when the snapshot was taken (Scheduler::now_s). */
    double now_s = 0.0;

    std::size_t submitted = 0;
    std::size_t finished = 0;
    std::size_t active = 0;  ///< Currently admitted.
    std::size_t queued = 0;  ///< Waiting for admission.

    /**
     * Decode-step tokens processed; with prefill_tokens this
     * accounts the horizon exactly: horizon.tokens ==
     * prefill_tokens + decode_tokens.  Re-prefill after a preemption
     * counts toward prefill_tokens (recompute is real work).
     */
    units::Tokens decode_tokens{0};
    units::Tokens prefill_tokens{0};  ///< Prompt tokens processed.
    /**
     * Tokens emitted to callers.  One token rides each completed
     * prefill (the chunk's final logits), so generated_tokens
     * exceeds decode_tokens by one per prefill completion -- once
     * per request plus once per re-prefill after a preemption
     * (replayed history itself is never re-emitted).
     */
    units::Tokens generated_tokens{0};

    units::Bytes kv_budget_bytes{0};
    /**
     * Exact block-pool footprint right now.  Zero once every request
     * retired -- the "no leaked blocks" number bench/serve_load
     * --check gates.
     */
    units::Bytes kv_bytes_in_use{0};
    /** Largest exact block-pool footprint observed. */
    units::Bytes peak_kv_bytes{0};
    /** peak_kv_bytes / kv_budget_bytes (0 when unbounded). */
    double peak_pool_utilization = 0.0;
    /** Requests evicted under KV pressure and re-queued. */
    std::size_t preemptions = 0;
    /** Requests retired by cancel / non-draining shutdown. */
    std::size_t cancelled = 0;
    /** Requests retired because their deadline passed. */
    std::size_t expired = 0;
    /**
     * Requests load-shed before admission (bounded-queue policy in
     * the scheduler, plus -- in Server::stats() -- submissions the
     * server itself refused at the command channel).
     */
    std::size_t requests_shed = 0;
    /** Requests whose admission timeout expired while queued. */
    std::size_t admission_timeouts = 0;
    /**
     * Requests cancelled because their client could not keep up with
     * the token stream (HTTP write timeout / vanished connection).
     * Counted by the server front-end; always 0 at scheduler level.
     */
    std::size_t slow_client_cancels = 0;
    /**
     * Fires of the process-wide FaultInjector since it was armed
     * (support/fault.h); 0 when disarmed or compiled out.  Snapshot
     * taken by Server::stats(); always 0 at scheduler level.
     */
    std::size_t faults_injected = 0;
    /** Admissions whose prompt mapped onto resident prefix blocks. */
    std::size_t prefix_hits = 0;
    /**
     * Cumulative all-layer block groups adopted from a resident
     * request at admission (each counted once in the pool no matter
     * how many sharers hold it).
     */
    units::Blocks shared_blocks{0};
    /** Prompt tokens whose prefill was skipped by prefix sharing. */
    units::Tokens saved_prefill_tokens{0};
    std::size_t target_batch = 0;

    /** Steps that ran on the worker pool (step_threads > 0). */
    std::size_t pooled_steps = 0;
    /**
     * Mean per-step worker busy/idle fractions over pooled steps
     * (StepResult::WorkerStats) -- how much of the pool's capacity
     * the step partitioning actually kept fed.  Zero when every step
     * ran serially.
     */
    double mean_worker_busy = 0.0;
    double mean_worker_idle = 0.0;

    // Over finished requests, on the modeled clock.  Every TTFT
    // figure (mean, max, percentiles) comes from one sample list, of
    // the requests that emitted >= 1 token, and every TPOT figure
    // from one list of those that emitted >= 2 -- a max_new_tokens ==
    // 0 request has no first token and a single-token request has no
    // inter-token gap, so neither may dilute the means (they still
    // count toward queue stats and finished).
    double mean_queue_s = 0.0;
    double mean_ttft_s = 0.0;
    double max_ttft_s = 0.0;
    double mean_tpot_s = 0.0;

    // Latency *percentiles* over the same sample lists the means
    // and max are computed from (exact nearest-rank over every
    // finished request, not a reservoir -- serving horizons here are
    // at most tens of thousands of requests).  Tail latency is the
    // serving number that matters: a mean TTFT hides the p99 queue
    // spike an arrival burst causes.  Surfaced in /metrics,
    // examples/serving and bench/serve_load's rate sweep.
    double p50_ttft_s = 0.0;
    double p95_ttft_s = 0.0;
    double p99_ttft_s = 0.0;
    double p50_tpot_s = 0.0;
    double p95_tpot_s = 0.0;
    double p99_tpot_s = 0.0;
};

/** Request-lifecycle scheduler over one Engine. */
class Scheduler {
  public:
    /** @p engine must outlive the scheduler. */
    explicit Scheduler(const Engine& engine,
                       const SchedulerConfig& config = {});

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /**
     * Enqueue a request; returns the id FinishedRequest reports.  A
     * request the scheduler can never run retires at once: a
     * functional one with an empty prompt, and, under a KV budget,
     * one whose KV exceeds the budget (FinishReason::kOverBudget).
     */
    std::uint64_t submit(Request request);

    /**
     * Enqueue a request under a caller-chosen id (must be unique for
     * the scheduler's lifetime; serve::Server assigns ids on the
     * submitting thread so a handle exists before the loop thread
     * ever sees the request).  submit() is this with the next
     * sequential id.
     */
    std::uint64_t submit_with_id(Request request, std::uint64_t id);

    /**
     * Retire request @p id wherever it is in the lifecycle -- still
     * queued, mid-prefill, or decoding -- with
     * FinishReason::kCancelled.  Its KV blocks are released
     * immediately, exactly as a natural finish releases them (shared
     * prefix blocks survive while another resident holds them), and
     * the retirement is audited under
     * MUGI_AUDIT_INVARIANTS.  Tokens already emitted stand in the
     * FinishedRequest.  Returns false when the id is unknown or
     * already finished.  Like every other member, callable only from
     * the thread driving the scheduler.
     */
    bool cancel(std::uint64_t id);

    /**
     * Retire every queued and active request with @p reason (the
     * non-draining server shutdown path).  Returns how many were
     * retired.
     */
    std::size_t cancel_all(FinishReason reason = FinishReason::kShutdown);

    /**
     * One scheduling iteration: admit, preempt if the pool would run
     * dry, build the mixed StepPlan, Engine::step it, stream tokens,
     * retire finished requests.  Returns true while any request is
     * active or queued.
     */
    bool step();

    /** step() until drained, then hand back every finished request. */
    std::vector<FinishedRequest> run();

    /** Finished requests since the last take (submission order). */
    std::vector<FinishedRequest> take_finished();

    ServerStats stats() const;

    /** Modeled clock: PerfAccumulator::elapsed_s + idle skips. */
    double now_s() const { return now_s_; }
    std::size_t queued() const { return queue_.size(); }
    std::size_t active() const { return active_.size(); }
    /** Exact KV block-pool bytes held by admitted requests. */
    units::Bytes kv_bytes_in_use() const;
    /** Requests evicted under KV pressure so far. */
    std::size_t preemptions() const { return preemptions_; }
    /** The shared block pool (admission + caches account here). */
    const quant::BlockPool& pool() const { return pool_; }
    const BatchPolicy& policy() const { return policy_; }

    /**
     * Recompute the scheduler's cross-structure accounting from
     * scratch and return a description of the first violation (empty
     * string: consistent).  Checks the pool's own invariants and
     * that the resident sessions' block tables account for every
     * pool reference.
     * Available in every build type; step() runs it automatically
     * under MUGI_AUDIT_INVARIANTS.
     */
    [[nodiscard]] std::string check_invariants() const;

  private:
    /**
     * One request from submit() to retirement.  The queue and the
     * active set hold the same record: admission moves it from the
     * queue head into active_, and a preemption moves it back to the
     * queue front, so nothing is copied across either hop.
     */
    struct Tracked {
        std::uint64_t id{};
        Request request{};
        /** max(arrival_time_s, clock at submit). */
        double arrival_s{};
        /** First admission; a preemption keeps it. */
        std::optional<double> admitted_s{};
        double first_token_s{};
        std::size_t preempt_count{};
        /** Tokens emitted so far (functional). */
        std::vector<int> tokens{};
        units::Tokens generated{};

        // Set at each admission.
        std::optional<Session> session{};
        /**
         * Tokens chunked prefill feeds (functional): the prompt,
         * plus -- after a preemption -- the tokens generated before
         * eviction, replayed to rebuild the KV cache bit-identically.
         */
        std::vector<int> feed{};
        /** Effective prompt length (analytic: prompt + replayed). */
        units::Tokens feed_tokens{};
        units::Tokens prompt_fed{};
        bool done{};

        bool
        prefill_done() const
        {
            return prompt_fed >= feed_tokens;
        }
    };

    std::size_t
    target_batch() const
    {
        return config_.max_batch ? config_.max_batch
                                 : policy_.target_batch();
    }

    /** What the prefix scan found for a queued request. */
    struct PrefixMatch {
        units::Tokens tokens{0};  ///< Block-aligned shared positions.
        units::Blocks blocks{0};  ///< Block groups those cover.
        /** active_ index of the resident donor (tokens > 0 only). */
        std::size_t donor = 0;
    };

    /** Bytes of one all-layer block group at @p precision. */
    units::Bytes block_group_bytes(quant::KvPrecision precision) const;
    /** Blocks covering @p tokens at the pool's block geometry. */
    units::Blocks blocks_for(units::Tokens tokens) const;
    /**
     * Longest block-aligned prompt prefix of @p queued already
     * computed by a resident request at the same precision, found by
     * one scan of active_ (always leaving >= 1 token to feed, so the
     * completing chunk's logits still emit the first token).  A
     * resident shares the prompt positions it has fed that agree
     * with @p queued's: the common prefix of the real tokens
     * (functional), or the declared prefix when both carry the same
     * nonzero prefix_group (analytic).  Ties go to the earliest
     * admitted.
     */
    PrefixMatch find_prefix_match(const Tracked& queued) const;
    /**
     * Bytes admission must charge for @p queued: the blocks covering
     * its prompt, any tokens it generated before a preemption and the
     * first decode append; a prefix-cache hit charges only the
     * unshared tail.
     */
    units::Bytes admission_bytes(const Tracked& queued,
                                 units::Blocks shared_blocks) const;
    /** Watermark headroom at the largest resident block group. */
    units::Bytes watermark_bytes(quant::KvPrecision head_precision)
        const;
    /** Bytes @p req still needs to cover @p tokens positions, beyond
     *  the blocks its session holds (shared blocks therefore counted
     *  once). */
    units::Bytes growth_slack_bytes(const Tracked& req,
                                    units::Tokens tokens) const;
    units::Bytes committed_total() const;
    /** KV positions @p req will append this iteration. */
    units::Tokens step_append_tokens(const Tracked& req) const;
    /** Evict active requests until this iteration's appends fit. */
    void preempt_for_pressure();
    /**
     * Evict active_[index]: reset its session (freeing its blocks)
     * and move its record to the queue front.
     */
    void preempt(std::size_t index);
    /**
     * Retire active_[index] with @p reason right now: finish it and
     * erase it (its session's destructor releases the KV blocks) --
     * the cancel/deadline twin of the end-of-step retire path.
     */
    void retire_active(std::size_t index, FinishReason reason);
    /**
     * Record @p req's retirement with @p reason and mark it done; the
     * caller erases it.  Milestones clamp to its arrival, so a request
     * retired before arriving or before admission reports no negative
     * wait, and a preempted one keeps its first admission stamp.
     */
    void finish(Tracked& req, FinishReason reason);
    /** Retire queued+active requests whose deadline_s passed. */
    void expire_deadlines();
    /**
     * Bounded-queue sweep: while more than max_queued_requests
     * arrived, never-admitted requests wait, retire the newest of
     * them with FinishReason::kShed.  Only those are candidates:
     * future trace arrivals are not yet load, and a preempted
     * request re-queued for re-prefill was admitted once already
     * (shedding it would throw away emitted tokens).  No-op when
     * max_queued_requests == 0.
     */
    void shed_for_capacity();
    /** Retire queued requests whose admission timeout expired. */
    void expire_admission_timeouts();
    /** Fold @p f into the counters, sample lists and finished list. */
    void record_finished(FinishedRequest f);
    void admit_arrivals();
    /** Emit one generated token; returns true when req is finished. */
    bool emit_token(Tracked& req, int token);

    const Engine& engine_;
    SchedulerConfig config_;
    BatchPolicy policy_;
    bool functional_ = false;

    quant::BlockPool pool_;
    /** Every step's worker pool; null when steps run serially. */
    std::unique_ptr<support::ThreadPool> step_pool_;
    std::deque<Tracked> queue_;
    /**
     * Admitted requests in admission order: they only join by
     * push_back and only leave by order-keeping erases.
     */
    std::vector<Tracked> active_;
    std::vector<FinishedRequest> finished_;

    sim::PerfAccumulator horizon_;
    /** Clock: horizon_.elapsed_s() + idle fast-forward skips. */
    double now_s_ = 0.0;
    double idle_s_ = 0.0;

    // Cumulative counters (survive take_finished()).
    std::size_t submitted_ = 0;
    std::size_t finished_count_ = 0;
    units::Tokens decode_tokens_{0};
    units::Tokens prefill_tokens_{0};
    units::Tokens generated_tokens_{0};
    std::size_t preemptions_ = 0;
    std::size_t cancelled_ = 0;
    std::size_t expired_ = 0;
    std::size_t requests_shed_ = 0;
    std::size_t admission_timeouts_ = 0;
    std::size_t prefix_hits_ = 0;
    units::Blocks shared_blocks_{0};
    units::Tokens saved_prefill_tokens_{0};
    double sum_queue_s_ = 0.0;
    /** Pooled-step worker-utilization sums (stats() divides). */
    std::size_t pooled_steps_ = 0;
    double sum_worker_busy_ = 0.0;
    /**
     * Per-request latency samples in finishing order, the only
     * latency record: every TTFT figure of stats() comes from the
     * requests that emitted >= 1 token, every TPOT figure from those
     * that emitted >= 2.
     */
    std::vector<double> ttft_samples_;
    std::vector<double> tpot_samples_;
};

}  // namespace serve
}  // namespace mugi

#endif  // MUGI_SERVE_SCHEDULER_H_
