#ifndef MUGI_SERVE_REQUEST_H_
#define MUGI_SERVE_REQUEST_H_

/**
 * @file
 * The request side of the request-lifecycle serving API.
 *
 * A Request is what callers submit to serve::Scheduler: the prompt
 * (real tokens for functional engines, a token count for analytic
 * Table-1-scale serving), generation limits, and an optional
 * streaming callback.  A FinishedRequest is what comes back: the
 * generated tokens plus the modeled-clock latency milestones every
 * serving paper reports (queue wait, TTFT, TPOT).
 *
 * Thread-safety: externally serialized -- Request and
 * FinishedRequest are plain value types owned by one submitter /
 * one scheduler at a time; the on_token callback is invoked from
 * whichever thread runs Scheduler::step and must synchronize its own
 * captures.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "quant/kv_cache.h"

namespace mugi {
namespace serve {

/** Why a request left the scheduler. */
enum class FinishReason {
    kMaxTokens,  ///< Generated max_new_tokens.
    kStopToken,  ///< Emitted the request's stop token.
    /**
     * Retired by Scheduler::cancel (a caller's DELETE / disconnect).
     * Tokens already emitted stand; the KV blocks are released on the
     * spot, exactly as a natural finish releases them.
     */
    kCancelled,
    /** Request::deadline_s passed before generation completed. */
    kDeadline,
    /** Retired by a server shutdown that did not drain. */
    kShutdown,
    /**
     * Load-shed before admission: the bounded admission queue
     * (SchedulerConfig::max_queued_requests) was over its limit and
     * the shed policy picked this request, or the server's command
     * channel refused it.  Never emitted tokens; never held KV.
     */
    kShed,
    /**
     * Waited in the admission queue longer than its admission
     * timeout (Request::admission_timeout_s, falling back to
     * SchedulerConfig::admission_timeout_s).  Distinct from
     * kDeadline: admission timeouts bound *queue wait only* and can
     * never fire once the request is admitted.
     */
    kAdmissionTimeout,
    /**
     * Refused at submit: under a KV budget, its KV (prompt plus
     * max_new_tokens positions) exceeds the whole budget, so it could
     * only run by overcommitting it.  Never emitted tokens; never
     * held KV.
     */
    kOverBudget,
};

const char* finish_reason_name(FinishReason reason);

/**
 * Streaming callback: (request id, 0-based index of the generated
 * token, the token; -1 on analytic engines).  Fired as each token is
 * produced, before the request finishes.
 */
using TokenCallback =
    std::function<void(std::uint64_t, std::size_t, int)>;

/** One generation request submitted to a Scheduler. */
struct Request {
    /** Prompt tokens (functional engines). */
    std::vector<int> prompt;
    /**
     * Prompt length for analytic engines (no real tokens); ignored
     * when @p prompt is non-empty.
     */
    units::Tokens analytic_prompt_tokens{0};

    /** Generation stops after this many new tokens. */
    units::Tokens max_new_tokens{16};
    /**
     * Generation stops early when this token is emitted.  Functional
     * engines only: analytic requests have no real tokens (every
     * emission is -1) and always run to max_new_tokens.
     */
    std::optional<int> stop_token;

    /**
     * Modeled-clock arrival time: the scheduler will not admit the
     * request before its simulated clock reaches this, which is how
     * staggered / bursty arrival traces are replayed.
     */
    double arrival_time_s = 0.0;

    /**
     * Preemption priority: when the KV block pool runs dry
     * mid-decode, the scheduler evicts the running request with the
     * *lowest* priority (ties: the latest-admitted goes first) and
     * re-queues it for recompute-style re-prefill.  Higher values
     * survive longer.
     */
    int priority = 0;

    /**
     * Absolute modeled-clock deadline; 0 = none.  A request still
     * queued or generating when the scheduler's clock reaches this
     * is retired with FinishReason::kDeadline -- tokens already
     * emitted stand, and its KV blocks are released exactly as on a
     * natural finish.  Deadlines are checked at the end of every
     * scheduling iteration, so a deadline passing mid-iteration
     * still delivers that iteration's token.
     */
    double deadline_s = 0.0;

    /**
     * Maximum modeled-clock *queue wait* before the scheduler gives
     * up on admitting this request and retires it with
     * FinishReason::kAdmissionTimeout; 0 = use
     * SchedulerConfig::admission_timeout_s (whose 0 means no limit).
     * Unlike deadline_s (an absolute completion bound that keeps
     * ticking after admission), an admission timeout only covers the
     * arrival -> admission window: once admitted the request runs to
     * its natural finish.  Requests re-queued by preemption were
     * already admitted and are exempt.
     */
    double admission_timeout_s = 0.0;

    /**
     * Analytic prefix caching: requests carrying the same nonzero
     * prefix_group share their first prefix_tokens prompt tokens (a
     * common system prompt in a modeled trace).  The scheduler's
     * prefix scan treats those blocks as content-equal: once a
     * resident request has computed them, a new sharer adopts its
     * refcounted KV blocks (held once however many sharers are
     * resident) and skips their prefill chunks.
     * Functional engines ignore both fields -- sharing is discovered
     * from the real prompt tokens.
     */
    std::uint64_t prefix_group = 0;
    /** Shared-prefix length in tokens (with prefix_group). */
    units::Tokens prefix_tokens{0};

    /** KV-cache precision (KVQ INT4 by default, Sec. 2.3.3). */
    quant::KvPrecision kv_precision = quant::KvPrecision::kInt4;

    /** Optional per-token streaming hook. */
    TokenCallback on_token;

    units::Tokens
    prompt_tokens() const
    {
        return prompt.empty() ? analytic_prompt_tokens
                              : units::Tokens(prompt.size());
    }
};

/** A completed request with its lifecycle milestones. */
struct FinishedRequest {
    std::uint64_t id = 0;
    FinishReason reason = FinishReason::kMaxTokens;

    /** Generated tokens in order (empty on analytic engines). */
    std::vector<int> tokens;
    units::Tokens prompt_tokens{0};
    /** Tokens generated (counts analytic generations too). */
    units::Tokens generated{0};
    /**
     * Times this request was evicted under KV-memory pressure and
     * re-prefilled.  Preemption changes *when* its tokens were
     * computed, never which tokens came out.
     */
    std::size_t preemptions = 0;

    // Modeled-clock milestones.
    double arrival_s = 0.0;      ///< Request::arrival_time_s.
    double admitted_s = 0.0;     ///< Left the queue, session created.
    /**
     * Prefill done, first token out.  Stays 0 when the request never
     * emitted a token (max_new_tokens == 0): there is no first token
     * to stamp, and such requests are excluded from the scheduler's
     * TTFT aggregates (they still count toward queue stats).
     */
    double first_token_s = 0.0;
    double finished_s = 0.0;     ///< Last token out.

    /** Admission-queue wait. */
    double queue_s() const { return admitted_s - arrival_s; }
    /**
     * Time to first token, from arrival (queue + prefill); 0 when no
     * token was ever emitted.
     */
    double
    ttft_s() const
    {
        return generated > units::Tokens(0)
                   ? first_token_s - arrival_s
                   : 0.0;
    }
    /** Mean time per output token after the first. */
    double
    tpot_s() const
    {
        return generated > units::Tokens(1)
                   ? (finished_s - first_token_s) /
                         static_cast<double>(generated.value() - 1)
                   : 0.0;
    }
};

}  // namespace serve
}  // namespace mugi

#endif  // MUGI_SERVE_REQUEST_H_
