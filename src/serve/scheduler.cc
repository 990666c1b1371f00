#include "serve/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>
#include <span>
#include <sstream>
#include <thread>

#include "quant/kv_cache.h"
#include "support/audit.h"
#include "support/fault.h"
#include "support/parse.h"

namespace mugi {
namespace serve {
namespace {

/** Context length of the BatchPolicy derivation sweep. */
constexpr std::size_t kPolicyContext = 512;

/**
 * Block groups that must remain free after a paged admission --
 * decode headroom that damps admit/preempt thrash, vLLM's watermark.
 * Sized at the *largest* block group resident (or being admitted),
 * so a small-precision admission cannot eat the headroom a
 * float-precision resident needs to grow.
 */
constexpr units::Blocks kWatermarkBlocks{1};

/**
 * Exact nearest-rank percentile over an ascending-sorted sample set
 * (rank = ceil(p/100 * N), 1-based); 0 when there are no samples.
 */
double
nearest_rank(const std::vector<double>& sorted, double p)
{
    if (sorted.empty()) {
        return 0.0;
    }
    const auto rank = static_cast<std::size_t>(std::ceil(
        p / 100.0 * static_cast<double>(sorted.size())));
    return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/** Mean of @p samples, summed in their order; 0 when empty. */
double
mean_of(const std::vector<double>& samples)
{
    if (samples.empty()) {
        return 0.0;
    }
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

}  // namespace

const char*
finish_reason_name(FinishReason reason)
{
    switch (reason) {
      case FinishReason::kMaxTokens:
        return "max_tokens";
      case FinishReason::kStopToken:
        return "stop_token";
      case FinishReason::kCancelled:
        return "cancelled";
      case FinishReason::kDeadline:
        return "deadline";
      case FinishReason::kShutdown:
        return "shutdown";
      case FinishReason::kShed:
        return "shed";
      case FinishReason::kAdmissionTimeout:
        return "admission_timeout";
      case FinishReason::kOverBudget:
        return "over_budget";
    }
    return "?";
}

std::size_t
resolve_step_threads(std::size_t requested)
{
    if (requested != SchedulerConfig::kAutoThreads) {
        return requested;
    }
    const unsigned hc = std::thread::hardware_concurrency();
    if (hc <= 1) {
        return 0;  // Single-core or unknown: stay serial.
    }
    // Leave one core for the thread driving the loop.
    return std::min<std::size_t>(hc - 1,
                                 SchedulerConfig::kMaxAutoThreads);
}

std::optional<std::size_t>
threads_flag(const char* text)
{
    if (std::strcmp(text, "auto") == 0) {
        return SchedulerConfig::kAutoThreads;
    }
    return support::parse_number<std::size_t>(
        text, 0, SchedulerConfig::kMaxAutoThreads);
}

Scheduler::Scheduler(const Engine& engine,
                     const SchedulerConfig& config)
    : engine_(engine), config_(config),
      functional_(engine.has_model()),
      pool_(config.kv_block_tokens)
{
    // The assert is the contract, exactly as in
    // Engine::create_session: a model (config) is required.
    assert(engine.model_config().has_value() &&
           "scheduling needs a model (config) at engine build");
    if (config_.max_batch == 0) {
        policy_ = BatchPolicy::derive(engine.design(),
                                      *engine.model_config(),
                                      kPolicyContext);
    }
    config_.step_threads = resolve_step_threads(config.step_threads);
    if (functional_ && config_.step_threads > 0) {
        step_pool_ = std::make_unique<support::ThreadPool>(
            config_.step_threads);
    }
}

std::uint64_t
Scheduler::submit(Request request)
{
    // Auto ids continue the submission count, which keeps them at
    // 1..N for in-process callers (serve::Server always chooses its
    // own ids through submit_with_id instead).
    return submit_with_id(std::move(request), submitted_ + 1);
}

std::uint64_t
Scheduler::submit_with_id(Request request, std::uint64_t id)
{
    assert((!functional_ || !request.prompt.empty()) &&
           "functional requests need a non-empty prompt");
    ++submitted_;
    const double arrival =
        std::max(request.arrival_time_s, now_s_);
    Tracked queued{.id = id,
                   .request = std::move(request),
                   .arrival_s = arrival};
    if (functional_ && queued.request.prompt.empty()) {
        // There is nothing to decode from: retire the request
        // immediately instead of feeding token -1 into the model
        // (the assert above catches this in debug builds).  All
        // milestones collapse onto the arrival instant and no token
        // was emitted, so queue / TTFT / TPOT are zero and the
        // stats() TTFT aggregates exclude the request.
        finish(queued, FinishReason::kMaxTokens);
        return id;
    }
    // A request whose KV outgrows the whole budget could only run by
    // overcommitting it, alone, and its block table would grow
    // without bound: 2^32 analytic prompt tokens under 1 GiB grew
    // past a gigabyte within seconds.
    if (config_.kv_budget_bytes != units::Bytes(0)) {
        const model::ModelConfig& c = *engine_.model_config();
        const units::Bytes per_token =
            quant::KvCache::bytes_per_position(
                c.num_kv_heads, c.head_dim(),
                queued.request.kv_precision) *
            c.num_layers;
        if (units::bytes_for(queued.request.prompt_tokens() +
                                 queued.request.max_new_tokens,
                             per_token) > config_.kv_budget_bytes) {
            finish(queued, FinishReason::kOverBudget);
            return id;
        }
    }
    queue_.push_back(std::move(queued));
    return id;
}

units::Bytes
Scheduler::block_group_bytes(quant::KvPrecision precision) const
{
    const model::ModelConfig& c = *engine_.model_config();
    // One block's bytes (block_tokens x per-position cost), across
    // every layer's cache.
    return units::bytes_for(config_.kv_block_tokens,
                            quant::KvCache::bytes_per_position(
                                c.num_kv_heads, c.head_dim(),
                                precision)) *
           c.num_layers;
}

units::Blocks
Scheduler::blocks_for(units::Tokens tokens) const
{
    return units::blocks_for(tokens, config_.kv_block_tokens);
}

Scheduler::PrefixMatch
Scheduler::find_prefix_match(const Tracked& queued) const
{
    PrefixMatch match;
    const Request& want = queued.request;
    const units::Tokens prompt = want.prompt_tokens();
    const units::Tokens feed = prompt + queued.generated;
    if (!config_.prefix_caching || feed == units::Tokens(0) ||
        (!functional_ && want.prefix_group == 0)) {
        return match;
    }
    // Never share the whole feed: the chunk completing prefill must
    // feed >= 1 real token so its logits emit the first token.
    units::Tokens cap = std::min(prompt, feed - units::Tokens(1));
    if (!functional_) {
        cap = std::min(cap, want.prefix_tokens);
    }
    for (std::size_t i = 0; i < active_.size(); ++i) {
        const Tracked& donor = active_[i];
        if (donor.session->kv_precision() != want.kv_precision) {
            continue;
        }
        // The donor must have those positions resident -- fed (or
        // itself adopted), not merely promised.
        units::Tokens shared = std::min(cap, donor.prompt_fed);
        if (functional_) {
            const std::span<const int> mine(want.prompt.data(),
                                            shared.value());
            const auto agreed =
                std::ranges::mismatch(mine, donor.request.prompt);
            shared = units::Tokens(
                static_cast<std::size_t>(agreed.in1 - mine.begin()));
        } else if (donor.request.prefix_group == want.prefix_group) {
            shared = std::min({shared, donor.request.prompt_tokens(),
                               donor.request.prefix_tokens});
        } else {
            continue;
        }
        // Most whole blocks win; ties keep the earliest admitted.
        const units::Blocks blocks =
            units::full_blocks_for(shared, config_.kv_block_tokens);
        if (blocks > match.blocks) {
            match.tokens =
                units::tokens_for(blocks, config_.kv_block_tokens);
            match.blocks = blocks;
            match.donor = i;
        }
    }
    return match;
}

units::Bytes
Scheduler::admission_bytes(const Tracked& queued,
                           units::Blocks shared_blocks) const
{
    const quant::KvPrecision precision = queued.request.kv_precision;
    // The blocks covering the prompt and any tokens generated before
    // a preemption, plus the first decode append -- growth beyond
    // that is allocated on demand and defended by preemption.
    // Blocks a prefix-cache hit maps onto resident storage are
    // already charged there; admission pays only the unshared tail.
    const units::Tokens feed =
        queued.request.prompt_tokens() + queued.generated;
    const units::Blocks blocks = blocks_for(feed + units::Tokens(1));
    assert(shared_blocks <= blocks);
    return units::bytes_for(blocks - shared_blocks,
                            block_group_bytes(precision));
}

units::Bytes
Scheduler::watermark_bytes(quant::KvPrecision head_precision) const
{
    // Headroom at the *largest* resident block group: decode growth
    // of a float-precision resident is not covered by an INT4-sized
    // watermark.
    units::Bytes group = block_group_bytes(head_precision);
    for (const Tracked& a : active_) {
        group = std::max(group,
                         block_group_bytes(a.session->kv_precision()));
    }
    return units::bytes_for(kWatermarkBlocks, group);
}

units::Bytes
Scheduler::growth_slack_bytes(const Tracked& req,
                              units::Tokens tokens) const
{
    const units::Bytes target = units::bytes_for(
        blocks_for(tokens),
        block_group_bytes(req.session->kv_precision()));
    // Exact block bytes the session's caches hold -- including blocks
    // shared with other sessions, which the pool counts once.
    const units::Bytes resident = req.session->kv_bytes();
    return target > resident ? target - resident : units::Bytes(0);
}

units::Bytes
Scheduler::committed_total() const
{
    // The pool's exact footprint (shared blocks counted once) plus
    // each request's growth to cover its feed and next decode
    // append.
    units::Bytes total = pool_.bytes_in_use();
    for (const Tracked& a : active_) {
        total += growth_slack_bytes(
            a, std::max(a.feed_tokens,
                        units::tokens_for(a.session->position())) +
                   units::Tokens(1));
    }
    return total;
}

units::Bytes
Scheduler::kv_bytes_in_use() const
{
    return pool_.bytes_in_use();
}

units::Tokens
Scheduler::step_append_tokens(const Tracked& req) const
{
    if (req.prefill_done()) {
        return units::Tokens(1);  // One decode append per layer cache.
    }
    const units::Tokens remaining = req.feed_tokens - req.prompt_fed;
    return std::min(config_.prefill_chunk_tokens == units::Tokens(0)
                        ? remaining
                        : config_.prefill_chunk_tokens,
                    remaining);
}

void
Scheduler::preempt(std::size_t index)
{
    Tracked& victim = active_[index];
    ++preemptions_;
    ++victim.preempt_count;
    // Resetting the session drops its caches' block references,
    // which is the point of preemption.  A block another request
    // shares survives (its refcount stays > 0) -- one owner's
    // eviction never frees a sharer's storage.  The emitted tokens
    // and milestones stay in the record for re-admission.
    victim.session.reset();
    // Front of the queue: the victim was admitted before anything
    // still waiting, and FIFO admission keeps it first in line.
    queue_.push_front(std::move(victim));
    active_.erase(active_.begin() +
                  static_cast<std::ptrdiff_t>(index));
}

void
Scheduler::preempt_for_pressure()
{
    if (config_.kv_budget_bytes == units::Bytes(0)) {
        return;
    }
    // Evict until the blocks this iteration's appends need fit the
    // budget; a single resident request may overcommit (it could
    // never run otherwise).  The need is pool-exact: current bytes
    // (shared blocks counted once) plus each request's growth to
    // cover its appends, so sharing defers preemption exactly as
    // far as the physical savings allow.
    while (active_.size() > 1) {
        units::Bytes needed = pool_.bytes_in_use();
        for (const Tracked& a : active_) {
            needed += growth_slack_bytes(
                a, units::tokens_for(a.session->position()) +
                       step_append_tokens(a));
        }
        if (needed <= config_.kv_budget_bytes) {
            return;
        }
        // Victim: lowest priority; ties evict the latest admitted,
        // which is the last of them because active_ keeps admission
        // order.
        std::size_t victim = 0;
        for (std::size_t i = 1; i < active_.size(); ++i) {
            if (active_[i].request.priority <=
                active_[victim].request.priority) {
                victim = i;
            }
        }
        preempt(victim);
    }
}

void
Scheduler::admit_arrivals()
{
    // FIFO admission: the queue head blocks everything behind it, so
    // an expensive request cannot be starved by a stream of cheap
    // later ones.  A preempted request re-enters at the head.
    while (!queue_.empty() && active_.size() < target_batch()) {
        Tracked& head = queue_.front();
        if (head.arrival_s > now_s_) {
            break;  // Not arrived yet on the modeled clock.
        }
        // Chaos seam: a fired "block_pool.allocate" defers this
        // iteration's admissions, exactly as a transiently exhausted
        // pool would.  Deferral delays work but never changes which
        // tokens come out, so the chaos bench's bit-identity gate
        // still holds over it.
        if (MUGI_FAULT_POINT("block_pool.allocate")) {
            break;
        }
        // Prefix-cache lookup first: a hit shrinks the admission
        // charge to the unshared tail.
        const PrefixMatch match = find_prefix_match(head);
        // Admission must not overcommit the KV budget, except into
        // an empty scheduler: a request alone may overcommit it, or
        // one that fits the budget token by token (submit() refused
        // the rest) but not in whole blocks plus the watermark could
        // never run.
        if (!active_.empty() &&
            config_.kv_budget_bytes != units::Bytes(0) &&
            committed_total() + admission_bytes(head, match.blocks) +
                    watermark_bytes(head.request.kv_precision) >
                config_.kv_budget_bytes) {
            break;
        }
        head.session = engine_.create_session(
            {.kv_precision = head.request.kv_precision,
             .kv_pool = &pool_});
        if (functional_) {
            head.feed = head.request.prompt;
            head.feed.insert(head.feed.end(), head.tokens.begin(),
                             head.tokens.end());
            head.feed_tokens = units::Tokens(head.feed.size());
        } else {
            head.feed_tokens =
                head.request.prompt_tokens() + head.generated;
        }
        head.prompt_fed = match.tokens;
        if (match.tokens > units::Tokens(0)) {
            // Map the shared prompt prefix onto the donor's resident
            // blocks and skip its prefill chunks: the tokens are
            // already computed (and, under KVQ, already quantized).
            // The adopted blocks count as resident from here on, so
            // this step's pressure check sees the sharer's real
            // growth, not its full prompt.
            head.session->adopt_kv_prefix(
                *active_[match.donor].session,
                units::positions_for(match.tokens));
            ++prefix_hits_;
            shared_blocks_ += match.blocks;
            saved_prefill_tokens_ += match.tokens;
        }
        head.admitted_s = head.admitted_s.value_or(now_s_);
        active_.push_back(std::move(head));
        queue_.pop_front();
    }
}

bool
Scheduler::emit_token(Tracked& req, int token)
{
    if (functional_) {
        req.tokens.push_back(token);
    }
    ++req.generated;
    ++generated_tokens_;
    if (req.request.on_token) {
        req.request.on_token(req.id, req.generated.value() - 1, token);
    }
    if (functional_ && req.request.stop_token &&
        token == *req.request.stop_token) {
        finish(req, FinishReason::kStopToken);
        return true;
    }
    if (req.generated >= req.request.max_new_tokens) {
        finish(req, FinishReason::kMaxTokens);
        return true;
    }
    return false;
}

void
Scheduler::finish(Tracked& req, FinishReason reason)
{
    FinishedRequest f;
    f.id = req.id;
    f.reason = reason;
    f.tokens = std::move(req.tokens);
    f.prompt_tokens = req.request.prompt_tokens();
    f.generated = req.generated;
    f.preemptions = req.preempt_count;
    f.arrival_s = req.arrival_s;
    // An admitted request finishes at now_s_, which its admission
    // already passed.  One retired before its modeled arrival, or
    // before admission, reports zero queue wait rather than a
    // negative one; a preempted one keeps its first admission stamp
    // -- it really was admitted back then.
    f.finished_s = std::max(now_s_, req.arrival_s);
    f.admitted_s = req.admitted_s.value_or(f.finished_s);
    f.first_token_s = req.first_token_s;
    record_finished(std::move(f));
    req.done = true;
}

void
Scheduler::record_finished(FinishedRequest f)
{
    sum_queue_s_ += f.queue_s();
    // TTFT is defined over requests that emitted a first token and
    // TPOT over those with an inter-token gap; anything else would
    // dilute the means (and percentiles) with structural zeros.
    // Cancelled / expired requests that did emit tokens count -- their
    // latencies were real serving latencies.
    if (f.generated > units::Tokens(0)) {
        ttft_samples_.push_back(f.ttft_s());
    }
    if (f.generated > units::Tokens(1)) {
        tpot_samples_.push_back(f.tpot_s());
    }
    switch (f.reason) {
      case FinishReason::kCancelled:
      case FinishReason::kShutdown:
        ++cancelled_;
        break;
      case FinishReason::kDeadline:
        ++expired_;
        break;
      case FinishReason::kShed:
        ++requests_shed_;
        break;
      case FinishReason::kAdmissionTimeout:
        ++admission_timeouts_;
        break;
      default:
        break;
    }
    ++finished_count_;
    finished_.push_back(std::move(f));
}

void
Scheduler::retire_active(std::size_t index, FinishReason reason)
{
    Tracked& req = active_[index];
    finish(req, reason);
    // Erasing destroys the session, whose caches drop their block
    // references -- the same release order the end-of-step retire
    // path uses, so shared prefix blocks survive while another
    // resident holds them.
    active_.erase(active_.begin() +
                  static_cast<std::ptrdiff_t>(index));
}

bool
Scheduler::cancel(std::uint64_t id)
{
    for (std::size_t i = 0; i < active_.size(); ++i) {
        if (active_[i].id == id) {
            retire_active(i, FinishReason::kCancelled);
#if MUGI_AUDIT_INVARIANTS
            support::audit_or_abort("Scheduler::cancel",
                                    check_invariants());
#endif
            return true;
        }
    }
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->id == id) {
            finish(*it, FinishReason::kCancelled);
            queue_.erase(it);
            return true;
        }
    }
    return false;
}

std::size_t
Scheduler::cancel_all(FinishReason reason)
{
    std::size_t retired = 0;
    // Back to front: each retire erases, and earlier indexes stay
    // valid.  Order within finished_ still reads naturally enough --
    // callers key on ids, not positions.
    while (!active_.empty()) {
        retire_active(active_.size() - 1, reason);
        ++retired;
    }
    while (!queue_.empty()) {
        finish(queue_.front(), reason);
        queue_.pop_front();
        ++retired;
    }
#if MUGI_AUDIT_INVARIANTS
    if (retired > 0) {
        support::audit_or_abort("Scheduler::cancel_all",
                                check_invariants());
    }
#endif
    return retired;
}

void
Scheduler::expire_deadlines()
{
    for (auto it = queue_.begin(); it != queue_.end();) {
        if (it->request.deadline_s > 0.0 &&
            it->request.deadline_s <= now_s_) {
            finish(*it, FinishReason::kDeadline);
            it = queue_.erase(it);
        } else {
            ++it;
        }
    }
    // Back to front so retire_active's erase keeps indexes valid.
    for (std::size_t i = active_.size(); i-- > 0;) {
        const Tracked& a = active_[i];
        if (!a.done && a.request.deadline_s > 0.0 &&
            a.request.deadline_s <= now_s_) {
            retire_active(i, FinishReason::kDeadline);
        }
    }
}

void
Scheduler::expire_admission_timeouts()
{
    for (auto it = queue_.begin(); it != queue_.end();) {
        // Preempted requests were already admitted once: their
        // re-queue wait is preemption pressure, not admission load.
        const double timeout =
            it->request.admission_timeout_s > 0.0
                ? it->request.admission_timeout_s
                : config_.admission_timeout_s;
        if (!it->admitted_s && timeout > 0.0 &&
            it->arrival_s <= now_s_ &&
            now_s_ - it->arrival_s >= timeout) {
            finish(*it, FinishReason::kAdmissionTimeout);
            it = queue_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Scheduler::shed_for_capacity()
{
    if (config_.max_queued_requests == 0) {
        return;
    }
    // Candidates: arrived and never admitted.  Future trace arrivals
    // are not yet load; preempted re-queues must survive to keep the
    // bit-identity contract (their emitted tokens already stand).
    // The victim is the last candidate in queue order, the latest
    // arrival under FIFO submission: the oldest waiters keep their
    // place.
    while (true) {
        std::size_t candidates = 0;
        std::size_t newest = 0;
        for (std::size_t i = 0; i < queue_.size(); ++i) {
            if (!queue_[i].admitted_s &&
                queue_[i].arrival_s <= now_s_) {
                ++candidates;
                newest = i;
            }
        }
        if (candidates <= config_.max_queued_requests) {
            return;
        }
        finish(queue_[newest], FinishReason::kShed);
        queue_.erase(queue_.begin() +
                     static_cast<std::ptrdiff_t>(newest));
    }
}

bool
Scheduler::step()
{
    if (queue_.empty() && active_.empty()) {
        return false;
    }
    // Idle scheduler, all queued arrivals in the future: fast-forward
    // the modeled clock to the next arrival.
    if (active_.empty() && !queue_.empty() &&
        queue_.front().arrival_s > now_s_) {
        idle_s_ += queue_.front().arrival_s - now_s_;
        now_s_ = queue_.front().arrival_s;
    }
    // A queued request whose deadline already passed must never be
    // admitted (and must not block FIFO admission behind it).
    expire_deadlines();
    // Overload protection runs before admission so a shed request is
    // never charged against the pool: timeouts first (a timed-out
    // request is not load the bounded queue should shed someone else
    // for), then the capacity bound.
    expire_admission_timeouts();
    shed_for_capacity();
    admit_arrivals();
    if (active_.empty()) {
        return !queue_.empty();
    }
    // Guarantee this iteration's appends have blocks before any work
    // is planned: evicting mid-layer is not an option, so pressure is
    // resolved up front (vLLM-style recompute preemption).
    preempt_for_pressure();

    // Build the iteration's mixed plan: one prefill chunk per
    // prompt-phase request, one decode step per generation-phase
    // request; everything shares one weight-stream-shared workload.
    StepPlan plan;
    std::vector<std::size_t> prefill_owner;
    std::vector<std::size_t> decode_owner;
    for (std::size_t i = 0; i < active_.size(); ++i) {
        Tracked& a = active_[i];
        if (!a.prefill_done()) {
            const units::Tokens chunk = step_append_tokens(a);
            StepPlan::PrefillEntry entry;
            entry.session = &*a.session;
            if (functional_) {
                entry.tokens = std::span<const int>(a.feed).subspan(
                    a.prompt_fed.value(), chunk.value());
            } else {
                entry.analytic_tokens = chunk;
            }
            plan.prefills.push_back(entry);
            prefill_owner.push_back(i);
        } else {
            plan.decode_sessions.push_back(&*a.session);
            if (functional_) {
                // The last emission is the next decode input.
                plan.decode_tokens.push_back(a.tokens.back());
            }
            decode_owner.push_back(i);
        }
    }

    const StepResult result = engine_.step(plan, step_pool_.get());
    if (result.workers.threads > 0) {
        ++pooled_steps_;
        sum_worker_busy_ += result.workers.busy_fraction;
    }
    horizon_.add(result.perf);
    now_s_ = idle_s_ + horizon_.elapsed_s();
    decode_tokens_ += units::Tokens(plan.decode_sessions.size());
    for (const StepPlan::PrefillEntry& entry : plan.prefills) {
        prefill_tokens_ += entry.size();
    }

    for (std::size_t k = 0; k < result.outputs.size(); ++k) {
        emit_token(active_[decode_owner[k]],
                   result.outputs[k].next_token);
    }
    for (std::size_t k = 0; k < result.prefill_outputs.size(); ++k) {
        Tracked& a = active_[prefill_owner[k]];
        a.prompt_fed += plan.prefills[k].size();
        if (!a.prefill_done()) {
            continue;
        }
        // Prefill complete: the chunk's final logits already carry
        // the next generated token.  A preempted request (generated
        // > 0) just replayed its history -- its TTFT stands and its
        // next emission continues where eviction cut it off.
        if (a.generated == units::Tokens(0)) {
            if (a.request.max_new_tokens == units::Tokens(0)) {
                // No token will ever be emitted: retire without a
                // first-token stamp so the request cannot contribute
                // a fake TTFT to the aggregates.
                finish(a, FinishReason::kMaxTokens);
                continue;
            }
            a.first_token_s = now_s_;
        }
        emit_token(a, result.prefill_outputs[k].next_token);
    }

    // Deadlines are checked after the clock advance and emissions:
    // a deadline passing mid-iteration still delivers this
    // iteration's token, then the request retires with its KV blocks
    // released exactly as on a natural finish.
    expire_deadlines();
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [](const Tracked& a) {
                                     return a.done;
                                 }),
                  active_.end());
#if MUGI_AUDIT_INVARIANTS
    // Every scheduler iteration ends structurally consistent:
    // refcount drift is corruption, caught here at the step that
    // introduced it instead of steps later.
    support::audit_or_abort("Scheduler::step", check_invariants());
#endif
    return !(queue_.empty() && active_.empty());
}

std::string
Scheduler::check_invariants() const
{
    std::ostringstream out;
    // Rung 1: the pool's own slot/refcount/free-list accounting.
    const std::string pool_violation = pool_.check_invariants();
    if (!pool_violation.empty()) {
        return "pool: " + pool_violation;
    }
    // Rung 2: every pool reference is a resident session's
    // block-table entry, functional or analytic alike: the per-slot
    // refcount total must equal the sum of the sessions' tables, or a
    // cache leaked / double-freed a reference.
    units::Blocks table_blocks{0};
    for (const Tracked& a : active_) {
        table_blocks += a.session->kv_block_count();
    }
    if (table_blocks.value() != pool_.ref_total()) {
        out << "resident sessions hold " << table_blocks
            << " block-table entries but the pool counts "
            << pool_.ref_total() << " references";
        return out.str();
    }
    return {};
}

std::vector<FinishedRequest>
Scheduler::run()
{
    while (step()) {
    }
    return take_finished();
}

std::vector<FinishedRequest>
Scheduler::take_finished()
{
    std::vector<FinishedRequest> out;
    out.swap(finished_);
    return out;
}

ServerStats
Scheduler::stats() const
{
    ServerStats s;
    s.horizon = horizon_.total();
    s.steps = horizon_.steps();
    s.now_s = now_s_;
    s.submitted = submitted_;
    s.finished = finished_count_;
    s.active = active_.size();
    s.queued = queue_.size();
    s.decode_tokens = decode_tokens_;
    s.prefill_tokens = prefill_tokens_;
    s.generated_tokens = generated_tokens_;
    s.kv_budget_bytes = config_.kv_budget_bytes;
    s.kv_bytes_in_use = pool_.bytes_in_use();
    s.peak_kv_bytes = pool_.peak_bytes_in_use();
    if (config_.kv_budget_bytes != units::Bytes(0)) {
        s.peak_pool_utilization =
            static_cast<double>(s.peak_kv_bytes.value()) /
            static_cast<double>(config_.kv_budget_bytes.value());
    }
    s.preemptions = preemptions_;
    s.cancelled = cancelled_;
    s.expired = expired_;
    s.requests_shed = requests_shed_;
    s.admission_timeouts = admission_timeouts_;
    s.prefix_hits = prefix_hits_;
    s.shared_blocks = shared_blocks_;
    s.saved_prefill_tokens = saved_prefill_tokens_;
    s.target_batch = target_batch();
    if (finished_count_ > 0) {
        s.mean_queue_s =
            sum_queue_s_ / static_cast<double>(finished_count_);
    }
    // Each latency mean divides by the count of requests it is
    // defined over, not by every finished request, and sums in
    // finishing order before the sorted copies below.
    s.mean_ttft_s = mean_of(ttft_samples_);
    s.mean_tpot_s = mean_of(tpot_samples_);
    {
        // Exact nearest-rank percentiles over the same per-request
        // samples the means use (sorted on demand: stats() is a
        // report call, not a per-step one).
        std::vector<double> ttft = ttft_samples_;
        std::sort(ttft.begin(), ttft.end());
        s.max_ttft_s = ttft.empty() ? 0.0 : ttft.back();
        s.p50_ttft_s = nearest_rank(ttft, 50.0);
        s.p95_ttft_s = nearest_rank(ttft, 95.0);
        s.p99_ttft_s = nearest_rank(ttft, 99.0);
        std::vector<double> tpot = tpot_samples_;
        std::sort(tpot.begin(), tpot.end());
        s.p50_tpot_s = nearest_rank(tpot, 50.0);
        s.p95_tpot_s = nearest_rank(tpot, 95.0);
        s.p99_tpot_s = nearest_rank(tpot, 99.0);
    }
    s.pooled_steps = pooled_steps_;
    if (pooled_steps_ > 0) {
        s.mean_worker_busy =
            sum_worker_busy_ / static_cast<double>(pooled_steps_);
        s.mean_worker_idle = 1.0 - s.mean_worker_busy;
    }
    return s;
}

}  // namespace serve
}  // namespace mugi
