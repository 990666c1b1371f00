#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "support/fault.h"

namespace mugi {
namespace serve {
namespace {

/**
 * Submission-channel depth: submit() blocks (backpressure, never
 * drops) once this many commands are queued ahead of the loop thread.
 */
constexpr std::size_t kCommandQueueDepth = 256;

}  // namespace

/**
 * Shared per-request state: the delta stream plus the finished slot.
 * The loop thread produces, the handle's owner consumes; the Server
 * and every copy of the handle share ownership, so the state outlives
 * whichever side finishes first.
 */
struct RequestHandle::State {
    State(std::uint64_t id, std::size_t delta_capacity)
        : id(id), deltas(delta_capacity)
    {
    }

    const std::uint64_t id;
    /**
     * Sized at submit to max_new_tokens + slack, so the loop
     * thread's push never blocks on a slow (or absent) consumer --
     * a stalled HTTP client can never stall the scheduler.
     */
    support::Channel<TokenDelta> deltas;

    support::Mutex mu;
    std::condition_variable_any cv;
    std::optional<FinishedRequest> finished MUGI_GUARDED_BY(mu);
};

std::uint64_t
RequestHandle::id() const
{
    return state_->id;
}

std::optional<TokenDelta>
RequestHandle::next()
{
    return state_->deltas.pop();
}

std::optional<TokenDelta>
RequestHandle::try_next()
{
    return state_->deltas.try_pop();
}

FinishedRequest
RequestHandle::wait()
{
    State& s = *state_;
    s.mu.lock();
    while (!s.finished) {
        s.cv.wait(s.mu);
    }
    FinishedRequest f = *s.finished;
    s.mu.unlock();
    return f;
}

std::optional<FinishedRequest>
RequestHandle::poll()
{
    support::MutexLock lock(state_->mu);
    return state_->finished;
}

bool
RequestHandle::cancel()
{
    return server_->cancel(state_->id);
}

Server::Server(const Engine& engine, const ServerConfig& config)
    : engine_(engine), commands_(kCommandQueueDepth),
      scheduler_(engine, config.scheduler)
{
    publish_stats();
    loop_thread_ = std::thread(&Server::loop, this);
}

Server::~Server()
{
    shutdown(ShutdownMode::kDrain);
}

RequestHandle
Server::submit(Request request)
{
    const std::uint64_t id = next_id_.fetch_add(1);
    // Delta capacity: every token the request can ever stream, plus
    // slack -- the dimensionless token count via the same-unit ratio.
    const std::size_t delta_capacity =
        request.max_new_tokens / units::Tokens(1) + 2;
    auto state = std::make_shared<RequestHandle::State>(
        id, delta_capacity);

    // Chain the server's streaming hook onto any caller callback:
    // the callback still fires first (from the loop thread), then
    // the delta lands in the handle's channel.
    TokenCallback user_hook = std::move(request.on_token);
    request.on_token = [state, user_hook](std::uint64_t rid,
                                          std::size_t index,
                                          int token) {
        if (user_hook) {
            user_hook(rid, index, token);
        }
        state->deltas.push(TokenDelta{rid, index, token});
    };

    bool accepted = false;
    {
        support::MutexLock lock(mu_);
        if (accepting_) {
            live_.emplace(id, state);
            accepted = true;
        }
    }
    if (accepted) {
        // Chaos seam: a fired "channel.push" is a command channel
        // that refused the submission -- the request is shed before
        // the scheduler ever sees it, the overload twin of the
        // shutdown race below.  Its handle still resolves.
        if (MUGI_FAULT_POINT("channel.push")) {
            server_sheds_.fetch_add(1);
            finish_unsubmitted(id, state, FinishReason::kShed);
            return RequestHandle(this, std::move(state));
        }
        Command command;
        command.kind = Command::Kind::kSubmit;
        command.id = id;
        command.request = std::move(request);
        if (commands_.push(std::move(command))) {
            return RequestHandle(this, std::move(state));
        }
        // The channel closed between the accepting_ check and the
        // push (shutdown race): fall through to the rejection path.
    }
    finish_unsubmitted(id, state, FinishReason::kShutdown);
    return RequestHandle(this, std::move(state));
}

bool
Server::cancel(std::uint64_t id)
{
    {
        support::MutexLock lock(mu_);
        if (live_.find(id) == live_.end()) {
            return false;  // Unknown or already retired.
        }
    }
    Command command;
    command.kind = Command::Kind::kCancel;
    command.id = id;
    // push blocks under backpressure rather than dropping; false
    // only when shutdown already closed the channel (a draining
    // server runs the request to completion instead).
    return commands_.push(std::move(command));
}

void
Server::shutdown(ShutdownMode mode)
{
    {
        support::MutexLock lock(mu_);
        accepting_ = false;
    }
    if (mode == ShutdownMode::kAbort) {
        abort_.store(true);
    }
    commands_.close();
    bool join = false;
    {
        support::MutexLock lock(mu_);
        if (!joined_) {
            joined_ = true;
            join = true;
        }
    }
    if (join && loop_thread_.joinable()) {
        loop_thread_.join();
    }
}

bool
Server::accepting() const
{
    support::MutexLock lock(mu_);
    return accepting_;
}

bool
Server::ready() const
{
    support::MutexLock lock(mu_);
    return accepting_ && commands_.size() < commands_.capacity();
}

void
Server::record_slow_client_cancel()
{
    slow_client_cancels_.fetch_add(1);
}

std::string
Server::check_invariants() const
{
    {
        support::MutexLock lock(mu_);
        if (!joined_) {
            return "Server::check_invariants called before shutdown "
                   "(the scheduler is loop-thread-only state while "
                   "the loop runs)";
        }
    }
    // The loop thread has exited and joined: its writes are visible
    // and nothing else touches the scheduler.
    return scheduler_.check_invariants();
}

ServerStats
Server::stats() const
{
    support::MutexLock lock(mu_);
    ServerStats s = stats_snapshot_;
    // Server-side counters the scheduler never sees: submissions the
    // command channel refused, front-end slow-client cancels, and the
    // process-wide fault-injection fire count.
    s.requests_shed += server_sheds_.load();
    s.slow_client_cancels = slow_client_cancels_.load();
    s.faults_injected = support::FaultInjector::instance().fires();
    return s;
}

void
Server::loop()
{
    bool open = true;
    for (;;) {
        const bool has_work =
            scheduler_.queued() > 0 || scheduler_.active() > 0;
        if (!open && !has_work) {
            break;  // Drained and no more commands can arrive.
        }
        if (open && !has_work) {
            // Idle: block until work (or shutdown) arrives instead
            // of spinning.
            std::optional<Command> command = commands_.pop();
            if (!command) {
                open = false;
                continue;  // Re-check: pending work may remain.
            }
            apply(std::move(*command));
        }
        // Adopt everything already queued before stepping, so one
        // iteration batches every arrival it can see.
        while (std::optional<Command> command = commands_.try_pop()) {
            apply(std::move(*command));
        }
        if (abort_.load()) {
            break;
        }
        // Chaos seam: a fired "loop.step_delay" stalls the loop
        // thread in *wall-clock* time only.  The scheduler's modeled
        // clock is untouched, so delays change when tokens are
        // delivered, never which tokens come out.
        if (MUGI_FAULT_POINT("loop.step_delay")) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        scheduler_.step();
        // Publish BEFORE delivering: the moment a handle's wait()
        // returns, stats() already reflects that retirement -- a
        // caller may read stats() the instant its stream ends.
        publish_stats();
        deliver_finished();
    }
    if (abort_.load()) {
        // Adopt any still-queued submissions so their handles
        // resolve, then retire everything on the spot.
        while (std::optional<Command> command = commands_.try_pop()) {
            apply(std::move(*command));
        }
        scheduler_.cancel_all(FinishReason::kShutdown);
        publish_stats();
        deliver_finished();
    }
    publish_stats();
}

void
Server::apply(Command&& command)
{
    switch (command.kind) {
      case Command::Kind::kSubmit:
        scheduler_.submit_with_id(std::move(command.request),
                                  command.id);
        break;
      case Command::Kind::kCancel:
        // False (already retired naturally) is fine: the handle has
        // or will get its FinishedRequest either way.
        scheduler_.cancel(command.id);
        break;
    }
}

void
Server::deliver_finished()
{
    for (FinishedRequest& f : scheduler_.take_finished()) {
        std::shared_ptr<RequestHandle::State> state;
        {
            support::MutexLock lock(mu_);
            const auto it = live_.find(f.id);
            if (it != live_.end()) {
                state = it->second;
                live_.erase(it);
            }
        }
        if (!state) {
            continue;  // Unreachable: every id came from submit().
        }
        // Close first: a consumer blocked in next() wakes, drains
        // the remaining deltas, then sees end-of-stream.
        state->deltas.close();
        state->mu.lock();
        state->finished = std::move(f);
        state->mu.unlock();
        state->cv.notify_all();
    }
}

void
Server::publish_stats()
{
    ServerStats snapshot = scheduler_.stats();
    support::MutexLock lock(mu_);
    stats_snapshot_ = std::move(snapshot);
}

void
Server::finish_unsubmitted(
    std::uint64_t id,
    const std::shared_ptr<RequestHandle::State>& state,
    FinishReason reason)
{
    {
        support::MutexLock lock(mu_);
        live_.erase(id);
    }
    FinishedRequest f;
    f.id = id;
    f.reason = reason;
    state->deltas.close();
    state->mu.lock();
    state->finished = std::move(f);
    state->mu.unlock();
    state->cv.notify_all();
}

}  // namespace serve
}  // namespace mugi
