#ifndef MUGI_SERVE_SERVER_H_
#define MUGI_SERVE_SERVER_H_

/**
 * @file
 * The push-based serving core: Scheduler's single-threaded loop moved
 * onto its own thread behind a submit()/cancel() facade.
 *
 * Server inverts the caller-driven pull loop.  Instead of one thread
 * calling submit()/step() in a loop, the Server owns a dedicated
 * *loop thread* that drives the Scheduler, and any number of caller
 * threads push work at it:
 *
 *   caller threads        loop thread              pool workers
 *   submit()/cancel() --> Channel<Command> -->     Scheduler::step
 *   RequestHandle     <-- Channel<TokenDelta> <--  (Engine fans MACs
 *     next()/wait()        per request              across ThreadPool)
 *
 * Life of a request: submit() assigns the id on the *calling* thread
 * (so the handle exists before the loop thread ever sees the
 * request), chains the server's streaming hook onto Request::on_token
 * and enqueues a submission command.  The loop thread admits it,
 * steps the scheduler, and every generated token is pushed into the
 * request's own Channel<TokenDelta> -- sized so the producer never
 * blocks -- where RequestHandle::next() (or an HTTP connection)
 * drains it.  When the scheduler retires the request, the delta
 * channel closes (next() returns nullopt: end of stream) and the
 * FinishedRequest is published for RequestHandle::wait().
 *
 * Cancellation (DELETE in the HTTP front-end) and deadline expiry
 * retire through Scheduler::cancel / the deadline sweep, releasing KV
 * blocks exactly as a natural finish does -- audited by the
 * scheduler's invariant checkers, and the "no leaked blocks" number
 * is stats().kv_bytes_in_use == 0 once everything retired.
 *
 * shutdown(kDrain) closes the submission channel (queued commands
 * still drain -- close never drops) and lets in-flight requests run
 * to completion; shutdown(kAbort) retires everything immediately with
 * FinishReason::kShutdown.  Either way every handle resolves: no
 * caller is left blocked on a stream that will never end.
 *
 * Token streams are bit-identical to an in-process Scheduler run of
 * the same request set: the loop thread *is* the single thread the
 * Scheduler requires, threading changed where requests come from,
 * never what the engine computes (bench/serve_load --check gates
 * this end to end over HTTP).
 *
 * Thread-safety: internally synchronized.  submit(), cancel(),
 * stats(), shutdown() and the RequestHandle members may be called
 * from any thread concurrently; cross-thread traffic flows through
 * support::Channel and the MUGI_GUARDED_BY state below, and
 * tests/serve/server_test.cc races submitters against the loop under
 * TSan.  The Scheduler itself is only ever touched by the loop
 * thread.  The Server must outlive its RequestHandles' member calls,
 * and the Engine must outlive the Server.
 */

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/request.h"
#include "serve/scheduler.h"
#include "support/channel.h"
#include "support/mutex.h"
#include "support/thread_annotations.h"

namespace mugi {
namespace serve {

/** Server knobs fixed at construction. */
struct ServerConfig {
    /** The scheduler the loop thread drives. */
    SchedulerConfig scheduler;
};

/** One streamed token: request, 0-based emission index, token id. */
struct TokenDelta {
    std::uint64_t id = 0;
    std::size_t index = 0;
    int token = -1;  ///< -1 on analytic engines (no real tokens).
};

/** How shutdown treats requests still in the system. */
enum class ShutdownMode {
    /** Refuse new work, run queued + in-flight to completion. */
    kDrain,
    /** Retire everything now with FinishReason::kShutdown. */
    kAbort,
};

class Server;

/**
 * Caller's end of one submitted request: a stream of token deltas
 * plus the final FinishedRequest.  Cheap to copy (shared state);
 * valid until the Server is destroyed.
 */
class RequestHandle {
  public:
    std::uint64_t id() const;

    /**
     * Next streamed token, blocking until one is produced; nullopt
     * means the stream ended (finished, cancelled, expired, or shut
     * down -- wait() tells which).
     */
    std::optional<TokenDelta> next();
    /** Non-blocking next(); nullopt when nothing is pending. */
    std::optional<TokenDelta> try_next();

    /** Block until the request retires; returns its FinishedRequest. */
    FinishedRequest wait();
    /** The FinishedRequest, if the request already retired. */
    std::optional<FinishedRequest> poll();

    /** Ask the server to cancel this request (see Server::cancel). */
    bool cancel();

  private:
    friend class Server;
    struct State;
    RequestHandle(Server* server, std::shared_ptr<State> state)
        : server_(server), state_(std::move(state))
    {
    }

    Server* server_;
    std::shared_ptr<State> state_;
};

/** The push-based serving front over one Engine (see file doc). */
class Server {
  public:
    /** @p engine must outlive the server; the loop thread starts
     *  running before the constructor returns. */
    explicit Server(const Engine& engine,
                    const ServerConfig& config = {});
    /** Joins the loop thread; equivalent to shutdown(kDrain). */
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /**
     * Submit a request from any thread.  The returned handle is live
     * immediately; the request reaches the scheduler asynchronously.
     * Any Request::on_token callback still fires (from the loop
     * thread) before the delta is streamed.  After shutdown began,
     * the request never runs: its handle resolves at once with
     * FinishReason::kShutdown and zero tokens.
     */
    RequestHandle submit(Request request);

    /**
     * Ask the loop thread to cancel @p id.  Returns false when the
     * id is unknown or already retired (an HTTP 404); true means the
     * cancel command was enqueued -- the request will retire with
     * FinishReason::kCancelled unless it finishes naturally first.
     */
    bool cancel(std::uint64_t id);

    /**
     * Stop the server (idempotent; the destructor drains).  kDrain
     * completes in-flight and queued work first; kAbort retires it
     * all with FinishReason::kShutdown.  Blocks until the loop
     * thread exits; every outstanding handle has resolved by then.
     */
    void shutdown(ShutdownMode mode = ShutdownMode::kDrain);

    /** True until shutdown() begins refusing submissions. */
    bool accepting() const;

    /**
     * Readiness (vs. the liveness accepting() reports): true while
     * the server is accepting AND the command channel has room --
     * i.e. the loop thread is keeping up.  The HTTP front-end's
     * /healthz maps false onto 503 so load balancers stop routing to
     * a draining or saturated server before submits start blocking.
     */
    bool ready() const;

    /**
     * Count one slow-client cancellation (HTTP write timeout or a
     * vanished connection forced a cancel); surfaced as
     * ServerStats::slow_client_cancels.  Called by the front-end
     * from any connection thread.
     */
    void record_slow_client_cancel();

    /**
     * Recompute the scheduler's cross-structure accounting from
     * scratch (Scheduler::check_invariants) and return the first
     * violation, empty when consistent.  Only callable after
     * shutdown() returned -- the scheduler is loop-thread-only state
     * while the loop runs -- and returns a diagnostic (not a crash)
     * when called too early.  The chaos bench's end-of-run gate.
     */
    [[nodiscard]] std::string check_invariants() const;

    /** The engine the loop thread drives (e.g. has_model()). */
    const Engine& engine() const { return engine_; }

    /**
     * Scheduler stats as of the end of the loop thread's most recent
     * iteration (a consistent snapshot -- the scheduler itself is
     * never touched cross-thread).  Published before handles resolve:
     * once a RequestHandle's wait() returns, stats() already reflects
     * that retirement.
     */
    ServerStats stats() const;

  private:
    struct Command {
        enum class Kind { kSubmit, kCancel };
        Kind kind = Kind::kSubmit;
        std::uint64_t id = 0;
        Request request;  ///< kSubmit only.
    };

    void loop();
    void apply(Command&& command);
    /** Route take_finished() results to their handles. */
    void deliver_finished();
    void publish_stats();
    /** Resolve @p state without the scheduler ever seeing it. */
    void finish_unsubmitted(std::uint64_t id,
                            const std::shared_ptr<RequestHandle::State>&
                                state,
                            FinishReason reason);

    const Engine& engine_;

    /** MPSC: any caller thread -> the loop thread. */
    support::Channel<Command> commands_;

    /** Loop-thread-only state (no guard needed: one owner). */
    Scheduler scheduler_;

    mutable support::Mutex mu_;
    /** Submitted-but-not-retired requests, by id. */
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<RequestHandle::State>>
        live_ MUGI_GUARDED_BY(mu_);
    ServerStats stats_snapshot_ MUGI_GUARDED_BY(mu_);
    bool accepting_ MUGI_GUARDED_BY(mu_) = true;
    bool joined_ MUGI_GUARDED_BY(mu_) = false;

    std::atomic<std::uint64_t> next_id_{1};
    std::atomic<bool> abort_{false};
    /** Submissions the server itself shed (fault-injected channel
     *  refusal); merged into ServerStats::requests_shed. */
    std::atomic<std::size_t> server_sheds_{0};
    /** Slow-client cancellations reported by the front-end. */
    std::atomic<std::size_t> slow_client_cancels_{0};

    std::thread loop_thread_;
};

}  // namespace serve
}  // namespace mugi

#endif  // MUGI_SERVE_SERVER_H_
