#ifndef MUGI_SERVER_FRONTEND_H_
#define MUGI_SERVER_FRONTEND_H_

/**
 * @file
 * The HTTP front-end over serve::Server: routes, request UUIDs, the
 * streaming protocol, and graceful drain.
 *
 * Routes (all loopback, HTTP/1.1, Connection: close):
 *
 *  - POST /v1/generate -- submit one request.  JSON body fields
 *    (all optional unless the engine is functional, which requires
 *    "prompt"):
 *      prompt            array of token ints; a functional engine
 *                        takes ids in [0, vocab) only
 *      prompt_tokens     analytic prompt length (at most 2^32)
 *      max_new_tokens    generation cap (default 16, at most 2^32)
 *      stop_token        early-stop token id (an int when present)
 *      priority          preemption priority
 *      prefix_group / prefix_tokens   analytic shared-prefix decl.
 *                        (prefix_tokens at most 2^32)
 *      arrival_time_s    modeled-clock arrival (trace replay)
 *      deadline_s        absolute modeled-clock deadline
 *      timeout_s         relative deadline: modeled now + timeout
 *      admission_timeout_s  max modeled-clock queue wait (0: the
 *                        scheduler's default)
 *      stream            default true
 *    Streaming response: chunked NDJSON -- one {"id": "<uuid>"}
 *    line, one {"index": i, "token": t} line per delta, and a final
 *    {"done": true, "reason": ..., latency milestones} line.
 *    stream=false returns one JSON object with the token array.
 *  - DELETE /v1/generate/<uuid> -- cancel; 202 when the cancel was
 *    enqueued, 404 when the uuid is unknown or already retired.
 *  - GET /metrics -- ServerStats in Prometheus text format,
 *    including the p50/p95/p99 TTFT/TPOT gauges and the overload
 *    counters (requests_shed, admission_timeouts,
 *    slow_client_cancels, faults_injected).
 *  - GET /healthz -- liveness vs readiness: 200 "ok" while accepting
 *    AND the command channel has room; 503 "draining" once
 *    shutdown()/stop() began; 503 "saturated" while the loop thread
 *    is not keeping up (command channel full) -- the signal a load
 *    balancer needs to stop routing here before submits block.
 *
 * Overload: a request the scheduler sheds (bounded admission queue)
 * or admission-times-out before any token is produced gets HTTP 429
 * with a Retry-After header derived from the current backlog and
 * TPOT: ceil((queued + active) x p50 TPOT x nominal tokens), clamped
 * to [1, 60] seconds.  A known route hit with the wrong method gets
 * 405; malformed JSON and non-finite / out-of-range numeric fields
 * get 400 before anything is submitted -- among them a token count
 * over 2^32 (whose KV bytes could overflow 64 bits), a prompt token
 * outside [0, vocab) on a functional engine, and a stop_token that
 * is not an int.  So does a request the scheduler refuses at submit
 * because its KV (prompt plus max_new_tokens) exceeds the server's
 * KV budget (serve::FinishReason::kOverBudget), which it could only
 * run by overcommitting that budget.  A client that stops draining
 * its stream for longer than the 10 s write timeout (SO_SNDTIMEO),
 * or vanishes, has its request cancelled -- KV blocks release
 * immediately -- and is counted in slow_client_cancels.  The same
 * 10 s bounds each read of the request (SO_RCVTIMEO): a client that
 * sends nothing for that long gets 400 and loses the connection, so
 * an idle connection cannot hold its thread indefinitely.
 *
 * Shutdown: stop() (the SIGINT/SIGTERM path) closes the listener,
 * drains the serve::Server (in-flight requests complete and their
 * streams end normally), ends the reads of connections that have not
 * sent their request (they get 400 at once, not after the read
 * timeout), then joins every connection thread.
 *
 * Thread-safety: internally synchronized.  One accept loop (run())
 * hands each connection to its own worker thread; workers share the
 * serve::Server (itself internally synchronized) and the
 * MUGI_GUARDED_BY uuid table below.  stop() may be called from any
 * thread, concurrently with run().
 */

#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "serve/server.h"
#include "server/http.h"
#include "support/mutex.h"
#include "support/thread_annotations.h"

namespace mugi {
namespace server {

class Frontend {
  public:
    /** @p server must outlive the frontend. */
    explicit Frontend(serve::Server& server);

    Frontend(const Frontend&) = delete;
    Frontend& operator=(const Frontend&) = delete;

    /** Bind 127.0.0.1:@p port (0 = ephemeral); false on failure. */
    bool bind(std::uint16_t port);
    /** The bound port (after bind). */
    std::uint16_t port() const { return listener_.port(); }

    /**
     * Accept loop: serve until stop().  Call from the thread that
     * owns the frontend's lifetime (main, or a test's helper
     * thread).  Each connection gets its own worker thread, which
     * the loop joins soon after its connection closes, so threads
     * and their stacks stay bounded by the connections open at once.
     * A connection whose thread cannot start gets 503 with
     * Retry-After: 1 and is closed; the loop keeps accepting.
     */
    void run();

    /**
     * Graceful drain: stop accepting, let serve::Server finish
     * in-flight work, shut down the reading side of connections
     * still waiting for their request, join every connection thread.
     * Idempotent; callable from any thread (a signal-flag watcher, a
     * test).
     */
    void stop();

  private:
    void handle(int fd);
    void handle_generate(Connection& connection,
                         const HttpRequest& request);
    /** 429 + Retry-After for a shed / admission-timed-out request. */
    void respond_overloaded(Connection& connection,
                            const serve::FinishedRequest& finished);
    void handle_cancel(Connection& connection,
                       const std::string& uuid);
    void handle_metrics(Connection& connection);
    void handle_health(Connection& connection);

    /** Canonical 8-4-4-4-12 UUID for @p id (seeded per process). */
    std::string uuid_for(std::uint64_t id) const;

    serve::Server& server_;
    Listener listener_;

    mutable support::Mutex mu_;
    /** Live uuid -> serve::Server request id (DELETE routing). */
    std::unordered_map<std::string, std::uint64_t> uuids_
        MUGI_GUARDED_BY(mu_);
    /** Connection threads not yet joined. */
    std::vector<std::thread> workers_ MUGI_GUARDED_BY(mu_);
    /** Workers whose handler returned; run() joins them. */
    std::vector<std::thread::id> finished_ MUGI_GUARDED_BY(mu_);
    /**
     * Fds of connections still reading their request, for stop() to
     * shut down.  A worker erases its fd before closing it, so stop()
     * never shuts down a reused fd.
     */
    std::unordered_set<int> reading_ MUGI_GUARDED_BY(mu_);
    bool stopping_ MUGI_GUARDED_BY(mu_) = false;

    /** Per-process UUID seed (std::random_device at construction). */
    const std::uint64_t uuid_seed_;
};

}  // namespace server
}  // namespace mugi

#endif  // MUGI_SERVER_FRONTEND_H_
