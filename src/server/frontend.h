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
 *      prompt            array of token ints (functional engines)
 *      prompt_tokens     analytic prompt length
 *      max_new_tokens    generation cap (default 16)
 *      stop_token        early-stop token id
 *      priority          preemption priority
 *      prefix_group / prefix_tokens   analytic shared-prefix decl.
 *      arrival_time_s    modeled-clock arrival (trace replay)
 *      deadline_s        absolute modeled-clock deadline
 *      timeout_s         relative deadline: modeled now + timeout
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
 * get 400 before anything is submitted.  A client that stops
 * draining its stream for longer than the write timeout (or
 * vanishes) has its request cancelled -- KV blocks release
 * immediately -- and is counted in slow_client_cancels.
 *
 * Shutdown: stop() (the SIGINT/SIGTERM path) closes the listener,
 * drains the serve::Server (in-flight requests complete and their
 * streams end normally), then joins every connection thread.
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
     */
    void run();

    /**
     * Graceful drain: stop accepting, let serve::Server finish
     * in-flight work, join every connection thread.  Idempotent;
     * callable from any thread (a signal-flag watcher, a test).
     */
    void stop();

    /**
     * Slow-client write timeout applied to every accepted
     * connection (SO_SNDTIMEO); 0 disables.  Configuration: set
     * before run(), not concurrently with it.
     */
    void set_write_timeout_s(double seconds)
    {
        write_timeout_s_ = seconds;
    }

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
    bool stopping_ MUGI_GUARDED_BY(mu_) = false;

    /** Per-process UUID seed (std::random_device at construction). */
    const std::uint64_t uuid_seed_;

    /** See set_write_timeout_s (configuration: set before run()). */
    double write_timeout_s_ = 10.0;
};

}  // namespace server
}  // namespace mugi

#endif  // MUGI_SERVER_FRONTEND_H_
