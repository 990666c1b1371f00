#include "server/frontend.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <utility>

#include "server/json.h"

namespace mugi {
namespace server {
namespace {

/** splitmix64: the uuid mixer (id -> two well-mixed 64-bit halves). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

std::uint64_t
seed_from_entropy()
{
    std::random_device entropy;
    return (static_cast<std::uint64_t>(entropy()) << 32) ^
           entropy();
}

/**
 * Range-checked narrowing from a parsed JSON double.  json.cc's
 * strtod maps overflowing literals ("1e999") to +/-inf and accepts
 * any finite double, so every cast the API narrows through must
 * reject non-finite and out-of-range values here -- casting inf or a
 * negative to an unsigned integral is undefined behaviour.
 */
bool
to_count(double value, std::size_t* out)
{
    if (!std::isfinite(value) || value < 0.0 || value > 1e15) {
        return false;
    }
    *out = static_cast<std::size_t>(value);
    return true;
}

bool
to_int(double value, int* out)
{
    if (!std::isfinite(value) || value < -2147483648.0 ||
        value > 2147483647.0) {
        return false;
    }
    *out = static_cast<int>(value);
    return true;
}

bool
to_u64(double value, std::uint64_t* out)
{
    if (!std::isfinite(value) || value < 0.0 || value > 1e18) {
        return false;
    }
    *out = static_cast<std::uint64_t>(value);
    return true;
}

/** The final NDJSON line / non-streamed summary fields. */
json::ObjectWriter
finish_fields(const serve::FinishedRequest& f)
{
    json::ObjectWriter w;
    w.field_bool("done", true)
        .field("reason", serve::finish_reason_name(f.reason))
        .field_int("generated",
                   static_cast<long long>(f.generated.value()))
        .field_int("prompt_tokens",
                   static_cast<long long>(f.prompt_tokens.value()))
        .field_int("preemptions",
                   static_cast<long long>(f.preemptions))
        .field("queue_s", f.queue_s())
        .field("ttft_s", f.ttft_s())
        .field("tpot_s", f.tpot_s());
    return w;
}

}  // namespace

Frontend::Frontend(serve::Server& server)
    : server_(server), uuid_seed_(seed_from_entropy())
{
}

bool
Frontend::bind(std::uint16_t port)
{
    return listener_.bind_and_listen(port);
}

void
Frontend::run()
{
    for (;;) {
        const int fd = listener_.accept_fd(100);
        std::vector<std::thread> exited;
        {
            support::MutexLock lock(mu_);
            if (stopping_) {
                if (fd >= 0) {
                    Connection refused(fd);  // Close it.
                }
                return;
            }
            if (fd >= 0) {
                workers_.emplace_back([this, fd] {
                    handle(fd);
                    support::MutexLock done(mu_);
                    finished_.push_back(std::this_thread::get_id());
                });
            }
            // Reap: a worker that has marked itself finished is
            // past its last use of the frontend and about to exit.
            for (const std::thread::id id : finished_) {
                const auto it = std::find_if(
                    workers_.begin(), workers_.end(),
                    [id](const std::thread& t) {
                        return t.get_id() == id;
                    });
                exited.push_back(std::move(*it));
                workers_.erase(it);
            }
            finished_.clear();
        }
        for (std::thread& worker : exited) {
            worker.join();
        }
    }
}

void
Frontend::stop()
{
    {
        support::MutexLock lock(mu_);
        if (stopping_) {
            return;
        }
        stopping_ = true;
    }
    listener_.close();
    // Drain: in-flight requests complete, every stream ends, every
    // connection worker unblocks.
    server_.shutdown(serve::ShutdownMode::kDrain);
    std::vector<std::thread> workers;
    {
        support::MutexLock lock(mu_);
        workers.swap(workers_);
    }
    for (std::thread& worker : workers) {
        worker.join();
    }
}

void
Frontend::handle(int fd)
{
    Connection connection(fd);
    connection.set_write_timeout(write_timeout_s_);
    HttpRequest request;
    if (!connection.read_request(&request)) {
        connection.write_response(
            400, "application/json",
            "{\"error\":\"malformed request\"}");
        return;
    }
    // Route on target first so a known route hit with the wrong
    // method gets 405, not a misleading 404.
    const std::string cancel_prefix = "/v1/generate/";
    if (request.target == "/v1/generate") {
        if (request.method == "POST") {
            handle_generate(connection, request);
        } else {
            connection.write_response(
                405, "application/json",
                "{\"error\":\"method not allowed\"}");
        }
    } else if (request.target.rfind(cancel_prefix, 0) == 0) {
        if (request.method == "DELETE") {
            handle_cancel(
                connection,
                request.target.substr(cancel_prefix.size()));
        } else {
            connection.write_response(
                405, "application/json",
                "{\"error\":\"method not allowed\"}");
        }
    } else if (request.target == "/metrics" ||
               request.target == "/healthz") {
        if (request.method != "GET") {
            connection.write_response(
                405, "application/json",
                "{\"error\":\"method not allowed\"}");
        } else if (request.target == "/metrics") {
            handle_metrics(connection);
        } else {
            handle_health(connection);
        }
    } else {
        connection.write_response(404, "application/json",
                                  "{\"error\":\"no such route\"}");
    }
}

void
Frontend::handle_generate(Connection& connection,
                          const HttpRequest& http_request)
{
    const std::optional<json::Value> body =
        json::parse(http_request.body.empty() ? "{}"
                                              : http_request.body);
    if (!body || !body->is_object()) {
        connection.write_response(400, "application/json",
                                  "{\"error\":\"invalid JSON\"}");
        return;
    }

    const auto reject_numbers = [&connection] {
        connection.write_response(
            400, "application/json",
            "{\"error\":\"non-finite or out-of-range number\"}");
    };
    serve::Request request;
    if (const json::Value* prompt = body->find("prompt")) {
        if (!prompt->is_array()) {
            connection.write_response(
                400, "application/json",
                "{\"error\":\"prompt must be a token array\"}");
            return;
        }
        request.prompt.reserve(prompt->array.size());
        for (const json::Value& token : prompt->array) {
            int token_id = 0;
            if (!token.is_number() ||
                !to_int(token.number, &token_id)) {
                reject_numbers();
                return;
            }
            request.prompt.push_back(token_id);
        }
    }
    std::size_t analytic_prompt = 0;
    std::size_t max_new = 0;
    std::size_t prefix_tokens = 0;
    std::uint64_t prefix_group = 0;
    int priority = 0;
    if (!to_count(body->number_or("prompt_tokens", 0.0),
                  &analytic_prompt) ||
        !to_count(body->number_or("max_new_tokens", 16.0),
                  &max_new) ||
        !to_count(body->number_or("prefix_tokens", 0.0),
                  &prefix_tokens) ||
        !to_u64(body->number_or("prefix_group", 0.0),
                &prefix_group) ||
        !to_int(body->number_or("priority", 0.0), &priority)) {
        reject_numbers();
        return;
    }
    request.analytic_prompt_tokens = units::Tokens(analytic_prompt);
    request.max_new_tokens = units::Tokens(max_new);
    if (const json::Value* stop = body->find("stop_token")) {
        int stop_id = 0;
        if (stop->is_number() && to_int(stop->number, &stop_id)) {
            request.stop_token = stop_id;
        }
    }
    request.priority = priority;
    request.prefix_group = prefix_group;
    request.prefix_tokens = units::Tokens(prefix_tokens);
    request.arrival_time_s = body->number_or("arrival_time_s", 0.0);
    request.deadline_s = body->number_or("deadline_s", 0.0);
    request.admission_timeout_s =
        body->number_or("admission_timeout_s", 0.0);
    const double timeout_s = body->number_or("timeout_s", 0.0);
    if (!std::isfinite(request.arrival_time_s) ||
        !std::isfinite(request.deadline_s) ||
        !std::isfinite(request.admission_timeout_s) ||
        !std::isfinite(timeout_s)) {
        reject_numbers();
        return;
    }
    if (timeout_s > 0.0) {
        // Relative deadline against the modeled clock's snapshot.
        request.deadline_s = server_.stats().now_s + timeout_s;
    }
    const bool stream = body->bool_or("stream", true);

    if (server_.engine().has_model() && request.prompt.empty()) {
        connection.write_response(
            400, "application/json",
            "{\"error\":\"functional engine needs a prompt\"}");
        return;
    }
    if (!server_.accepting()) {
        connection.write_response(503, "application/json",
                                  "{\"error\":\"draining\"}");
        return;
    }

    serve::RequestHandle handle = server_.submit(std::move(request));
    const std::string uuid = uuid_for(handle.id());
    {
        support::MutexLock lock(mu_);
        uuids_.emplace(uuid, handle.id());
    }

    // Block on the first stream event before writing anything: a
    // request the scheduler sheds (or admission-times-out) closes
    // its stream with zero deltas, and the client should see 429 +
    // Retry-After -- not an empty 200 stream.
    std::optional<serve::TokenDelta> first_delta = handle.next();
    if (!first_delta) {
        // End-of-stream with zero deltas: the retirement is already
        // on its way (wait(), not poll() -- the delta channel closes
        // an instant before the FinishedRequest is published).
        const serve::FinishedRequest early = handle.wait();
        if (early.reason == serve::FinishReason::kShed ||
            early.reason == serve::FinishReason::kAdmissionTimeout) {
            {
                support::MutexLock lock(mu_);
                uuids_.erase(uuid);
            }
            respond_overloaded(connection, early);
            return;
        }
    }

    if (stream) {
        bool client_gone = !connection.begin_chunked(
            200, "application/x-ndjson");
        if (!client_gone) {
            json::ObjectWriter head;
            head.field("id", uuid);
            client_gone =
                !connection.write_chunk(head.str() + "\n");
        }
        if (client_gone && first_delta) {
            // The client vanished before the stream even started:
            // free its KV blocks now, don't generate into the void.
            handle.cancel();
            server_.record_slow_client_cancel();
        }
        for (std::optional<serve::TokenDelta> delta =
                 std::move(first_delta);
             delta; delta = handle.next()) {
            if (client_gone) {
                continue;  // Drain so wait() below is immediate.
            }
            json::ObjectWriter line;
            line.field_int("index",
                           static_cast<long long>(delta->index))
                .field_int("token", delta->token);
            if (!connection.write_chunk(line.str() + "\n")) {
                // Client disconnected or stalled past the write
                // timeout mid-stream: cancel so its KV blocks free
                // now instead of at max_new_tokens.
                client_gone = true;
                handle.cancel();
                server_.record_slow_client_cancel();
            }
        }
        const serve::FinishedRequest finished = handle.wait();
        if (!client_gone) {
            connection.write_chunk(finish_fields(finished).str() +
                                   "\n");
            connection.end_chunked();
        }
    } else {
        std::string tokens = "[";
        bool first = true;
        for (std::optional<serve::TokenDelta> delta =
                 std::move(first_delta);
             delta; delta = handle.next()) {
            if (!first) {
                tokens += ',';
            }
            first = false;
            char buf[16];
            std::snprintf(buf, sizeof(buf), "%d", delta->token);
            tokens += buf;
        }
        tokens += ']';
        const serve::FinishedRequest finished = handle.wait();
        json::ObjectWriter response = finish_fields(finished);
        response.field("id", uuid).field_raw("tokens", tokens);
        connection.write_response(200, "application/json",
                                  response.str());
    }
    {
        support::MutexLock lock(mu_);
        uuids_.erase(uuid);
    }
}

void
Frontend::respond_overloaded(Connection& connection,
                             const serve::FinishedRequest& finished)
{
    // Retry-After from the live backlog: every waiting-or-running
    // request costs roughly (nominal generation length x TPOT) of
    // loop time, so that product over the backlog approximates when
    // capacity frees up.  Clamped to [1, 60]s -- a bounded hint, not
    // a promise.
    const serve::ServerStats stats = server_.stats();
    double tpot = stats.p50_tpot_s > 0.0 ? stats.p50_tpot_s
                                         : stats.mean_tpot_s;
    if (tpot <= 0.0) {
        tpot = 0.05;  // No samples yet: a generic decode cadence.
    }
    const double backlog =
        static_cast<double>(stats.queued + stats.active);
    constexpr double kNominalTokens = 16.0;
    const double eta_s = backlog * tpot * kNominalTokens;
    const int retry_after = static_cast<int>(
        std::min(60.0, std::max(1.0, std::ceil(eta_s))));
    char header_value[16];
    std::snprintf(header_value, sizeof(header_value), "%d",
                  retry_after);
    json::ObjectWriter body;
    body.field("error", "overloaded")
        .field("reason", serve::finish_reason_name(finished.reason))
        .field_int("retry_after_s", retry_after);
    connection.write_response(429, "application/json", body.str(),
                              {{"Retry-After", header_value}});
}

void
Frontend::handle_cancel(Connection& connection,
                        const std::string& uuid)
{
    std::uint64_t id = 0;
    bool known = false;
    {
        support::MutexLock lock(mu_);
        const auto it = uuids_.find(uuid);
        if (it != uuids_.end()) {
            id = it->second;
            known = true;
        }
    }
    if (known && server_.cancel(id)) {
        connection.write_response(202, "application/json",
                                  "{\"cancelled\":true}");
    } else {
        connection.write_response(
            404, "application/json",
            "{\"error\":\"unknown or finished request\"}");
    }
}

void
Frontend::handle_metrics(Connection& connection)
{
    const serve::ServerStats stats = server_.stats();
    char buffer[3072];
    const int n = std::snprintf(
        buffer, sizeof(buffer),
        "# TYPE mugi_requests_submitted counter\n"
        "mugi_requests_submitted %zu\n"
        "# TYPE mugi_requests_finished counter\n"
        "mugi_requests_finished %zu\n"
        "# TYPE mugi_requests_cancelled counter\n"
        "mugi_requests_cancelled %zu\n"
        "# TYPE mugi_requests_expired counter\n"
        "mugi_requests_expired %zu\n"
        "# TYPE mugi_requests_shed counter\n"
        "mugi_requests_shed %zu\n"
        "# TYPE mugi_admission_timeouts counter\n"
        "mugi_admission_timeouts %zu\n"
        "# TYPE mugi_slow_client_cancels counter\n"
        "mugi_slow_client_cancels %zu\n"
        "# TYPE mugi_faults_injected counter\n"
        "mugi_faults_injected %zu\n"
        "# TYPE mugi_requests_active gauge\n"
        "mugi_requests_active %zu\n"
        "# TYPE mugi_requests_queued gauge\n"
        "mugi_requests_queued %zu\n"
        "# TYPE mugi_preemptions counter\n"
        "mugi_preemptions %zu\n"
        "# TYPE mugi_kv_bytes_in_use gauge\n"
        "mugi_kv_bytes_in_use %zu\n"
        "# TYPE mugi_kv_peak_bytes gauge\n"
        "mugi_kv_peak_bytes %zu\n"
        "# TYPE mugi_generated_tokens counter\n"
        "mugi_generated_tokens %zu\n"
        "# TYPE mugi_ttft_seconds summary\n"
        "mugi_ttft_seconds{quantile=\"0.5\"} %.9g\n"
        "mugi_ttft_seconds{quantile=\"0.95\"} %.9g\n"
        "mugi_ttft_seconds{quantile=\"0.99\"} %.9g\n"
        "# TYPE mugi_tpot_seconds summary\n"
        "mugi_tpot_seconds{quantile=\"0.5\"} %.9g\n"
        "mugi_tpot_seconds{quantile=\"0.95\"} %.9g\n"
        "mugi_tpot_seconds{quantile=\"0.99\"} %.9g\n",
        stats.submitted, stats.finished, stats.cancelled,
        stats.expired, stats.requests_shed,
        stats.admission_timeouts, stats.slow_client_cancels,
        stats.faults_injected, stats.active, stats.queued,
        stats.preemptions, stats.kv_bytes_in_use.value(),
        stats.peak_kv_bytes.value(), stats.generated_tokens.value(),
        stats.p50_ttft_s, stats.p95_ttft_s, stats.p99_ttft_s,
        stats.p50_tpot_s, stats.p95_tpot_s, stats.p99_tpot_s);
    connection.write_response(
        200, "text/plain; version=0.0.4",
        std::string(buffer, static_cast<std::size_t>(n)));
}

void
Frontend::handle_health(Connection& connection)
{
    // Liveness vs readiness: responding at all is liveness; 200 means
    // "route traffic here".  Draining (shutdown began) and saturation
    // (the loop thread is behind and the command channel is full) are
    // both not-ready -- a load balancer should back off before
    // submits start blocking.
    if (!server_.accepting()) {
        connection.write_response(503, "application/json",
                                  "{\"status\":\"draining\"}");
    } else if (!server_.ready()) {
        connection.write_response(503, "application/json",
                                  "{\"status\":\"saturated\"}");
    } else {
        connection.write_response(200, "application/json",
                                  "{\"status\":\"ok\"}");
    }
}

std::string
Frontend::uuid_for(std::uint64_t id) const
{
    const std::uint64_t hi = mix64(uuid_seed_ ^ id);
    const std::uint64_t lo = mix64(hi ^ ~id);
    char buffer[40];
    std::snprintf(
        buffer, sizeof(buffer),
        "%08x-%04x-%04x-%04x-%012llx",
        static_cast<unsigned>(hi >> 32),
        static_cast<unsigned>((hi >> 16) & 0xFFFF),
        static_cast<unsigned>(hi & 0xFFFF),
        static_cast<unsigned>(lo >> 48),
        static_cast<unsigned long long>(lo & 0xFFFFFFFFFFFFULL));
    return buffer;
}

}  // namespace server
}  // namespace mugi
