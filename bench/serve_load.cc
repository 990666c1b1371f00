/**
 * @file
 * Serving load generator: sweep arrival rates into tail-latency
 * curves on the modeled clock, and (--check) gate the push-based
 * serve::Server's HTTP front-end against the in-process scheduler.
 *
 * Rate sweep (always): N analytic Llama-2 70B requests arrive as a
 * Poisson process (seeded, deterministic) at each offered load --
 * fractions of the engine's estimated decode capacity.  Each point
 * submits its whole trace to an in-process serve::Scheduler, then
 * runs it to completion.  Latencies are on the *modeled* clock (the
 * same clock ServerStats reports), so the curves are the same bytes
 * on every run and machine: what moves them is scheduling, not host
 * noise.  (Submitting into a running Server would let its loop
 * thread step the clock past an arrival before the submission
 * lands, and the scheduler stamps a late submission at its current
 * time.)  Output: a p50/p95/p99 TTFT/TPOT table across >= 3 rates,
 * written to BENCH_serve.json for CI.
 *
 * The overload gate (always): the same bounded admission queue at 1x
 * and 2x offered load.  2x must shed (requests_shed > 0) and the p99
 * TTFT of the requests it did admit must stay within 2x of the 1x
 * value -- the bounded queue converts unbounded queueing delay into
 * rejection.
 *
 * --check additionally runs the end-to-end smoke gates:
 *  1. a *functional* eval-scale engine behind server::Frontend on an
 *     ephemeral loopback port; concurrent HTTP clients stream
 *     /v1/generate token deltas;
 *  2. the same request set through a plain single-threaded Scheduler
 *     in process;
 *  3. PASS iff every request's HTTP token stream is bit-identical to
 *     the in-process stream, DELETE semantics hold, and the server's
 *     pool reports zero KV bytes in use after drain (no leaked
 *     blocks);
 *  4. the 429 gate: one batch slot + one queue slot + two concurrent
 *     clients -- exactly one is shed with 429 + Retry-After, the
 *     other completes.  Exit status reflects every gate.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "model/accuracy.h"
#include "model/transformer.h"
#include "model/workload.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "server/frontend.h"
#include "server/http.h"
#include "server/json.h"

using namespace mugi;

namespace {

struct RatePoint {
    double offered_load = 0.0;  ///< Fraction of estimated capacity.
    double rate_req_s = 0.0;    ///< Modeled arrivals per second.
    serve::ServerStats stats;
};

/**
 * One sweep point: @p n requests with exponential inter-arrivals at
 * @p rate_req_s on the modeled clock, all submitted before the
 * scheduler runs.  @p max_queued bounds the admission queue (0 =
 * unbounded, the plain sweep; the overload gate passes a bound so
 * excess arrivals shed instead of queueing without limit).
 */
serve::ServerStats
run_rate(const serve::Engine& engine, double rate_req_s, int n,
         std::size_t max_queued = 0)
{
    serve::SchedulerConfig config;
    config.kv_budget_bytes = units::Bytes(1ull << 30);
    config.prefill_chunk_tokens = units::Tokens(256);
    config.max_queued_requests = max_queued;
    serve::Scheduler scheduler(engine, config);

    // Seeded arrivals: the sweep is deterministic run to run.
    std::mt19937_64 rng(42);
    std::exponential_distribution<double> gap(rate_req_s);
    double arrival_s = 0.0;
    for (int i = 0; i < n; ++i) {
        arrival_s += gap(rng);
        serve::Request request;
        request.analytic_prompt_tokens =
            units::Tokens(256 + 256 * (i % 7));
        request.max_new_tokens = units::Tokens(16 + 4 * (i % 9));
        request.arrival_time_s = arrival_s;
        scheduler.submit(std::move(request));
    }
    scheduler.run();
    return scheduler.stats();
}

/**
 * Capacity estimate: modeled service time of the mean request -- its
 * prefill plus its share of a continuous decode batch.  Prefill
 * dominates at these prompt lengths; ignoring it would put every
 * sweep point past saturation.
 */
double
capacity_req_s(const serve::Engine& engine,
               const model::ModelConfig& model)
{
    const double prefill_s =
        sim::run_workload(
            engine.design(),
            model::build_prefill_workload(model, 1, 1024))
            .runtime_s;
    const double step_s =
        sim::run_workload(
            engine.design(),
            model::build_decode_workload(model, 8, 1024))
            .runtime_s;
    const double mean_gen = 32.0;
    const double service_s = prefill_s + mean_gen * step_s / 8.0;
    return 1.0 / service_s;
}

/** The sweep: offered loads across the knee, >= 3 rates. */
std::vector<RatePoint>
run_sweep(const serve::Engine& engine,
          const model::ModelConfig& model, int n)
{
    const double capacity = capacity_req_s(engine, model);
    std::vector<RatePoint> points;
    for (const double load : {0.25, 0.5, 1.0, 2.0}) {
        RatePoint point;
        point.offered_load = load;
        point.rate_req_s = load * capacity;
        point.stats = run_rate(engine, point.rate_req_s, n);
        points.push_back(point);
    }
    return points;
}

/**
 * Overload-protection gate: the same bounded admission queue at 1x
 * and 2x offered load.  At 2x the server must shed (the queue bound
 * is doing its job) and the p99 TTFT of *admitted* requests -- shed
 * requests never emit a token, so the percentiles exclude them --
 * must stay within 2x of the 1x value: shedding converts unbounded
 * queueing delay into bounded rejection.
 */
struct OverloadGate {
    double p99_ttft_1x_s = 0.0;
    double p99_ttft_2x_s = 0.0;
    std::size_t shed_2x = 0;
    bool pass = false;
};

OverloadGate
run_overload_gate(const serve::Engine& engine,
                  const model::ModelConfig& model, int n)
{
    bench::print_subtitle(
        "overload gate: bounded queue at 1x vs 2x capacity");
    const double capacity = capacity_req_s(engine, model);
    constexpr std::size_t kMaxQueued = 8;
    const serve::ServerStats base =
        run_rate(engine, capacity, n, kMaxQueued);
    const serve::ServerStats overload =
        run_rate(engine, 2.0 * capacity, n, kMaxQueued);

    OverloadGate gate;
    gate.p99_ttft_1x_s = base.p99_ttft_s;
    gate.p99_ttft_2x_s = overload.p99_ttft_s;
    gate.shed_2x = overload.requests_shed;
    const bool tail_bounded =
        overload.p99_ttft_s <= 2.0 * base.p99_ttft_s;
    gate.pass = gate.shed_2x > 0 && tail_bounded;
    if (gate.shed_2x == 0) {
        std::printf(
            "FAIL: 2x offered load shed nothing (queue bound %zu)\n",
            kMaxQueued);
    }
    if (!tail_bounded) {
        std::printf("FAIL: admitted p99 TTFT %.2f s at 2x exceeds "
                    "2x the 1x value %.2f s\n",
                    overload.p99_ttft_s, base.p99_ttft_s);
    }
    std::printf("%s: p99 TTFT %.2f s (1x) -> %.2f s (2x, %zu of %d "
                "shed)\n",
                gate.pass ? "PASS" : "FAIL", gate.p99_ttft_1x_s,
                gate.p99_ttft_2x_s, gate.shed_2x, n);
    return gate;
}

// ---- --check: HTTP front-end vs in-process scheduler -------------

struct CheckRequest {
    std::vector<int> prompt;
    std::size_t max_new_tokens = 0;
};

/** The functional smoke trace both paths run. */
std::vector<CheckRequest>
check_trace(const model::ModelConfig& config)
{
    std::vector<CheckRequest> trace;
    for (int i = 0; i < 6; ++i) {
        CheckRequest r;
        r.prompt = model::synthetic_tokens(
            12 + 5 * (i % 3), config.vocab,
            static_cast<std::uint32_t>(1300 + i));
        r.max_new_tokens = 8 + static_cast<std::size_t>(i);
        trace.push_back(std::move(r));
    }
    return trace;
}

/** Tokens streamed back for one request over HTTP; nullopt on any
 *  protocol failure. */
std::optional<std::vector<int>>
http_generate(std::uint16_t port, const CheckRequest& request)
{
    std::ostringstream body;
    body << "{\"prompt\":[";
    for (std::size_t i = 0; i < request.prompt.size(); ++i) {
        if (i > 0) {
            body << ',';
        }
        body << request.prompt[i];
    }
    body << "],\"max_new_tokens\":" << request.max_new_tokens << "}";

    server::Client client;
    if (!client.connect(port)) {
        return std::nullopt;
    }
    const std::optional<server::HttpResponse> response =
        client.request("POST", "/v1/generate", body.str());
    if (!response || response->status != 200) {
        return std::nullopt;
    }
    // NDJSON: {"id"...}, per-token {"index","token"}, final
    // {"done":true,...}.
    std::vector<int> tokens;
    bool done = false;
    std::istringstream lines(response->body);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty()) {
            continue;
        }
        const std::optional<server::json::Value> value =
            server::json::parse(line);
        if (!value) {
            return std::nullopt;
        }
        if (value->bool_or("done", false)) {
            done = true;
        } else if (value->find("token") != nullptr) {
            tokens.push_back(
                static_cast<int>(value->number_or("token", -1.0)));
        }
    }
    if (!done) {
        return std::nullopt;  // Stream never finished.
    }
    return tokens;
}

/**
 * 429-over-HTTP gate: one batch slot, one queue slot, an in-process
 * blocker pinning the batch, and two concurrent HTTP clients.
 * Exactly one client must be shed with 429 + Retry-After; the other
 * must complete 200 once the blocker is cancelled.
 */
bool
run_http_429_check(const serve::Engine& engine,
                   const model::ModelConfig& config)
{
    bench::print_subtitle("429 gate: bounded queue over HTTP");
    serve::ServerConfig server_config;
    server_config.scheduler.prefill_chunk_tokens = units::Tokens(16);
    server_config.scheduler.max_batch = 1;
    server_config.scheduler.max_queued_requests = 1;
    serve::Server server(engine, server_config);
    server::Frontend frontend(server);
    if (!frontend.bind(0)) {
        std::printf("FAIL: cannot bind a loopback port\n");
        return false;
    }
    std::thread accept_thread([&frontend] { frontend.run(); });

    // The blocker owns the single batch slot; its first delta is the
    // admission barrier the clients race behind.
    serve::Request blocker;
    blocker.prompt = model::synthetic_tokens(12, config.vocab, 4100);
    blocker.max_new_tokens = units::Tokens(512);
    serve::RequestHandle handle = server.submit(std::move(blocker));
    bool pass = handle.next().has_value();
    if (!pass) {
        std::printf("FAIL: blocker produced no first token\n");
    }

    int statuses[2] = {-1, -1};
    bool retry_after[2] = {false, false};
    {
        std::vector<std::thread> clients;
        for (int i = 0; i < 2; ++i) {
            clients.emplace_back([&, i] {
                server::Client client;
                if (!client.connect(frontend.port())) {
                    return;
                }
                std::ostringstream body;
                body << "{\"prompt\":[";
                const std::vector<int> prompt =
                    model::synthetic_tokens(
                        8, config.vocab,
                        static_cast<std::uint32_t>(4200 + i));
                for (std::size_t t = 0; t < prompt.size(); ++t) {
                    if (t > 0) {
                        body << ',';
                    }
                    body << prompt[t];
                }
                body << "],\"max_new_tokens\":4}";
                const std::optional<server::HttpResponse> response =
                    client.request("POST", "/v1/generate",
                                   body.str());
                if (response) {
                    statuses[i] = response->status;
                    retry_after[i] =
                        response->headers.count("retry-after") > 0;
                }
            });
        }
        // The survivor stays queued behind the blocker; release it
        // once the shed is visible in stats (bounded wait -- if the
        // shed never happens the status counts fail the gate below).
        const bench::Timer timer;
        while (server.stats().requests_shed == 0 &&
               timer.seconds() < 30.0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
        handle.cancel();
        handle.wait();
        for (std::thread& t : clients) {
            t.join();
        }
    }
    frontend.stop();
    accept_thread.join();
    const serve::ServerStats stats = server.stats();

    int ok = 0;
    int shed = 0;
    bool shed_has_retry_after = true;
    for (int i = 0; i < 2; ++i) {
        if (statuses[i] == 200) {
            ++ok;
        } else if (statuses[i] == 429) {
            ++shed;
            shed_has_retry_after =
                shed_has_retry_after && retry_after[i];
        }
    }
    if (ok != 1 || shed != 1) {
        std::printf("FAIL: expected one 200 and one 429, got %d and "
                    "%d (statuses %d, %d)\n",
                    ok, shed, statuses[0], statuses[1]);
        pass = false;
    }
    if (!shed_has_retry_after) {
        std::printf("FAIL: the 429 carried no Retry-After header\n");
        pass = false;
    }
    if (stats.kv_bytes_in_use != units::Bytes(0)) {
        std::printf("FAIL: %zu KV bytes still in use after drain\n",
                    stats.kv_bytes_in_use.value());
        pass = false;
    }
    std::printf("%s: one admitted (200), %zu shed over HTTP (429%s), "
                "kv_bytes_in_use=%zu\n",
                pass ? "PASS" : "FAIL", stats.requests_shed,
                shed_has_retry_after ? " + Retry-After" : "",
                stats.kv_bytes_in_use.value());
    return pass;
}

/** The --check gate; returns true on PASS. */
bool
run_check()
{
    bench::print_title(
        "serve_load --check: HTTP vs in-process bit-identity");
    const model::ModelConfig config =
        model::llama2_7b().scaled_for_eval(4, 128, 512);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 11);
    const serve::Engine engine(sim::make_mugi(256), transformer);
    const std::vector<CheckRequest> trace = check_trace(config);

    // Reference: the single-threaded in-process scheduler.
    serve::SchedulerConfig sched_config;
    sched_config.prefill_chunk_tokens = units::Tokens(16);
    serve::Scheduler reference(engine, sched_config);
    std::vector<std::uint64_t> ids;
    for (const CheckRequest& r : trace) {
        serve::Request request;
        request.prompt = r.prompt;
        request.max_new_tokens = units::Tokens(r.max_new_tokens);
        ids.push_back(reference.submit(request));
    }
    std::vector<std::vector<int>> expected(trace.size());
    for (const serve::FinishedRequest& f : reference.run()) {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (ids[i] == f.id) {
                expected[i] = f.tokens;
            }
        }
    }

    // Device under test: the threaded server behind HTTP.
    serve::ServerConfig server_config;
    server_config.scheduler = sched_config;
    serve::Server server(engine, server_config);
    server::Frontend frontend(server);
    if (!frontend.bind(0)) {
        std::printf("FAIL: cannot bind a loopback port\n");
        return false;
    }
    std::thread accept_thread([&frontend] { frontend.run(); });

    std::vector<std::optional<std::vector<int>>> streamed(
        trace.size());
    {
        // Concurrent clients: submission order races, token streams
        // must not care.
        std::vector<std::thread> clients;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            clients.emplace_back([&, i] {
                streamed[i] =
                    http_generate(frontend.port(), trace[i]);
            });
        }
        for (std::thread& t : clients) {
            t.join();
        }
    }

    // DELETE on an unknown id must 404 (cancel routing sanity).
    bool delete_404 = false;
    {
        server::Client client;
        if (client.connect(frontend.port())) {
            const auto response = client.request(
                "DELETE", "/v1/generate/not-a-request");
            delete_404 = response && response->status == 404;
        }
    }

    frontend.stop();
    accept_thread.join();
    const serve::ServerStats stats = server.stats();

    bool pass = true;
    std::size_t checked_tokens = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (!streamed[i]) {
            std::printf("FAIL: request %zu: HTTP stream failed\n", i);
            pass = false;
            continue;
        }
        if (*streamed[i] != expected[i]) {
            std::printf(
                "FAIL: request %zu: %zu streamed tokens != %zu "
                "reference tokens\n",
                i, streamed[i]->size(), expected[i].size());
            pass = false;
        }
        checked_tokens += expected[i].size();
    }
    if (!delete_404) {
        std::printf("FAIL: DELETE of an unknown id did not 404\n");
        pass = false;
    }
    if (stats.kv_bytes_in_use != units::Bytes(0)) {
        std::printf("FAIL: %zu KV bytes still in use after drain\n",
                    stats.kv_bytes_in_use.value());
        pass = false;
    }
    if (stats.finished != trace.size()) {
        std::printf("FAIL: server finished %zu of %zu requests\n",
                    stats.finished, trace.size());
        pass = false;
    }
    std::printf(
        "%s: %zu requests over HTTP, %zu tokens bit-identical to "
        "in-process, kv_bytes_in_use=%zu\n",
        pass ? "PASS" : "FAIL", trace.size(), checked_tokens,
        stats.kv_bytes_in_use.value());
    return run_http_429_check(engine, config) && pass;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool check = false;
    int n = 48;
    const char* json_path = "BENCH_serve.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else if (std::strcmp(argv[i], "--requests") == 0 &&
                   i + 1 < argc) {
            n = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            json_path = argv[++i];
        }
    }

    bench::print_title(
        "serve_load: arrival-rate sweep (modeled clock)");
    const model::ModelConfig model = model::llama2_70b();
    const serve::Engine engine(sim::make_mugi(256), model);
    const std::vector<RatePoint> points =
        run_sweep(engine, model, n);

    bench::print_header("load (x capacity)",
                        {"req/s", "p50ttft", "p99ttft", "p50tpot",
                         "p99tpot", "preempt"});
    bench::Json series = bench::Json::array();
    bool leak_free = true;
    for (const RatePoint& point : points) {
        const serve::ServerStats& s = point.stats;
        std::ostringstream label;
        label.precision(2);
        label << std::fixed << point.offered_load << "x";
        bench::print_row(label.str(),
                         {point.rate_req_s, s.p50_ttft_s,
                          s.p99_ttft_s, s.p50_tpot_s, s.p99_tpot_s,
                          static_cast<double>(s.preemptions)},
                         "%9.3g");
        leak_free =
            leak_free && s.kv_bytes_in_use == units::Bytes(0);
        series.push(
            bench::Json::object()
                .set("offered_load", point.offered_load)
                .set("rate_req_s", point.rate_req_s)
                .set("requests", s.finished)
                .set("p50_ttft_s", s.p50_ttft_s)
                .set("p95_ttft_s", s.p95_ttft_s)
                .set("p99_ttft_s", s.p99_ttft_s)
                .set("mean_ttft_s", s.mean_ttft_s)
                .set("p50_tpot_s", s.p50_tpot_s)
                .set("p95_tpot_s", s.p95_tpot_s)
                .set("p99_tpot_s", s.p99_tpot_s)
                .set("mean_tpot_s", s.mean_tpot_s)
                .set("mean_queue_s", s.mean_queue_s)
                .set("preemptions", s.preemptions)
                .set("kv_bytes_in_use", s.kv_bytes_in_use.value()));
    }
    if (!leak_free) {
        std::printf(
            "FAIL: a sweep point left KV bytes in use after drain\n");
    }

    const OverloadGate gate = run_overload_gate(engine, model, n);

    bool check_pass = true;
    if (check) {
        check_pass = run_check();
    }

    bench::Json out = bench::Json::object();
    out.set("bench", "serve_load")
        .set("model", model.name)
        .set("requests_per_rate", n)
        .set("rates", std::move(series))
        .set("leak_free", leak_free)
        .set("overload_gate",
             bench::Json::object()
                 .set("p99_ttft_1x_s", gate.p99_ttft_1x_s)
                 .set("p99_ttft_2x_s", gate.p99_ttft_2x_s)
                 .set("shed_2x", gate.shed_2x)
                 .set("pass", gate.pass))
        .set("check_run", check)
        .set("check_pass", check_pass);
    out.write_file(json_path);
    std::printf("\nwrote %s\n", json_path);
    return leak_free && gate.pass && check_pass ? 0 : 1;
}
