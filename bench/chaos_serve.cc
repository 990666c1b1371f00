/**
 * @file
 * Chaos gate for the serving stack: replay a Poisson trace through
 * the full HTTP front-end while a seeded fault schedule fires at the
 * stack's named fault sites (support/fault.h), and hard-gate that the
 * system degrades without corrupting.
 *
 * Per seed (default seeds 1, 2, 3; add more with repeated --seed):
 *
 *  1. arm a FaultPlan over block_pool.allocate, channel.push,
 *     http.write, http.write.short and loop.step_delay;
 *  2. drive every trace request through POST /v1/generate from its
 *     own client thread, bounded by a wall-clock watchdog (a hang is
 *     a failure, not a wait);
 *  3. classify each outcome: completed stream, shed (429 with a
 *     Retry-After header), or broken mid-stream by an injected write
 *     fault;
 *  4. gate: (a) kv_bytes_in_use == 0 after drain, (b)
 *     Server::check_invariants() comes back clean, (c) every request
 *     that completed normally streamed tokens bit-identical to the
 *     fault-free in-process baseline, (d) the plan actually fired
 *     (faults_injected > 0) -- a chaos run that injected nothing
 *     proves nothing.
 *
 * --check additionally runs the negative control: a deliberately
 * broken release path (the block_pool.leak_release site, compiled
 * into BlockPool::release for exactly this bench) must make the gate
 * FAIL -- leaked bytes or a dirty invariant report.  A gate that
 * cannot detect a planted leak is decoration.  (Skipped under
 * MUGI_AUDIT_INVARIANTS builds, where the scheduler's own mid-step
 * audit aborts before the gate can observe the corruption.)
 *
 * Output: BENCH_chaos.json (per-seed outcome counts and gate bits).
 * Exit status reflects every gate across every seed.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "model/accuracy.h"
#include "model/transformer.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "server/frontend.h"
#include "server/http.h"
#include "server/json.h"
#include "support/audit.h"
#include "support/fault.h"

using namespace mugi;

namespace {

/** Wall-clock bound on one chaos round: past this, the run is hung
 *  and the watchdog hard-exits (a join that never returns would
 *  otherwise turn a deadlock bug into a silent CI timeout). */
constexpr double kWatchdogS = 120.0;

struct TraceRequest {
    std::vector<int> prompt;
    std::size_t max_new_tokens = 0;
    double arrival_s = 0.0;
};

/** The seeded Poisson trace every round (and the baseline) replays. */
std::vector<TraceRequest>
make_trace(const model::ModelConfig& config, int n)
{
    std::mt19937_64 rng(7);
    std::exponential_distribution<double> gap(8.0);
    double arrival_s = 0.0;
    std::vector<TraceRequest> trace;
    for (int i = 0; i < n; ++i) {
        arrival_s += gap(rng);
        TraceRequest r;
        r.prompt = model::synthetic_tokens(
            10 + 7 * (i % 4), config.vocab,
            static_cast<std::uint32_t>(2100 + i));
        r.max_new_tokens = 6 + static_cast<std::size_t>(i % 9);
        r.arrival_s = arrival_s;
        trace.push_back(std::move(r));
    }
    return trace;
}

/** Fault-free reference streams, one per trace index, from the
 *  single-threaded in-process scheduler. */
std::vector<std::vector<int>>
baseline_streams(const serve::Engine& engine,
                 const std::vector<TraceRequest>& trace)
{
    serve::SchedulerConfig config;
    config.prefill_chunk_tokens = units::Tokens(16);
    serve::Scheduler scheduler(engine, config);
    std::vector<std::uint64_t> ids;
    for (const TraceRequest& r : trace) {
        serve::Request request;
        request.prompt = r.prompt;
        request.max_new_tokens = units::Tokens(r.max_new_tokens);
        ids.push_back(scheduler.submit(request));
    }
    std::vector<std::vector<int>> expected(trace.size());
    for (const serve::FinishedRequest& f : scheduler.run()) {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (ids[i] == f.id) {
                expected[i] = f.tokens;
            }
        }
    }
    return expected;
}

/** What one HTTP client observed for its request. */
struct Outcome {
    enum Kind {
        kCompleted,  ///< 200, stream reached its done line.
        kShed,       ///< 429 (overload surface, not a failure).
        kBroken,     ///< Connection or stream died mid-flight.
    };
    Kind kind = kBroken;
    /** Done-line reason ("max_tokens", ...) when kCompleted. */
    std::string reason;
    std::vector<int> tokens;
    /** 429 responses must carry Retry-After; tracked per client. */
    bool retry_after_present = false;
};

/** Drive one request over HTTP and classify the result. */
Outcome
http_generate(std::uint16_t port, const TraceRequest& request)
{
    Outcome outcome;
    std::ostringstream body;
    body << "{\"prompt\":[";
    for (std::size_t i = 0; i < request.prompt.size(); ++i) {
        if (i > 0) {
            body << ',';
        }
        body << request.prompt[i];
    }
    body << "],\"max_new_tokens\":" << request.max_new_tokens
         << ",\"arrival_time_s\":" << request.arrival_s << "}";

    server::Client client;
    if (!client.connect(port)) {
        return outcome;  // kBroken.
    }
    const std::optional<server::HttpResponse> response =
        client.request("POST", "/v1/generate", body.str());
    if (!response) {
        return outcome;  // Injected write fault killed the stream.
    }
    if (response->status == 429) {
        outcome.kind = Outcome::kShed;
        outcome.retry_after_present =
            response->headers.count("retry-after") > 0;
        return outcome;
    }
    if (response->status != 200) {
        return outcome;
    }
    std::istringstream lines(response->body);
    std::string line;
    bool done = false;
    while (std::getline(lines, line)) {
        if (line.empty()) {
            continue;
        }
        const std::optional<server::json::Value> value =
            server::json::parse(line);
        if (!value) {
            return outcome;  // Truncated by a mid-stream fault.
        }
        if (value->bool_or("done", false)) {
            done = true;
            if (const server::json::Value* reason =
                    value->find("reason")) {
                outcome.reason = reason->string;
            }
        } else if (value->find("token") != nullptr) {
            outcome.tokens.push_back(
                static_cast<int>(value->number_or("token", -1.0)));
        }
    }
    if (!done) {
        return outcome;  // Stream never finished: kBroken.
    }
    outcome.kind = Outcome::kCompleted;
    return outcome;
}

struct RoundResult {
    std::uint64_t seed = 0;
    std::size_t completed = 0;
    std::size_t shed = 0;
    std::size_t broken = 0;
    std::size_t faults_injected = 0;
    std::size_t fault_evaluations = 0;
    bool leak_free = false;
    bool invariants_clean = false;
    bool streams_identical = false;
    bool faults_fired = false;

    bool
    pass() const
    {
        return leak_free && invariants_clean && streams_identical &&
               faults_fired;
    }
};

/** One chaos round: the trace over HTTP under @p seed's schedule. */
RoundResult
run_round(const serve::Engine& engine,
          const std::vector<TraceRequest>& trace,
          const std::vector<std::vector<int>>& expected,
          std::uint64_t seed)
{
    RoundResult result;
    result.seed = seed;

    support::FaultPlan plan;
    plan.seed = seed;
    plan.sites = {
        {"block_pool.allocate", 0.15, 40},
        {"channel.push", 0.08, 3},
        {"http.write", 0.04, 4},
        {"http.write.short", 0.25, 200},
        {"loop.step_delay", 0.10, 30},
    };
    support::ScopedFaultPlan armed(plan);

    // The queue stays unbounded here: sheds must come from injected
    // channel.push faults, not capacity, so the fault-free baseline
    // and the survivors stay comparable.
    serve::ServerConfig config;
    config.scheduler.prefill_chunk_tokens = units::Tokens(16);
    serve::Server server(engine, config);
    server::Frontend frontend(server);
    if (!frontend.bind(0)) {
        std::printf("FAIL: seed %llu: cannot bind a loopback port\n",
                    static_cast<unsigned long long>(seed));
        return result;
    }
    std::thread accept_thread([&frontend] { frontend.run(); });

    // Watchdog: any hang (lost wakeup, stuck join) ends the process
    // with a distinct status instead of wedging CI.
    std::atomic<bool> round_done{false};
    std::thread watchdog([&round_done] {
        const bench::Timer timer;
        while (!round_done.load()) {
            if (timer.seconds() > kWatchdogS) {
                std::fprintf(stderr,
                             "FAIL: chaos round hung past %.0f s; "
                             "aborting\n",
                             kWatchdogS);
                std::fflush(stderr);
                std::_Exit(3);
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
    });

    std::vector<Outcome> outcomes(trace.size());
    {
        std::vector<std::thread> clients;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            clients.emplace_back([&, i] {
                outcomes[i] =
                    http_generate(frontend.port(), trace[i]);
            });
        }
        for (std::thread& t : clients) {
            t.join();
        }
    }

    frontend.stop();
    accept_thread.join();

    // Read the gates while the plan is still armed: stats() folds in
    // FaultInjector::fires(), which disarm resets.
    const serve::ServerStats stats = server.stats();
    const std::string invariants = server.check_invariants();
    result.faults_injected = stats.faults_injected;
    result.fault_evaluations =
        support::FaultInjector::instance().evaluations();

    round_done.store(true);
    watchdog.join();

    result.leak_free = stats.kv_bytes_in_use == units::Bytes(0);
    result.invariants_clean = invariants.empty();
    result.faults_fired = result.faults_injected > 0;
    result.streams_identical = true;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Outcome& outcome = outcomes[i];
        switch (outcome.kind) {
        case Outcome::kCompleted:
            ++result.completed;
            // A request the faults never touched must be bit-exact;
            // shed/cancel reasons never reach here (429 path).
            if ((outcome.reason == "max_tokens" ||
                 outcome.reason == "stop_token") &&
                outcome.tokens != expected[i]) {
                std::printf(
                    "FAIL: seed %llu: request %zu completed with "
                    "%zu tokens != %zu baseline tokens\n",
                    static_cast<unsigned long long>(seed), i,
                    outcome.tokens.size(), expected[i].size());
                result.streams_identical = false;
            }
            break;
        case Outcome::kShed:
            ++result.shed;
            if (!outcome.retry_after_present) {
                std::printf("FAIL: seed %llu: request %zu got 429 "
                            "without Retry-After\n",
                            static_cast<unsigned long long>(seed),
                            i);
                result.streams_identical = false;
            }
            break;
        case Outcome::kBroken:
            ++result.broken;
            break;
        }
    }

    if (!result.leak_free) {
        std::printf("FAIL: seed %llu: %zu KV bytes in use after "
                    "drain\n",
                    static_cast<unsigned long long>(seed),
                    stats.kv_bytes_in_use.value());
    }
    if (!result.invariants_clean) {
        std::printf("FAIL: seed %llu: invariants: %s\n",
                    static_cast<unsigned long long>(seed),
                    invariants.c_str());
    }
    if (!result.faults_fired) {
        std::printf("FAIL: seed %llu: schedule never fired (%zu "
                    "evaluations)\n",
                    static_cast<unsigned long long>(seed),
                    result.fault_evaluations);
    }
    std::printf("%s: seed %llu: %zu completed / %zu shed / %zu "
                "broken, %zu faults over %zu evaluations, kv=%zu\n",
                result.pass() ? "PASS" : "FAIL",
                static_cast<unsigned long long>(seed),
                result.completed, result.shed, result.broken,
                result.faults_injected, result.fault_evaluations,
                stats.kv_bytes_in_use.value());
    return result;
}

#if !MUGI_AUDIT_INVARIANTS
/**
 * Negative control: force the planted-broken release path (the
 * block_pool.leak_release site skips exactly one BlockPool::release)
 * and require the gate to DETECT it.  Returns true when the leak was
 * caught -- kv bytes left in use or a dirty invariant report.
 */
bool
run_negative_control(const serve::Engine& engine,
                     const model::ModelConfig& config)
{
    bench::print_subtitle(
        "negative control: planted leak must fail the gate");
    support::FaultPlan plan;
    plan.seed = 99;
    plan.sites = {{"block_pool.leak_release", 1.0, 1}};
    support::ScopedFaultPlan armed(plan);

    // Functional requests, like the chaos rounds': every session's
    // blocks return through BlockPool::release -- the seam the
    // planted leak corrupts.
    serve::SchedulerConfig sched_config;
    sched_config.prefill_chunk_tokens = units::Tokens(16);
    serve::Scheduler scheduler(engine, sched_config);
    for (int i = 0; i < 2; ++i) {
        serve::Request request;
        request.prompt = model::synthetic_tokens(
            12, config.vocab, static_cast<std::uint32_t>(3200 + i));
        request.max_new_tokens = units::Tokens(6);
        scheduler.submit(request);
    }
    scheduler.run();

    const serve::ServerStats stats = scheduler.stats();
    const std::string invariants = scheduler.check_invariants();
    const bool detected =
        stats.kv_bytes_in_use != units::Bytes(0) ||
        !invariants.empty();
    std::printf("%s: planted leak %s (kv=%zu, invariants: %s)\n",
                detected ? "PASS" : "FAIL",
                detected ? "detected" : "NOT detected",
                stats.kv_bytes_in_use.value(),
                invariants.empty() ? "clean" : invariants.c_str());
    return detected;
}
#endif  // !MUGI_AUDIT_INVARIANTS

}  // namespace

int
main(int argc, char** argv)
{
    bool check = false;
    int n = 12;
    const char* json_path = "BENCH_chaos.json";
    std::vector<std::uint64_t> seeds;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else if (std::strcmp(argv[i], "--seed") == 0 &&
                   i + 1 < argc) {
            seeds.push_back(static_cast<std::uint64_t>(
                std::atoll(argv[++i])));
        } else if (std::strcmp(argv[i], "--requests") == 0 &&
                   i + 1 < argc) {
            n = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--check] [--seed N]... "
                         "[--requests N] [--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    if (seeds.empty()) {
        seeds = {1, 2, 3};
    }

    bench::print_title(
        "chaos_serve: seeded faults through the HTTP stack");
    const model::ModelConfig config =
        model::llama2_7b().scaled_for_eval(4, 128, 512);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 11);
    const serve::Engine engine(sim::make_mugi(256), transformer);
    const std::vector<TraceRequest> trace = make_trace(config, n);
    const std::vector<std::vector<int>> expected =
        baseline_streams(engine, trace);

    bool pass = true;
    bench::Json rounds = bench::Json::array();
    for (const std::uint64_t seed : seeds) {
        const RoundResult r = run_round(engine, trace, expected, seed);
        pass = pass && r.pass();
        rounds.push(bench::Json::object()
                        .set("seed", r.seed)
                        .set("completed", r.completed)
                        .set("shed", r.shed)
                        .set("broken", r.broken)
                        .set("faults_injected", r.faults_injected)
                        .set("fault_evaluations",
                             r.fault_evaluations)
                        .set("leak_free", r.leak_free)
                        .set("invariants_clean", r.invariants_clean)
                        .set("streams_identical",
                             r.streams_identical)
                        .set("pass", r.pass()));
    }

    bool negative_run = false;
    bool negative_pass = true;
    if (check) {
#if MUGI_AUDIT_INVARIANTS
        // The automatic mid-step audit aborts on the planted leak
        // before the gate could observe it -- which is its own kind
        // of detection, but not this bench's to assert.
        std::printf("negative control skipped: "
                    "MUGI_AUDIT_INVARIANTS build\n");
#else
        negative_run = true;
        negative_pass = run_negative_control(engine, config);
        pass = pass && negative_pass;
#endif
    }

    bench::Json out = bench::Json::object();
    out.set("bench", "chaos_serve")
        .set("model", config.name)
        .set("requests", static_cast<std::uint64_t>(n))
        .set("rounds", std::move(rounds))
        .set("negative_control_run", negative_run)
        .set("negative_control_pass", negative_pass)
        .set("pass", pass);
    out.write_file(json_path);
    std::printf("\nwrote %s\n", json_path);
    return pass ? 0 : 1;
}
