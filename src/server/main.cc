/**
 * @file
 * mugi_server: the HTTP serving binary.
 *
 * Wires an Engine (analytic Llama-2 70B on the Mugi design by
 * default; --functional swaps in the eval-scale transformer with
 * real tokens) into serve::Server's threaded loop and serves the
 * front-end routes on 127.0.0.1.
 *
 *   ./build/mugi_server [--port N] [--threads N|auto]
 *                       [--kv-budget-mb N] [--max-queued N]
 *                       [--admission-timeout-s X] [--functional]
 *
 * Numeric values parse strictly: whole numbers in range (port
 * 0-65535; threads "auto" or up to SchedulerConfig::kMaxAutoThreads)
 * and a finite timeout >= 0.  Anything else prints the usage line
 * and exits 2.
 *
 * SIGINT/SIGTERM drain gracefully: the listener closes, in-flight
 * requests run to completion, streams end normally, then the
 * process exits with a final stats line.
 *
 * Thread-safety note (contract for this translation unit): main owns
 * the Frontend and Server; the signal handler only stores one
 * lock-free atomic flag that the main thread polls.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string_view>
#include <thread>

#include "model/accuracy.h"
#include "model/transformer.h"
#include "serve/server.h"
#include "server/frontend.h"
#include "support/parse.h"

using namespace mugi;

namespace {

std::atomic<int> g_signal{0};

void
on_signal(int sig)
{
    g_signal.store(sig);
}

}  // namespace

int
main(int argc, char** argv)
{
    std::uint16_t port = 8080;
    std::size_t threads = 0;
    std::size_t kv_budget_mb = 1024;
    std::size_t max_queued = 0;
    double admission_timeout_s = 0.0;
    bool functional = false;
    // Stores a parsed value; false when parsing refused the text.
    const auto set = [](auto& target, const auto& parsed) {
        target = parsed.value_or(target);
        return parsed.has_value();
    };
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (flag == "--functional") {
            functional = true;
            continue;
        }
        const char* value = i + 1 < argc ? argv[++i] : "";
        bool ok = false;
        if (flag == "--port") {
            ok = set(port, support::parse_number<std::uint16_t>(
                               value, 0, 65535));
        } else if (flag == "--threads") {
            ok = set(threads, serve::threads_flag(value));
        } else if (flag == "--kv-budget-mb") {
            // The budget is kv_budget_mb << 20 bytes.
            ok = set(kv_budget_mb,
                     support::parse_number<std::size_t>(
                         value, 0, SIZE_MAX >> 20));
        } else if (flag == "--max-queued") {
            ok = set(max_queued, support::parse_number<std::size_t>(
                                     value, 0, SIZE_MAX));
        } else if (flag == "--admission-timeout-s") {
            ok = set(admission_timeout_s,
                     support::parse_number(value, 0.0, DBL_MAX));
        }
        if (!ok) {
            std::fprintf(stderr,
                         "usage: %s [--port N] [--threads N|auto] "
                         "[--kv-budget-mb N] [--max-queued N] "
                         "[--admission-timeout-s X] [--functional]\n",
                         argv[0]);
            return 2;
        }
    }

    // A stalled or vanished client must surface as a failed write on
    // its own connection thread, never as a process-killing SIGPIPE
    // (sends also pass MSG_NOSIGNAL; this covers any other fd).
    struct sigaction ignore_pipe {};
    ignore_pipe.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &ignore_pipe, nullptr);

    // The engine: analytic Llama-2 70B serving by default, or the
    // eval-scale functional transformer (real tokens) on demand.
    std::unique_ptr<serve::Engine> engine;
    if (functional) {
        const model::ModelConfig config =
            model::llama2_7b().scaled_for_eval(4, 128, 512);
        auto transformer =
            std::make_shared<model::TransformerModel>(config, 11);
        engine = std::make_unique<serve::Engine>(sim::make_mugi(256),
                                                 transformer);
    } else {
        engine = std::make_unique<serve::Engine>(
            sim::make_mugi(256), model::llama2_70b());
    }

    serve::ServerConfig config;
    config.scheduler.kv_budget_bytes =
        units::Bytes(kv_budget_mb << 20);
    config.scheduler.prefill_chunk_tokens =
        units::Tokens(functional ? 16 : 256);
    config.scheduler.step_threads = threads;
    config.scheduler.max_queued_requests = max_queued;
    config.scheduler.admission_timeout_s = admission_timeout_s;
    serve::Server server(*engine, config);
    server::Frontend frontend(server);
    if (!frontend.bind(port)) {
        std::fprintf(stderr, "mugi_server: cannot bind port %u\n",
                     port);
        return 1;
    }

    struct sigaction action {};
    action.sa_handler = on_signal;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);

    std::printf("mugi_server: %s engine on 127.0.0.1:%u "
                "(POST /v1/generate, DELETE /v1/generate/<id>, "
                "/metrics, /healthz)\n",
                functional ? "functional" : "analytic",
                frontend.port());
    std::fflush(stdout);

    std::thread accept_thread([&frontend] { frontend.run(); });
    while (g_signal.load() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf("mugi_server: signal %d, draining\n",
                g_signal.load());
    std::fflush(stdout);
    frontend.stop();
    accept_thread.join();

    const serve::ServerStats stats = server.stats();
    std::printf("mugi_server: served %zu requests (%zu cancelled, "
                "%zu expired, %zu shed, %zu admission timeouts, "
                "%zu slow-client cancels), %zu tokens, "
                "kv in use %zu bytes\n",
                stats.finished, stats.cancelled, stats.expired,
                stats.requests_shed, stats.admission_timeouts,
                stats.slow_client_cancels,
                stats.generated_tokens.value(),
                stats.kv_bytes_in_use.value());
    return 0;
}
