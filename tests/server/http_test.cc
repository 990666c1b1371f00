/**
 * @file
 * Contract of the sockets-only HTTP front-end layer: the JSON
 * grammar round-trips, Listener/Connection/Client speak HTTP/1.1
 * (including chunked streaming) over loopback, and server::Frontend
 * routes generate/cancel/metrics/health correctly -- with a real
 * mid-stream DELETE driven over a raw socket, gated on zero KV bytes
 * left behind.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/accuracy.h"
#include "model/transformer.h"
#include "serve/server.h"
#include "server/frontend.h"
#include "server/http.h"
#include "server/json.h"
#include "support/fault.h"

namespace mugi {
namespace server {
namespace {

// ---- JSON grammar. ----

TEST(Json, ParsesTheServingRequestShape)
{
    const std::optional<json::Value> v = json::parse(
        "{\"prompt\":[3,1,4],\"max_new_tokens\":8,"
        "\"stream\":false,\"note\":\"a \\\"b\\\" \\n c\"}");
    ASSERT_TRUE(v.has_value());
    ASSERT_TRUE(v->is_object());
    const json::Value* prompt = v->find("prompt");
    ASSERT_NE(prompt, nullptr);
    ASSERT_TRUE(prompt->is_array());
    ASSERT_EQ(prompt->array.size(), 3u);
    EXPECT_EQ(prompt->array[1].number, 1.0);
    EXPECT_EQ(v->number_or("max_new_tokens", 0.0), 8.0);
    EXPECT_FALSE(v->bool_or("stream", true));
    EXPECT_EQ(v->find("note")->string, "a \"b\" \n c");
    // Absent / mistyped members fall back.
    EXPECT_EQ(v->number_or("missing", -1.0), -1.0);
    EXPECT_TRUE(v->bool_or("prompt", true));
}

TEST(Json, RoundTripsThroughDump)
{
    const std::string text =
        "{\"a\":[1,2.5,-3],\"b\":{\"c\":true,\"d\":null},"
        "\"e\":\"x\\\"y\\\\z\"}";
    const std::optional<json::Value> v = json::parse(text);
    ASSERT_TRUE(v.has_value());
    // dump() then parse() again: identical structure.
    const std::optional<json::Value> again =
        json::parse(json::dump(*v));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(json::dump(*v), json::dump(*again));
    // Integral numbers print without a decimal point.
    EXPECT_NE(json::dump(*v).find("\"a\":[1,2.5,-3]"),
              std::string::npos);
}

TEST(Json, RejectsMalformedDocuments)
{
    EXPECT_FALSE(json::parse("{").has_value());
    EXPECT_FALSE(json::parse("{\"a\":}").has_value());
    EXPECT_FALSE(json::parse("[1,]").has_value());
    EXPECT_FALSE(json::parse("{} trailing").has_value());
    EXPECT_FALSE(json::parse("\"unterminated").has_value());
    EXPECT_FALSE(json::parse("nul").has_value());
    // Depth bomb: past the recursion cap, not a crash.
    EXPECT_FALSE(
        json::parse(std::string(64, '[') + std::string(64, ']'))
            .has_value());
}

TEST(Json, ObjectWriterEscapes)
{
    json::ObjectWriter w;
    w.field("s", std::string("a\"b"))
        .field_int("n", -7)
        .field_bool("t", true)
        .field_raw("arr", "[1,2]");
    const std::optional<json::Value> v = json::parse(w.str());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->find("s")->string, "a\"b");
    EXPECT_EQ(v->number_or("n", 0.0), -7.0);
    EXPECT_TRUE(v->bool_or("t", false));
    EXPECT_EQ(v->find("arr")->array.size(), 2u);
}

// ---- Listener / Connection / Client over loopback. ----

TEST(Http, FixedResponseRoundTrip)
{
    Listener listener;
    ASSERT_TRUE(listener.bind_and_listen(0));
    ASSERT_GT(listener.port(), 0);

    std::thread serverThread([&listener] {
        const int fd = listener.accept_fd(5000);
        ASSERT_GE(fd, 0);
        Connection connection(fd);
        HttpRequest request;
        ASSERT_TRUE(connection.read_request(&request));
        EXPECT_EQ(request.method, "POST");
        EXPECT_EQ(request.target, "/echo");
        EXPECT_EQ(request.body, "hello");
        // Header keys arrive lower-cased.
        EXPECT_EQ(request.headers.count("content-length"), 1u);
        connection.write_response(200, "text/plain",
                                  "echo:" + request.body);
    });

    Client client;
    ASSERT_TRUE(client.connect(listener.port()));
    const std::optional<HttpResponse> response =
        client.request("POST", "/echo", "hello");
    serverThread.join();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->body, "echo:hello");
}

TEST(Http, ChunkedResponseIsReassembled)
{
    Listener listener;
    ASSERT_TRUE(listener.bind_and_listen(0));
    std::thread serverThread([&listener] {
        const int fd = listener.accept_fd(5000);
        ASSERT_GE(fd, 0);
        Connection connection(fd);
        HttpRequest request;
        ASSERT_TRUE(connection.read_request(&request));
        ASSERT_TRUE(connection.begin_chunked(200, "text/plain"));
        ASSERT_TRUE(connection.write_chunk("one "));
        ASSERT_TRUE(connection.write_chunk(""));  // No-op, not EOF.
        ASSERT_TRUE(connection.write_chunk("two three"));
        ASSERT_TRUE(connection.end_chunked());
    });

    Client client;
    ASSERT_TRUE(client.connect(listener.port()));
    const std::optional<HttpResponse> response =
        client.request("GET", "/stream");
    serverThread.join();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->body, "one two three");
}

TEST(Http, AcceptTimesOutAndClosedListenerRefuses)
{
    Listener listener;
    ASSERT_TRUE(listener.bind_and_listen(0));
    // No pending connection: the poll timeout bounds the wait (this
    // is what lets the accept loop observe a shutdown flag).
    EXPECT_LT(listener.accept_fd(10), 0);
    listener.close();
    listener.close();  // Idempotent.
    EXPECT_LT(listener.accept_fd(10), 0);  // Closed stays closed.
}

// ---- Frontend routes over a live functional server. ----

/** Frontend + functional server on an ephemeral port. */
class FrontendTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        config_ = model::llama2_7b().scaled_for_eval(2, 32, 64);
        transformer_ =
            std::make_shared<model::TransformerModel>(config_, 99);
        engine_ = std::make_unique<serve::Engine>(sim::make_mugi(64),
                                                  transformer_);
        serve::ServerConfig server_config;
        server_config.scheduler.prefill_chunk_tokens =
            units::Tokens(8);
        server_ = std::make_unique<serve::Server>(*engine_,
                                                  server_config);
        frontend_ = std::make_unique<Frontend>(*server_);
        ASSERT_TRUE(frontend_->bind(0));
        accept_thread_ =
            std::thread([this] { frontend_->run(); });
    }

    void
    TearDown() override
    {
        frontend_->stop();
        accept_thread_.join();
        // The non-negotiable exit condition of every route test.
        EXPECT_EQ(server_->stats().kv_bytes_in_use,
                  units::Bytes(0));
    }

    std::optional<HttpResponse>
    roundtrip(const std::string& method, const std::string& target,
              const std::string& body = "")
    {
        Client client;
        if (!client.connect(frontend_->port())) {
            return std::nullopt;
        }
        return client.request(method, target, body);
    }

    std::string
    prompt_json(std::size_t len, std::uint32_t seed,
                const std::string& extra) const
    {
        const std::vector<int> prompt =
            model::synthetic_tokens(len, config_.vocab, seed);
        std::ostringstream body;
        body << "{\"prompt\":[";
        for (std::size_t i = 0; i < prompt.size(); ++i) {
            body << (i ? "," : "") << prompt[i];
        }
        body << "]" << extra << "}";
        return body.str();
    }

    model::ModelConfig config_;
    std::shared_ptr<model::TransformerModel> transformer_;
    std::unique_ptr<serve::Engine> engine_;
    std::unique_ptr<serve::Server> server_;
    std::unique_ptr<Frontend> frontend_;
    std::thread accept_thread_;
};

TEST_F(FrontendTest, HealthzAndUnknownRoute)
{
    const std::optional<HttpResponse> health =
        roundtrip("GET", "/healthz");
    ASSERT_TRUE(health.has_value());
    EXPECT_EQ(health->status, 200);
    const std::optional<HttpResponse> missing =
        roundtrip("GET", "/nope");
    ASSERT_TRUE(missing.has_value());
    EXPECT_EQ(missing->status, 404);
}

TEST_F(FrontendTest, GenerateRejectsBadBodies)
{
    const std::optional<HttpResponse> bad =
        roundtrip("POST", "/v1/generate", "{not json");
    ASSERT_TRUE(bad.has_value());
    EXPECT_EQ(bad->status, 400);
    // A functional engine cannot serve a promptless request.
    const std::optional<HttpResponse> empty =
        roundtrip("POST", "/v1/generate", "{}");
    ASSERT_TRUE(empty.has_value());
    EXPECT_EQ(empty->status, 400);
}

TEST_F(FrontendTest, NonStreamedGenerateReturnsTheFullBody)
{
    const std::optional<HttpResponse> response = roundtrip(
        "POST", "/v1/generate",
        prompt_json(10, 7,
                    ",\"max_new_tokens\":5,\"stream\":false"));
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->status, 200);
    const std::optional<json::Value> body =
        json::parse(response->body);
    ASSERT_TRUE(body.has_value());
    EXPECT_TRUE(body->bool_or("done", false));
    EXPECT_EQ(body->number_or("generated", 0.0), 5.0);
    EXPECT_EQ(body->find("reason")->string, "max_tokens");
    ASSERT_NE(body->find("tokens"), nullptr);
    EXPECT_EQ(body->find("tokens")->array.size(), 5u);
    ASSERT_NE(body->find("id"), nullptr);
    EXPECT_EQ(body->find("id")->string.size(), 36u);  // UUID shape.
}

TEST_F(FrontendTest, StreamedGenerateMatchesNonStreamed)
{
    const std::string spec =
        prompt_json(12, 8, ",\"max_new_tokens\":6");
    const std::optional<HttpResponse> streamed =
        roundtrip("POST", "/v1/generate", spec);
    ASSERT_TRUE(streamed.has_value());
    ASSERT_EQ(streamed->status, 200);

    std::vector<int> tokens;
    bool done = false;
    std::istringstream lines(streamed->body);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty()) {
            continue;
        }
        const std::optional<json::Value> v = json::parse(line);
        ASSERT_TRUE(v.has_value()) << line;
        if (v->bool_or("done", false)) {
            done = true;
            EXPECT_EQ(v->number_or("generated", 0.0), 6.0);
        } else if (v->find("token") != nullptr) {
            tokens.push_back(
                static_cast<int>(v->number_or("token", -1.0)));
        }
    }
    EXPECT_TRUE(done);
    ASSERT_EQ(tokens.size(), 6u);

    const std::optional<HttpResponse> fixed = roundtrip(
        "POST", "/v1/generate",
        prompt_json(12, 8,
                    ",\"max_new_tokens\":6,\"stream\":false"));
    ASSERT_TRUE(fixed.has_value());
    const std::optional<json::Value> body =
        json::parse(fixed->body);
    ASSERT_TRUE(body.has_value());
    const json::Value* fixed_tokens = body->find("tokens");
    ASSERT_NE(fixed_tokens, nullptr);
    ASSERT_EQ(fixed_tokens->array.size(), tokens.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        EXPECT_EQ(static_cast<int>(fixed_tokens->array[i].number),
                  tokens[i]);
    }
}

TEST_F(FrontendTest, MetricsExposeTheServingCounters)
{
    roundtrip("POST", "/v1/generate",
              prompt_json(8, 9,
                          ",\"max_new_tokens\":3,\"stream\":false"));
    const std::optional<HttpResponse> metrics =
        roundtrip("GET", "/metrics");
    ASSERT_TRUE(metrics.has_value());
    EXPECT_EQ(metrics->status, 200);
    EXPECT_NE(metrics->body.find("mugi_requests_finished 1"),
              std::string::npos);
    EXPECT_NE(metrics->body.find("mugi_kv_bytes_in_use"),
              std::string::npos);
    EXPECT_NE(metrics->body.find(
                  "mugi_ttft_seconds{quantile=\"0.99\"}"),
              std::string::npos);
}

TEST_F(FrontendTest, DeleteUnknownIdIs404)
{
    const std::optional<HttpResponse> response =
        roundtrip("DELETE", "/v1/generate/no-such-request");
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 404);
}

/** Raw-socket client: incremental reads, so the test can act on the
 *  stream's first line while the response is still in flight. */
class RawStream {
  public:
    explicit RawStream(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_port = htons(port);
        address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (fd_ >= 0 &&
            ::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~RawStream()
    {
        if (fd_ >= 0) {
            ::close(fd_);
        }
    }

    bool ok() const { return fd_ >= 0; }

    bool
    send(const std::string& data)
    {
        return fd_ >= 0 &&
               ::send(fd_, data.data(), data.size(), 0) ==
                   static_cast<ssize_t>(data.size());
    }

    /** Half-close: no more request bytes will ever arrive -- how a
     *  truncated body surfaces to the server as EOF. */
    void
    shutdown_write()
    {
        if (fd_ >= 0) {
            ::shutdown(fd_, SHUT_WR);
        }
    }

    /** Read until @p marker appears; everything read so far. */
    std::string
    read_until(const std::string& marker)
    {
        while (buffer_.find(marker) == std::string::npos) {
            char chunk[512];
            const ssize_t n =
                ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0) {
                break;
            }
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
        return buffer_;
    }

    std::string
    read_to_eof()
    {
        for (;;) {
            char chunk[512];
            const ssize_t n =
                ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0) {
                return buffer_;
            }
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

TEST_F(FrontendTest, DeleteCancelsAMidFlightStream)
{
    // A long generation, streamed over a raw socket so the uuid line
    // is visible while tokens are still being produced.
    const std::string body =
        prompt_json(10, 11, ",\"max_new_tokens\":512");
    std::ostringstream request;
    request << "POST /v1/generate HTTP/1.1\r\n"
            << "Host: localhost\r\nContent-Length: " << body.size()
            << "\r\nConnection: close\r\n\r\n"
            << body;
    RawStream stream(frontend_->port());
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(stream.send(request.str()));

    // First NDJSON line carries the uuid.
    const std::string head = stream.read_until("\"}\n");
    const std::size_t id_at = head.find("{\"id\":\"");
    ASSERT_NE(id_at, std::string::npos) << head;
    const std::string uuid = head.substr(id_at + 7, 36);

    const std::optional<HttpResponse> cancelled = [&] {
        Client client;
        EXPECT_TRUE(client.connect(frontend_->port()));
        return client.request("DELETE", "/v1/generate/" + uuid);
    }();
    ASSERT_TRUE(cancelled.has_value());
    EXPECT_EQ(cancelled->status, 202);

    // The stream must now terminate well short of 512 tokens, with
    // the finish line reporting the cancellation.
    const std::string full = stream.read_to_eof();
    EXPECT_NE(full.find("\"reason\":\"cancelled\""),
              std::string::npos);
    std::size_t deltas = 0;
    for (std::size_t at = full.find("\"index\":");
         at != std::string::npos;
         at = full.find("\"index\":", at + 1)) {
        ++deltas;
    }
    EXPECT_LT(deltas, 512u);

    // A second DELETE of the same uuid is a 404: already retired.
    Client again;
    ASSERT_TRUE(again.connect(frontend_->port()));
    const std::optional<HttpResponse> gone =
        again.request("DELETE", "/v1/generate/" + uuid);
    ASSERT_TRUE(gone.has_value());
    EXPECT_EQ(gone->status, 404);
    EXPECT_EQ(server_->stats().cancelled, 1u);
}

// ---- Malformed input: clean 4xx, nothing submitted. ----

TEST_F(FrontendTest, OversizedHeadersAreRejected)
{
    // A header block past the 64 KiB read limit: the parser must
    // refuse it bounded-memory, not buffer it forever.
    RawStream stream(frontend_->port());
    ASSERT_TRUE(stream.ok());
    std::ostringstream request;
    request << "POST /v1/generate HTTP/1.1\r\nHost: localhost\r\n"
            << "X-Padding: " << std::string(80 * 1024, 'x')
            << "\r\n\r\n";
    ASSERT_TRUE(stream.send(request.str()));
    // The refusal may race the kernel's reset of a connection with
    // unread bytes: a 400 or an immediate close both count -- what
    // must not happen is buffering forever or answering 200.
    const std::string response = stream.read_to_eof();
    EXPECT_TRUE(response.empty() ||
                response.find(" 400 ") != std::string::npos)
        << response.substr(0, 128);
}

TEST_F(FrontendTest, TruncatedBodyIsRejected)
{
    // Content-Length promises 400 bytes; the client half-closes
    // after 10.  The EOF must surface as a 400, not a hang.
    RawStream stream(frontend_->port());
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(
        stream.send("POST /v1/generate HTTP/1.1\r\n"
                    "Host: localhost\r\nContent-Length: 400\r\n"
                    "Connection: close\r\n\r\n{\"prompt\""));
    stream.shutdown_write();
    const std::string response = stream.read_to_eof();
    EXPECT_NE(response.find(" 400 "), std::string::npos)
        << response.substr(0, 128);
}

TEST_F(FrontendTest, GarbageRequestLineIsRejected)
{
    RawStream stream(frontend_->port());
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(stream.send("\x80\xff\x01not-a-request-line\r\n\r\n"));
    stream.shutdown_write();
    const std::string response = stream.read_to_eof();
    EXPECT_NE(response.find(" 400 "), std::string::npos)
        << response.substr(0, 128);
}

TEST_F(FrontendTest, OverflowingNumbersAreRejected)
{
    // json.cc's strtod maps 1e999 to inf; every narrowing cast in
    // the API must range-check instead of invoking UB.
    for (const char* body :
         {"{\"prompt\":[1,2],\"max_new_tokens\":1e999}",
          "{\"prompt\":[1e999],\"max_new_tokens\":4}",
          "{\"prompt\":[1,2],\"max_new_tokens\":-3}",
          "{\"prompt\":[1,2],\"priority\":1e12}",
          "{\"prompt\":[1,2],\"deadline_s\":1e999}",
          "{\"prompt\":[1,2],\"admission_timeout_s\":1e999}"}) {
        const std::optional<HttpResponse> response =
            roundtrip("POST", "/v1/generate", body);
        ASSERT_TRUE(response.has_value()) << body;
        EXPECT_EQ(response->status, 400) << body;
    }
}

TEST_F(FrontendTest, InvalidUtf8BodyIsRejected)
{
    const std::optional<HttpResponse> response = roundtrip(
        "POST", "/v1/generate", "{\"prompt\":[\xc3\x28\xff]}");
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 400);
}

TEST_F(FrontendTest, WrongMethodOnKnownRoutesIs405)
{
    for (const auto& [method, target] :
         std::vector<std::pair<std::string, std::string>>{
             {"GET", "/v1/generate"},
             {"DELETE", "/metrics"},
             {"POST", "/healthz"},
             {"GET", "/v1/generate/some-uuid"}}) {
        const std::optional<HttpResponse> response =
            roundtrip(method, target);
        ASSERT_TRUE(response.has_value()) << method << " " << target;
        EXPECT_EQ(response->status, 405) << method << " " << target;
    }
}

// ---- Overload and fault surfaces over HTTP. ----

TEST_F(FrontendTest, InjectedSubmissionFaultYields429WithRetryAfter)
{
    support::FaultPlan plan;
    plan.seed = 77;
    plan.sites = {{"channel.push", 1.0, 1}};
    support::ScopedFaultPlan armed(plan);

    const std::optional<HttpResponse> response = roundtrip(
        "POST", "/v1/generate",
        prompt_json(8, 21, ",\"max_new_tokens\":3"));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 429);
    ASSERT_EQ(response->headers.count("retry-after"), 1u);
    const int retry_after =
        std::atoi(response->headers.at("retry-after").c_str());
    EXPECT_GE(retry_after, 1);
    EXPECT_LE(retry_after, 60);
    EXPECT_NE(response->body.find("\"error\":\"overloaded\""),
              std::string::npos);
    EXPECT_EQ(server_->stats().requests_shed, 1u);
    EXPECT_GE(server_->stats().faults_injected, 1u);

    // The fault cap is spent: the next submission serves normally.
    const std::optional<HttpResponse> ok = roundtrip(
        "POST", "/v1/generate",
        prompt_json(8, 21, ",\"max_new_tokens\":3,\"stream\":false"));
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->status, 200);
}

TEST_F(FrontendTest, MetricsExposeTheOverloadCounters)
{
    const std::optional<HttpResponse> metrics =
        roundtrip("GET", "/metrics");
    ASSERT_TRUE(metrics.has_value());
    EXPECT_EQ(metrics->status, 200);
    for (const char* counter :
         {"mugi_requests_shed", "mugi_admission_timeouts",
          "mugi_slow_client_cancels", "mugi_faults_injected"}) {
        EXPECT_NE(metrics->body.find(counter), std::string::npos)
            << counter;
    }
}

TEST_F(FrontendTest, HealthzReportsDrainingOnceShutdownBegins)
{
    server_->shutdown(serve::ShutdownMode::kDrain);
    const std::optional<HttpResponse> health =
        roundtrip("GET", "/healthz");
    ASSERT_TRUE(health.has_value());
    EXPECT_EQ(health->status, 503);
    EXPECT_NE(health->body.find("draining"), std::string::npos);
}

/** A numeric field of /proc/self/status ("Threads:", "VmSize:"). */
long
proc_status_field(const std::string& key)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(key, 0) == 0) {
            return std::stol(line.substr(key.size()));
        }
    }
    return -1;
}

TEST_F(FrontendTest, ExitedConnectionThreadsAreReaped)
{
    const long threads_before = proc_status_field("Threads:");
    const long vm_kb_before = proc_status_field("VmSize:");
    ASSERT_GT(threads_before, 0);
    ASSERT_GT(vm_kb_before, 0);
    constexpr int kConnections = 300;
    for (int i = 0; i < kConnections; ++i) {
        const std::optional<HttpResponse> health =
            roundtrip("GET", "/healthz");
        ASSERT_TRUE(health.has_value());
        ASSERT_EQ(health->status, 200);
    }
    // An exited thread leaves the kernel's thread count at once, but
    // until it is joined its stack (8 MB under the usual stack
    // limit) stays mapped: 300 unjoined workers add gigabytes of
    // VmSize, while reaped ones leave only the few still closing.
    EXPECT_LE(proc_status_field("Threads:"), threads_before + 4);
    EXPECT_LE(proc_status_field("VmSize:"),
              vm_kb_before + 256L * 1024L);
}

}  // namespace
}  // namespace server
}  // namespace mugi
