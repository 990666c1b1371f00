#ifndef MUGI_SERVER_HTTP_H_
#define MUGI_SERVER_HTTP_H_

/**
 * @file
 * Minimal HTTP/1.1 over POSIX sockets -- exactly the slice the
 * serving front-end needs, no external dependency:
 *
 *  - Listener: bind/listen on a loopback port (0 = ephemeral; the
 *    bound port is readable back for tests), accept with a poll
 *    timeout so the accept loop can observe a shutdown flag;
 *  - Connection: read one request (request line, headers,
 *    Content-Length body -- the API never receives chunked uploads),
 *    write fixed responses, and stream chunked transfer-encoding
 *    responses (begin_chunked / write_chunk / end_chunked) for the
 *    token-delta stream;
 *  - HttpRequest: parsed method / target / headers (lower-cased
 *    keys) / body.
 *
 * Also the client slice bench/serve_load --check drives the gate
 * with: Client::connect to loopback, request/response with chunked
 * decoding, so both ends of the smoke test share one implementation.
 *
 * Unhappy-path hardening: every read/send retries EINTR, sends use
 * MSG_NOSIGNAL (and mugi_server additionally ignores SIGPIPE
 * process-wide) so a vanished client surfaces as a failed write --
 * never a signal death -- short writes are continued, and EAGAIN from
 * an expired SO_SNDTIMEO or SO_RCVTIMEO (set_timeout) fails the write
 * or the request read, so a stalled or silent client cannot wedge
 * its connection thread.  write paths carry the "http.write" /
 * "http.write.short" fault sites (support/fault.h) so the chaos bench
 * can inject exactly these failures deterministically.
 *
 * Thread-safety: externally serialized per object -- each
 * Connection/Client has exactly one owning thread (the front-end
 * hands each accepted connection to one worker); Listener::accept_fd may
 * be called from one accept thread while close() arrives from a
 * signal-driven shutdown path (the int fd member is atomic).
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace mugi {
namespace server {

/** One parsed HTTP request. */
struct HttpRequest {
    std::string method;   ///< "GET", "POST", "DELETE", ...
    std::string target;   ///< Path as sent, e.g. "/v1/generate".
    std::map<std::string, std::string> headers;  ///< Keys lower-cased.
    std::string body;
};

/** One parsed HTTP response (client side). */
struct HttpResponse {
    int status = 0;
    std::map<std::string, std::string> headers;
    std::string body;  ///< De-chunked when transfer-encoding applied.
};

/** One accepted connection; closes its fd on destruction. */
class Connection {
  public:
    explicit Connection(int fd) : fd_(fd) {}
    ~Connection();

    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /**
     * Read and parse one request; false on EOF, malformed framing,
     * a Content-Length that is not one whole decimal number, or a
     * body larger than @p max_body_bytes.
     */
    bool read_request(HttpRequest* out,
                      std::size_t max_body_bytes = 1 << 20);

    /**
     * Bound every blocking send and read on this connection
     * (SO_SNDTIMEO and SO_RCVTIMEO): a client that stops draining its
     * socket, or sends nothing, for longer than @p seconds fails the
     * write or read_request instead of wedging the connection thread
     * forever.  0 disables the bounds.  The front-end maps a failed
     * mid-stream write onto cancelling the request, so a slow client
     * releases its KV blocks instead of holding them, and answers a
     * failed read with 400.
     */
    bool set_timeout(double seconds);

    /** Write a complete fixed-length response. */
    bool write_response(int status, const std::string& content_type,
                        const std::string& body);
    /** write_response with extra headers (e.g. Retry-After). */
    bool write_response(
        int status, const std::string& content_type,
        const std::string& body,
        const std::map<std::string, std::string>& extra_headers);

    /** Start a chunked streaming response. */
    bool begin_chunked(int status, const std::string& content_type);
    /** One chunk (no-op on empty data: empty terminates in HTTP). */
    bool write_chunk(const std::string& data);
    /** Terminal zero-length chunk. */
    bool end_chunked();

    int fd() const { return fd_; }

  private:
    bool write_all(const char* data, std::size_t size);

    int fd_;
};

/** Loopback listener for the front-end's accept loop. */
class Listener {
  public:
    Listener() = default;
    ~Listener();

    Listener(const Listener&) = delete;
    Listener& operator=(const Listener&) = delete;

    /** Bind 127.0.0.1:@p port (0 = ephemeral) and listen. */
    bool bind_and_listen(std::uint16_t port);
    /** The bound port (after bind_and_listen). */
    std::uint16_t port() const { return port_; }

    /**
     * Accept one connection, waiting at most @p timeout_ms; -1 on
     * timeout or on a closed/failed listener.  The timeout is what
     * lets the accept loop poll a shutdown flag.
     */
    int accept_fd(int timeout_ms);

    /**
     * Close the listening socket (idempotent).  An accept_fd already
     * blocked in poll() is NOT interrupted -- it returns at its own
     * timeout -- which is why the accept loop polls with a short
     * timeout rather than blocking indefinitely.
     */
    void close();

  private:
    std::atomic<int> fd_{-1};
    std::uint16_t port_ = 0;
};

/** Blocking HTTP/1.1 client over one loopback connection. */
class Client {
  public:
    Client() = default;
    ~Client();

    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    /** Connect to 127.0.0.1:@p port. */
    bool connect(std::uint16_t port);

    /**
     * Send @p method @p target with @p body and read the full
     * response, de-chunking if needed.  Connection: close semantics
     * -- one request per Client.
     */
    std::optional<HttpResponse> request(const std::string& method,
                                        const std::string& target,
                                        const std::string& body = "");

  private:
    int fd_ = -1;
};

}  // namespace server
}  // namespace mugi

#endif  // MUGI_SERVER_HTTP_H_
