#include "server/http.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/fault.h"
#include "support/parse.h"

namespace mugi {
namespace server {
namespace {

const char*
status_text(int status)
{
    switch (status) {
      case 200: return "OK";
      case 202: return "Accepted";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 429: return "Too Many Requests";
      case 503: return "Service Unavailable";
      default: return "Status";
    }
}

/** ::read with EINTR retried; otherwise read()'s contract. */
ssize_t
read_some(int fd, char* buffer, std::size_t size)
{
    for (;;) {
        const ssize_t n = ::read(fd, buffer, size);
        if (n < 0 && errno == EINTR) {
            continue;  // Interrupted by a signal: not an error.
        }
        return n;
    }
}

std::string
lower(std::string s)
{
    for (char& c : s) {
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    return s;
}

/** Read from @p fd until @p buffer contains @p delimiter (or limit);
 *  returns the delimiter's end offset, or npos on EOF/overrun. */
std::size_t
read_until(int fd, std::string& buffer, const char* delimiter,
           std::size_t limit)
{
    const std::size_t dlen = std::strlen(delimiter);
    for (;;) {
        const std::size_t found = buffer.find(delimiter);
        if (found != std::string::npos) {
            return found + dlen;
        }
        if (buffer.size() > limit) {
            return std::string::npos;
        }
        char chunk[4096];
        const ssize_t n = read_some(fd, chunk, sizeof(chunk));
        if (n <= 0) {
            return std::string::npos;
        }
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
}

/** Ensure @p buffer holds at least @p size bytes, reading as needed. */
bool
read_exactly(int fd, std::string& buffer, std::size_t size)
{
    while (buffer.size() < size) {
        char chunk[4096];
        const ssize_t n = read_some(fd, chunk, sizeof(chunk));
        if (n <= 0) {
            return false;
        }
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
    return true;
}

/** Parse "Key: Value" header lines out of @p head into @p headers;
 *  spaces and tabs around a value are not part of it. */
void
parse_headers(const std::string& head, std::size_t line_start,
              std::map<std::string, std::string>* headers)
{
    while (line_start < head.size()) {
        std::size_t line_end = head.find("\r\n", line_start);
        if (line_end == std::string::npos) {
            line_end = head.size();
        }
        if (line_end == line_start) {
            break;  // Blank line: end of headers.
        }
        const std::string line =
            head.substr(line_start, line_end - line_start);
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) {
            const std::size_t vstart =
                line.find_first_not_of(" \t", colon + 1);
            const std::size_t vend = line.find_last_not_of(" \t");
            (*headers)[lower(line.substr(0, colon))] =
                vstart == std::string::npos
                    ? std::string()
                    : line.substr(vstart, vend + 1 - vstart);
        }
        line_start = line_end + 2;
    }
}

}  // namespace

Connection::~Connection()
{
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

bool
Connection::read_request(HttpRequest* out, std::size_t max_body_bytes)
{
    std::string buffer;
    const std::size_t head_end =
        read_until(fd_, buffer, "\r\n\r\n", 64 * 1024);
    if (head_end == std::string::npos) {
        return false;
    }
    const std::string head = buffer.substr(0, head_end);

    // Request line: METHOD SP TARGET SP VERSION.
    const std::size_t line_end = head.find("\r\n");
    const std::string line = head.substr(0, line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    if (sp2 == std::string::npos) {
        return false;
    }
    out->method = line.substr(0, sp1);
    out->target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    out->headers.clear();
    parse_headers(head, line_end + 2, &out->headers);

    std::size_t content_length = 0;
    const auto it = out->headers.find("content-length");
    if (it != out->headers.end()) {
        // The whole value must be one decimal within the body limit.
        const std::optional<std::size_t> parsed =
            support::parse_number<std::size_t>(it->second, 0,
                                               max_body_bytes);
        if (!parsed) {
            return false;
        }
        content_length = *parsed;
    }
    std::string rest = buffer.substr(head_end);
    if (!read_exactly(fd_, rest, content_length)) {
        return false;
    }
    out->body = rest.substr(0, content_length);
    return true;
}

bool
Connection::set_timeout(double seconds)
{
    if (seconds < 0.0) {
        return false;
    }
    timeval tv{};
    tv.tv_sec = static_cast<long>(seconds);
    tv.tv_usec = static_cast<long>(
        (seconds - std::floor(seconds)) * 1e6);
    return ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv,
                        sizeof(tv)) == 0 &&
           ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv,
                        sizeof(tv)) == 0;
}

bool
Connection::write_all(const char* data, std::size_t size)
{
    // Chaos seam: a fired "http.write" is the peer vanishing
    // mid-write (EPIPE/ECONNRESET); callers must treat it exactly
    // like the real thing -- for a mid-stream chunk that means
    // cancelling the request so its KV blocks release.
    if (MUGI_FAULT_POINT("http.write")) {
        return false;
    }
    std::size_t written = 0;
    while (written < size) {
        std::size_t attempt = size - written;
        // Chaos seam: a fired "http.write.short" caps this send at
        // one byte, forcing the short-write resume path that a full
        // socket buffer exercises in production.
        if (attempt > 1 && MUGI_FAULT_POINT("http.write.short")) {
            attempt = 1;
        }
        const ssize_t n = ::send(fd_, data + written, attempt,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) {
            continue;  // Interrupted by a signal: retry the send.
        }
        if (n <= 0) {
            // EPIPE/ECONNRESET (peer gone), or EAGAIN/EWOULDBLOCK
            // from an expired SO_SNDTIMEO (peer stalled): either way
            // this connection is not worth blocking a thread for.
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    return true;
}

bool
Connection::write_response(int status, const std::string& content_type,
                           const std::string& body)
{
    return write_response(status, content_type, body, {});
}

bool
Connection::write_response(
    int status, const std::string& content_type,
    const std::string& body,
    const std::map<std::string, std::string>& extra_headers)
{
    char head[256];
    const int n = std::snprintf(
        head, sizeof(head),
        "HTTP/1.1 %d %s\r\nContent-Type: %s\r\n"
        "Content-Length: %zu\r\nConnection: close\r\n",
        status, status_text(status), content_type.c_str(),
        body.size());
    std::string message(head, static_cast<std::size_t>(n));
    for (const auto& header : extra_headers) {
        message += header.first;
        message += ": ";
        message += header.second;
        message += "\r\n";
    }
    message += "\r\n";
    message += body;
    return write_all(message.data(), message.size());
}

bool
Connection::begin_chunked(int status, const std::string& content_type)
{
    char head[256];
    const int n = std::snprintf(
        head, sizeof(head),
        "HTTP/1.1 %d %s\r\nContent-Type: %s\r\n"
        "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        status, status_text(status), content_type.c_str());
    return write_all(head, static_cast<std::size_t>(n));
}

bool
Connection::write_chunk(const std::string& data)
{
    if (data.empty()) {
        return true;  // An empty chunk would terminate the stream.
    }
    char size_line[32];
    const int n = std::snprintf(size_line, sizeof(size_line),
                                "%zx\r\n", data.size());
    return write_all(size_line, static_cast<std::size_t>(n)) &&
           write_all(data.data(), data.size()) &&
           write_all("\r\n", 2);
}

bool
Connection::end_chunked()
{
    return write_all("0\r\n\r\n", 5);
}

Listener::~Listener()
{
    close();
}

bool
Listener::bind_and_listen(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return false;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        ::close(fd);
        return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr),
                      &len) == 0) {
        port_ = ntohs(addr.sin_port);
    }
    fd_.store(fd);
    return true;
}

int
Listener::accept_fd(int timeout_ms)
{
    const int fd = fd_.load();
    if (fd < 0) {
        return -1;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) {
        return -1;  // Timeout or poll failure (listener closed).
    }
    return ::accept(fd, nullptr, nullptr);
}

void
Listener::close()
{
    const int fd = fd_.exchange(-1);
    if (fd >= 0) {
        ::close(fd);
    }
}

Client::~Client()
{
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

bool
Client::connect(std::uint16_t port)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd_);
        fd_ = -1;
        return false;
    }
    return true;
}

std::optional<HttpResponse>
Client::request(const std::string& method, const std::string& target,
                const std::string& body)
{
    if (fd_ < 0) {
        return std::nullopt;
    }
    char head[512];
    const int n = std::snprintf(
        head, sizeof(head),
        "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Length: %zu\r\nConnection: close\r\n\r\n",
        method.c_str(), target.c_str(), body.size());
    std::string out(head, static_cast<std::size_t>(n));
    out += body;
    std::size_t written = 0;
    while (written < out.size()) {
        const ssize_t w = ::send(fd_, out.data() + written,
                                 out.size() - written, MSG_NOSIGNAL);
        if (w < 0 && errno == EINTR) {
            continue;
        }
        if (w <= 0) {
            return std::nullopt;
        }
        written += static_cast<std::size_t>(w);
    }

    // Read to EOF (Connection: close framing) and parse.
    std::string buffer;
    for (;;) {
        char chunk[4096];
        const ssize_t r = read_some(fd_, chunk, sizeof(chunk));
        if (r < 0) {
            return std::nullopt;
        }
        if (r == 0) {
            break;
        }
        buffer.append(chunk, static_cast<std::size_t>(r));
    }
    const std::size_t head_end = buffer.find("\r\n\r\n");
    if (head_end == std::string::npos) {
        return std::nullopt;
    }
    HttpResponse response;
    const std::string response_head = buffer.substr(0, head_end);
    const std::size_t line_end = response_head.find("\r\n");
    const std::string status_line = response_head.substr(
        0, line_end == std::string::npos ? response_head.size()
                                         : line_end);
    const std::size_t sp = status_line.find(' ');
    if (sp == std::string::npos) {
        return std::nullopt;
    }
    response.status = std::atoi(status_line.c_str() + sp + 1);
    parse_headers(response_head,
                  line_end == std::string::npos ? response_head.size()
                                                : line_end + 2,
                  &response.headers);

    std::string payload = buffer.substr(head_end + 4);
    const auto te = response.headers.find("transfer-encoding");
    if (te != response.headers.end() &&
        lower(te->second) == "chunked") {
        // De-chunk: size-line CRLF data CRLF ... 0 CRLF CRLF.  A
        // size is all the hex digits before CRLF or a ';' extension;
        // anything else in them, a size past the received bytes or a
        // chunk without its CRLF refuses the response.
        std::string decoded;
        std::size_t pos = 0;
        for (;;) {
            const std::size_t crlf = payload.find("\r\n", pos);
            if (crlf == std::string::npos) {
                return std::nullopt;
            }
            const char* digits = payload.data() + pos;
            const char* digits_end =
                payload.data() + std::min(crlf, payload.find(';', pos));
            std::size_t size = 0;
            const auto [ptr, ec] =
                std::from_chars(digits, digits_end, size, 16);
            if (ec != std::errc() || ptr != digits_end) {
                return std::nullopt;
            }
            if (size == 0) {
                break;
            }
            const std::size_t data_start = crlf + 2;
            // Compared against what is left, so it cannot wrap.
            if (size > payload.size() - data_start ||
                payload.compare(data_start + size, 2, "\r\n") != 0) {
                return std::nullopt;
            }
            decoded.append(payload, data_start, size);
            pos = data_start + size + 2;
        }
        response.body = std::move(decoded);
    } else {
        response.body = std::move(payload);
    }
    return response;
}

}  // namespace server
}  // namespace mugi
