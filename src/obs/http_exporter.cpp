#include "obs/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string_view>
#include <thread>

#include "common/error.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace seda::obs {

namespace {

constexpr const char* k_ct_prom = "text/plain; version=0.0.4; charset=utf-8";
constexpr const char* k_ct_json = "application/json";
constexpr const char* k_ct_text = "text/plain; charset=utf-8";

/// The time a peer gets to send its whole request head, and the timeout of
/// each send of the response.  One deadline for the whole head, not one per
/// recv: a peer trickling a byte at a time would otherwise hold the serial
/// loop, and every scrape queued behind it, for as long as it trickles.
constexpr std::chrono::seconds k_peer_deadline{2};

/// Reads one request's head (through the blank line) with a size cap and
/// the k_peer_deadline.  Returns false on EOF/error/oversize/timeout before
/// a full head arrived.
bool read_request_head(int fd, std::string& buf, std::size_t max_bytes)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline = Clock::now() + k_peer_deadline;
    buf.clear();
    char chunk[1024];
    while (buf.find("\r\n\r\n") == std::string::npos) {
        if (buf.size() > max_bytes) return false;
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
        pollfd pfd{fd, POLLIN, 0};
        if (left.count() <= 0 || ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0)
            return false;
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0) return false;
        buf.append(chunk, static_cast<std::size_t>(n));
    }
    return true;
}

void send_all(int fd, std::string_view data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n <= 0) return;  // peer went away; nothing to salvage
        off += static_cast<std::size_t>(n);
    }
}

}  // namespace

struct Http_exporter::Impl {
    std::thread thread;
    std::atomic<bool> stop{false};
    Snapshot snap;  ///< serving-thread scrape buffer, reused per request
};

Http_exporter::Http_exporter(Http_exporter_config cfg) : cfg_(cfg), impl_(new Impl) {}

Http_exporter::~Http_exporter()
{
    stop();
    delete impl_;
}

void Http_exporter::start()
{
    require(listen_fd_ < 0 && !running_, "obs: exporter already started");
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    require(fd >= 0, "obs: exporter socket() failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback ONLY, by design
    addr.sin_port = htons(cfg_.port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, 16) != 0) {
        const int err = errno;
        ::close(fd);
        throw Seda_error("obs: exporter cannot listen on 127.0.0.1:" +
                         std::to_string(cfg_.port) + " (" + std::strerror(err) + ")");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    require(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
            "obs: exporter getsockname() failed");
    port_ = ntohs(bound.sin_port);
    listen_fd_ = fd;
    running_ = true;
    impl_->stop.store(false, std::memory_order_relaxed);
    impl_->thread = std::thread([this] { serve_loop(); });
}

void Http_exporter::stop()
{
    if (!running_) return;
    impl_->stop.store(true, std::memory_order_relaxed);
    if (impl_->thread.joinable()) impl_->thread.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    running_ = false;
}

void Http_exporter::serve_loop()
{
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    while (!impl_->stop.load(std::memory_order_relaxed)) {
        const int ready = ::poll(&pfd, 1, cfg_.poll_interval_ms);
        if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
        const int conn = ::accept(listen_fd_, nullptr, nullptr);
        if (conn < 0) continue;
        // A stalled peer must not wedge the serial loop: bound both sides
        // (the request head's deadline lives in read_request_head).
        timeval tv{};
        tv.tv_sec = k_peer_deadline.count();
        ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
        handle_connection(conn);
        ::close(conn);
    }
}

void Http_exporter::handle_connection(int fd)
{
    ++requests_served_;
    const char* status = "200 OK";
    const char* content_type = k_ct_text;
    bool head_only = false;
    body_.clear();

    if (!read_request_head(fd, request_, cfg_.max_request_bytes)) {
        status = "400 Bad Request";
        content_type = k_ct_text;
        body_ = "malformed or oversized request\n";
    } else {
        // "METHOD SP TARGET SP VERSION": split the first line, drop any
        // query string -- the endpoints take no parameters.
        const std::string_view head(request_);
        const std::string_view line = head.substr(0, head.find("\r\n"));
        const std::size_t sp1 = line.find(' ');
        const std::size_t sp2 = sp1 == std::string_view::npos
                                    ? std::string_view::npos
                                    : line.find(' ', sp1 + 1);
        std::string_view method;
        std::string_view target;
        if (sp2 != std::string_view::npos) {
            method = line.substr(0, sp1);
            target = line.substr(sp1 + 1, sp2 - sp1 - 1);
            if (const auto q = target.find('?'); q != std::string_view::npos)
                target = target.substr(0, q);
        }
        head_only = method == "HEAD";
        std::ostringstream oss;
        if (method.empty() || target.empty()) {
            status = "400 Bad Request";
            body_ = "malformed request line\n";
        } else if (method != "GET" && method != "HEAD") {
            status = "405 Method Not Allowed";
            body_ = "only GET and HEAD are supported\n";
        } else if (target == "/metrics") {
            Metrics_registry::instance().scrape_into(impl_->snap);
            write_prometheus(impl_->snap, oss);
            content_type = k_ct_prom;
            body_ = oss.str();
        } else if (target == "/metrics.json") {
            Metrics_registry::instance().scrape_into(impl_->snap);
            write_json(impl_->snap, oss);
            content_type = k_ct_json;
            body_ = oss.str();
        } else if (target == "/healthz") {
            const Health_state state = health_state();
            const bool up =
                state == Health_state::serving || state == Health_state::draining;
            status = up ? "200 OK" : "503 Service Unavailable";
            content_type = k_ct_json;
            oss << "{\"state\": \"" << to_string(state)
                << "\", \"live_servers\": " << health_live_servers()
                << ", \"started_total\": " << health_started_total() << "}\n";
            body_ = oss.str();
        } else if (target == "/flight") {
            Flight_recorder::dump(oss);
            content_type = k_ct_json;
            body_ = oss.str();
        } else if (target == "/") {
            body_ =
                "seda telemetry endpoints:\n"
                "  /metrics       Prometheus text exposition\n"
                "  /metrics.json  JSON metrics snapshot\n"
                "  /healthz       serve lifecycle state\n"
                "  /flight        flight-recorder dump\n";
        } else {
            status = "404 Not Found";
            body_ = "unknown endpoint; GET / lists them\n";
        }
    }

    response_.clear();
    response_ += "HTTP/1.1 ";
    response_ += status;
    response_ += "\r\nContent-Type: ";
    response_ += content_type;
    response_ += "\r\nContent-Length: ";
    response_ += std::to_string(body_.size());
    response_ += "\r\nConnection: close\r\n\r\n";
    if (!head_only) response_ += body_;
    send_all(fd, response_);
}

std::optional<u16> parse_listen_port(std::string_view text)
{
    unsigned port = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), port);
    if (ec != std::errc() || end != text.data() + text.size() || port < 1 || port > 65535)
        return std::nullopt;
    return static_cast<u16>(port);
}

u16 listen_port_from_env()
{
    const char* env = std::getenv("SEDA_OBS_LISTEN");
    if (env == nullptr || *env == '\0') return 0;
    const auto port = parse_listen_port(env);
    require(port.has_value(),
            std::string("obs: SEDA_OBS_LISTEN expects a port (1-65535), got '") + env +
                "'");
    return *port;
}

}  // namespace seda::obs
