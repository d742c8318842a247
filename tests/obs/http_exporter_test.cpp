// Loopback integration tests for the embedded HTTP scrape endpoint: raw
// socket client, status lines, content types, the /metrics ≡ scrape
// byte-for-byte contract (the same write_prometheus render --stats-out
// files), and the /healthz lifecycle flip driven by serve::Server.
//
// Metric names are unique to this file: the registry is process-wide.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "common/error.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace seda::obs {
namespace {

#define SKIP_UNLESS_OBS_LIVE() \
    if (!enabled()) GTEST_SKIP() << "observability disabled in this build/env"

/// A socket connected to the exporter on `port`, or -1.
int connect_to(u16 port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/// Raw HTTP exchange: connect, send `request` verbatim, read to EOF.
std::string http_exchange(u16 port, const std::string& request)
{
    const int fd = connect_to(port);
    if (fd < 0) return {};
    ::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
}

std::string http_get(u16 port, const std::string& target, const char* method = "GET")
{
    return http_exchange(port, std::string(method) + " " + target +
                                   " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
}

std::string body_of(const std::string& response)
{
    const auto pos = response.find("\r\n\r\n");
    return pos == std::string::npos ? std::string{} : response.substr(pos + 4);
}

TEST(ObsHttpExporter, StatusLinesAndContentTypes)
{
    Http_exporter exporter;  // port 0 = ephemeral
    exporter.start();
    ASSERT_NE(exporter.port(), 0);

    const std::string index = http_get(exporter.port(), "/");
    EXPECT_EQ(index.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << index;
    EXPECT_NE(index.find("/metrics"), std::string::npos);

    const std::string metrics = http_get(exporter.port(), "/metrics");
    EXPECT_EQ(metrics.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
              std::string::npos)
        << metrics;
    EXPECT_NE(metrics.find("Connection: close"), std::string::npos);

    const std::string json = http_get(exporter.port(), "/metrics.json");
    EXPECT_EQ(json.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    EXPECT_NE(json.find("Content-Type: application/json"), std::string::npos);

    EXPECT_EQ(http_get(exporter.port(), "/nope").rfind("HTTP/1.1 404 Not Found\r\n", 0),
              0u);
    EXPECT_EQ(http_get(exporter.port(), "/metrics", "POST")
                  .rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0),
              0u);

    // Query strings are stripped; HEAD answers with headers only.
    EXPECT_EQ(http_get(exporter.port(), "/metrics?x=1").rfind("HTTP/1.1 200 OK\r\n", 0),
              0u);
    const std::string head = http_get(exporter.port(), "/metrics", "HEAD");
    EXPECT_EQ(head.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    EXPECT_TRUE(body_of(head).empty()) << head;

    exporter.stop();
    EXPECT_GE(exporter.requests_served(), 7u);
}

TEST(ObsHttpExporter, MetricsBodyMatchesScrapeByteForByte)
{
    SKIP_UNLESS_OBS_LIVE();
    Metrics_registry::instance().counter("test_httpx_total").add(42);
    Metrics_registry::instance().histogram("test_httpx_us", "tenant", "0").record(12.5);

    Http_exporter exporter;
    exporter.start();
    const std::string via_http = body_of(http_get(exporter.port(), "/metrics"));
    const std::string via_json = body_of(http_get(exporter.port(), "/metrics.json"));
    exporter.stop();

    // The registry is quiesced, so a local render of the same scrape must be
    // byte-identical -- and this render is exactly what --stats-out writes.
    std::ostringstream prom;
    write_prometheus(Metrics_registry::instance().scrape(), prom);
    EXPECT_EQ(via_http, prom.str());
    EXPECT_NE(via_http.find("seda_test_httpx_total 42"), std::string::npos);

    std::ostringstream json;
    write_json(Metrics_registry::instance().scrape(), json);
    EXPECT_EQ(via_json, json.str());
}

TEST(ObsHttpExporter, HealthzFlipsWithServerLifecycle)
{
    health_reset_for_test();
    Http_exporter exporter;
    exporter.start();

    std::string r = http_get(exporter.port(), "/healthz");
    EXPECT_EQ(r.rfind("HTTP/1.1 503 Service Unavailable\r\n", 0), 0u) << r;
    EXPECT_NE(body_of(r).find("\"state\": \"idle\""), std::string::npos) << r;

    {
        serve::Server server(serve::demo_master_key(7, 1), serve::demo_master_key(7, 2));
        server.start();
        r = http_get(exporter.port(), "/healthz");
        EXPECT_EQ(r.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << r;
        EXPECT_NE(body_of(r).find("\"state\": \"serving\""), std::string::npos) << r;
        EXPECT_NE(body_of(r).find("\"live_servers\": 1"), std::string::npos) << r;
        server.stop();
        r = http_get(exporter.port(), "/healthz");
        EXPECT_EQ(r.rfind("HTTP/1.1 503 Service Unavailable\r\n", 0), 0u) << r;
        EXPECT_NE(body_of(r).find("\"state\": \"stopped\""), std::string::npos) << r;
    }
    exporter.stop();
}

TEST(ObsHttpExporter, FlightEndpointIsNonConsuming)
{
    Http_exporter exporter;
    exporter.start();
    const std::string first = body_of(http_get(exporter.port(), "/flight"));
    const std::string second = body_of(http_get(exporter.port(), "/flight"));
    exporter.stop();
    EXPECT_EQ(first, second);  // dumps never consume the ring
    std::ostringstream os;
    Flight_recorder::dump(os);
    EXPECT_EQ(first, os.str());
}

TEST(ObsHttpExporter, MalformedRequestsGet400)
{
    Http_exporter exporter;
    exporter.start();
    const std::string r = http_exchange(exporter.port(), "garbage\r\n\r\n");
    EXPECT_EQ(r.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u) << r;
    exporter.stop();
}

TEST(ObsHttpExporter, TricklingClientIsCutOffAndHealthzStillAnswers)
{
    // The exporter serves one connection at a time.  A peer that sends its
    // request head a byte at a time gets one deadline for the whole head,
    // not one per byte, so it is cut off and a /healthz queued behind it
    // answers within 3 s.
    using Clock = std::chrono::steady_clock;
    const auto seconds_since = [](Clock::time_point t) {
        return std::chrono::duration<double>(Clock::now() - t).count();
    };
    Http_exporter exporter;
    exporter.start();
    const int trickler = connect_to(exporter.port());
    ASSERT_GE(trickler, 0);
    const Clock::time_point t0 = Clock::now();
    double cut_after_s = -1;  // written by the trickler, read after join()
    std::thread trickle([&] {
        // A byte every 150 ms of a head that never ends, for up to 6 s or
        // until the exporter answers or hangs up.
        const std::string head = "GET /metrics HTTP/1.1\r\nX-Slow: ";
        for (std::size_t i = 0; seconds_since(t0) < 6; ++i) {
            pollfd pfd{trickler, POLLIN, 0};
            if (::poll(&pfd, 1, 150) > 0) {
                cut_after_s = seconds_since(t0);
                break;
            }
            const char byte = i < head.size() ? head[i] : 'x';
            ::send(trickler, &byte, 1, MSG_NOSIGNAL);
        }
        ::close(trickler);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));  // the loop is on the trickler
    const Clock::time_point h0 = Clock::now();
    const std::string health = http_get(exporter.port(), "/healthz");
    const double healthz_s = seconds_since(h0);
    trickle.join();
    exporter.stop();

    EXPECT_NE(health.find("\"state\""), std::string::npos) << health;
    EXPECT_LT(healthz_s, 3.0);
    EXPECT_GE(cut_after_s, 0.0) << "the trickling client was never cut off";
    EXPECT_LT(cut_after_s, 3.0);
}

TEST(ObsHttpExporter, EphemeralAndExplicitPortsBothBind)
{
    Http_exporter a;
    a.start();
    // Second exporter on the already-bound port must throw, not hang.
    Http_exporter_config cfg;
    cfg.port = a.port();
    Http_exporter b(cfg);
    EXPECT_THROW(b.start(), Seda_error);
    a.stop();
}

TEST(ObsHttpExporter, ListenPortFromEnv)
{
    EXPECT_EQ(parse_listen_port("1"), std::optional<u16>{1});
    EXPECT_EQ(parse_listen_port("9187"), std::optional<u16>{9187});
    EXPECT_EQ(parse_listen_port("65535"), std::optional<u16>{65535});
    for (const char* bad :
         {"", "0", "65536", "+80", " 80", "80 ", "0x50", "-1", "notaport"})
        EXPECT_EQ(parse_listen_port(bad), std::nullopt) << "'" << bad << "'";

    ::unsetenv("SEDA_OBS_LISTEN");
    EXPECT_EQ(listen_port_from_env(), 0);
    ::setenv("SEDA_OBS_LISTEN", "9187", 1);
    EXPECT_EQ(listen_port_from_env(), 9187);
    ::setenv("SEDA_OBS_LISTEN", "notaport", 1);
    EXPECT_THROW((void)listen_port_from_env(), Seda_error);
    ::setenv("SEDA_OBS_LISTEN", "70000", 1);
    EXPECT_THROW((void)listen_port_from_env(), Seda_error);
    ::unsetenv("SEDA_OBS_LISTEN");
}

}  // namespace
}  // namespace seda::obs
