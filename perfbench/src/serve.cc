/**
 * @file
 * serve and serve_stream: the real serve::Server on loopback with the
 * virtual clock free-running (time_scale = 0), driven by a closed loop
 * of client threads in this process, one connection each.
 *
 *  - serve: nproc lanes, one per CPU. A lane is one server with one
 *    keep-alive connection sending non-streamed /v1/completions, and
 *    every thread of the lane (client, accept, engine, connection)
 *    runs on the lane's CPU (see Lanes). Prompts follow the synthetic
 *    trace's long-body distribution (up to 2048 tokens, about 8 KB of
 *    JSON); outputs are short. Front-end time goes to request parsing
 *    and one response write per request; each connection is opened
 *    once per session.
 *  - serve_stream: nproc connections sending streamed
 *    /v1/chat/completions with short chat turns and long outputs.
 *    The server closes SSE connections, so every
 *    request is a new connection and a new server thread. The server
 *    keeps one unjoined thread per past connection until it stops, so
 *    the window is cut into sessions of a fixed request count, each on
 *    a fresh server; peak RSS then reflects one session's threads,
 *    not the run's throughput. Starting and stopping a session's
 *    server is outside the timed window.
 *
 * Checked: every response is HTTP 200 and carries exactly max_tokens
 * tokens (serve: usage.completion_tokens; serve_stream: that many
 * token chunks, then the finish chunk and [DONE]); per server (serve
 * has one per lane), server.completions (serve) or server.streams and
 * server.chat_completions (serve_stream) equal the requests sent, and
 * server.tokens_streamed equals the sum of their max_tokens.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common.h"
#include "serve/http.h"
#include "serve/json.h"
#include "serve/openai.h"
#include "serve/server.h"
#include "workload/synthetic.h"

namespace perfbench {
namespace {

using namespace medusa;

const char *const kModelName = "perfbench-serve";
/** Distinct prebuilt requests; the window cycles through them. */
constexpr std::size_t kPoolSize = 4096;
/** Setup repetitions; setup_s is their median. */
constexpr int kSetupReps = 5;
/**
 * Requests per session, over all of its servers. A server keeps
 * per-request state (and, for SSE, one thread per past connection)
 * until it stops, so sessions of a fixed size keep peak RSS
 * independent of throughput. Each setup repetition warms up with one
 * session.
 */
constexpr u64 kServeSessionRequests = 65536;
constexpr u64 kStreamSessionRequests = 4096;

u64
sessionRequests(bool stream)
{
    return stream ? kStreamSessionRequests : kServeSessionRequests;
}

/** One prebuilt request: HTTP bytes plus what the checks need. */
struct PoolEntry
{
    std::string bytes;
    std::string body;
    u32 max_tokens = 0;
};

/** Seeded prose of exactly @p n bytes (4 bytes per prompt token). */
std::string
promptText(std::mt19937_64 &rng, std::size_t n)
{
    static const char *const kWords[] = {
        "cold",  "start", "graph", "cache", "model", "token", "layer",
        "batch", "page",  "kernel", "state", "warm", "serve", "queue"};
    std::string out;
    out.reserve(n + 8);
    while (out.size() < n) {
        out += kWords[rng() % (sizeof(kWords) / sizeof(kWords[0]))];
        out += ' ';
    }
    out.resize(n);
    return out;
}

std::vector<PoolEntry>
buildPool(u64 seed, bool stream, Samples &generate_s)
{
    workload::SyntheticTraceOptions t;
    t.seed = seed;
    t.duration_sec = 1e9;
    t.max_requests = kPoolSize;
    if (stream) {
        // Short chat turns, long outputs.
        t.mean_prompt_tokens = 24;
        t.max_prompt_tokens = 128;
        t.mean_output_tokens = 64;
        t.max_output_tokens = 256;
    } else {
        // The trace's long-body prompt distribution, short outputs.
        t.max_prompt_tokens = 2048;
        t.mean_output_tokens = 12;
        t.max_output_tokens = 48;
    }
    const auto g0 = Clock::now();
    const std::vector<workload::Request> trace =
        workload::generateSyntheticTrace(t);
    generate_s.add(secBetween(g0, Clock::now()));
    std::mt19937_64 rng(mixSeed(seed, 7));
    std::vector<PoolEntry> pool;
    pool.reserve(trace.size());
    for (const workload::Request &r : trace) {
        PoolEntry e;
        e.max_tokens = std::max<u32>(1, r.output_tokens);
        const std::string prompt =
            promptText(rng, std::size_t{4} * std::max<u32>(1, r.prompt_tokens));
        const std::string max_tokens = std::to_string(e.max_tokens);
        if (stream) {
            e.body = std::string("{\"model\":\"") + kModelName +
                     "\",\"messages\":[{\"role\":\"system\",\"content\":"
                     "\"You are terse.\"},{\"role\":\"user\",\"content\":\"" +
                     prompt + "\"}],\"max_tokens\":" + max_tokens +
                     ",\"stream\":true}";
        } else {
            e.body = std::string("{\"model\":\"") + kModelName +
                     "\",\"prompt\":\"" + prompt +
                     "\",\"max_tokens\":" + max_tokens + "}";
        }
        e.bytes = std::string("POST ") +
                  (stream ? "/v1/chat/completions" : "/v1/completions") +
                  " HTTP/1.1\r\nHost: perfbench\r\n"
                  "Content-Type: application/json\r\nContent-Length: " +
                  std::to_string(e.body.size()) + "\r\n\r\n" + e.body;
        pool.push_back(std::move(e));
    }
    return pool;
}

/** A blocking loopback client connection. */
class Connection
{
  public:
    Connection() = default;
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;
    ~Connection() { close(); }

    bool
    open(u16 port)
    {
        close();
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0) {
            return false;
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            close();
            return false;
        }
        return true;
    }

    void
    close()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
};

/** One request's client-side observations. */
struct Exchange
{
    bool ok = false;
    double connect_ms = 0;
    double first_byte_ms = 0;
    /** serve_stream: first `data:` chunk; serve: first byte. */
    double ttft_ms = 0;
    double latency_ms = 0;
    u64 chunks = 0;
    u64 response_bytes = 0;
};

/** Parse "HTTP/1.1 NNN" off a response head; 0 when malformed. */
int
statusCode(const std::string &buf)
{
    int status = 0;
    return std::sscanf(buf.c_str(), "HTTP/1.1 %d", &status) == 1 ? status
                                                                 : 0;
}

/** Non-streamed completion on a keep-alive connection. */
bool
postOnce(Connection &conn, const PoolEntry &req, std::string &buf,
         Exchange &x)
{
    const auto t0 = Clock::now();
    if (!serve::writeAll(conn.fd(), req.bytes)) {
        return false;
    }
    buf.clear();
    std::size_t head_end = std::string::npos;
    while ((head_end = buf.find("\r\n\r\n")) == std::string::npos) {
        if (serve::readInto(conn.fd(), buf) <= 0) {
            return false;
        }
        if (x.first_byte_ms == 0) {
            x.first_byte_ms = msBetween(t0, Clock::now());
        }
    }
    const char *cl = std::strstr(buf.c_str(), "Content-Length:");
    if (cl == nullptr || statusCode(buf) != 200) {
        return false;
    }
    const std::size_t want =
        head_end + 4 + std::strtoull(cl + 15, nullptr, 10);
    while (buf.size() < want) {
        if (serve::readInto(conn.fd(), buf) <= 0) {
            return false;
        }
    }
    x.latency_ms = msBetween(t0, Clock::now());
    x.ttft_ms = x.first_byte_ms;
    x.response_bytes = buf.size();
    x.chunks = 1;
    const std::size_t usage = buf.find("\"completion_tokens\":", head_end);
    return usage != std::string::npos &&
           std::strtoull(buf.c_str() + usage + 20, nullptr, 10) ==
               req.max_tokens;
}

/** Count non-overlapping occurrences of @p needle in @p hay. */
u64
countOf(const std::string &hay, const char *needle)
{
    u64 n = 0;
    const std::size_t len = std::strlen(needle);
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + len)) {
        ++n;
    }
    return n;
}

/** Streamed chat completion on a fresh connection. */
bool
streamOnce(u16 port, const PoolEntry &req, std::string &buf, Exchange &x)
{
    const auto t0 = Clock::now();
    Connection conn;
    if (!conn.open(port)) {
        return false;
    }
    x.connect_ms = msBetween(t0, Clock::now());
    if (!serve::writeAll(conn.fd(), req.bytes)) {
        return false;
    }
    buf.clear();
    for (;;) {
        const i64 n = serve::readInto(conn.fd(), buf);
        if (n < 0) {
            return false;
        }
        if (n == 0) {
            break; // the server closes after [DONE]
        }
        if (x.first_byte_ms == 0) {
            x.first_byte_ms = msBetween(t0, Clock::now());
        }
        if (x.ttft_ms == 0 && buf.find("data: ") != std::string::npos) {
            x.ttft_ms = msBetween(t0, Clock::now());
        }
    }
    x.latency_ms = msBetween(t0, Clock::now());
    x.response_bytes = buf.size();
    // Token chunks carry "finish_reason":null; then one finish chunk.
    x.chunks = countOf(buf, "\"finish_reason\":null");
    static const std::string kDone = "data: [DONE]\n\n";
    return statusCode(buf) == 200 && x.chunks == req.max_tokens &&
           countOf(buf, "\"finish_reason\":\"length\"") == 1 &&
           buf.size() >= kDone.size() &&
           buf.compare(buf.size() - kDone.size(), kDone.size(), kDone) == 0;
}

/** Everything one or more sessions observed. */
struct Tally
{
    double seconds = 0;
    u64 ok = 0;
    u64 request_bytes = 0;
    u64 response_bytes = 0;
    u64 chunks = 0;
    // One sample per session: the figures are their medians, and the
    // window's memory does not grow with the requests it completes.
    Samples per_s, tokens_per_s;
    Samples connect_p50, first_byte_p50;
    Samples latency_p50, latency_p99, ttft_p50, ttft_p99;
    // Server-side counters, summed over sessions.
    u64 completions = 0, chat_completions = 0, streams = 0;
    u64 tokens_streamed = 0, active_peak = 0;
    u64 threads_peak = 0, fds_peak = 0;
};

/** Per-thread observations, merged after the session. */
struct ThreadTally
{
    u64 sent = 0, ok = 0, tokens = 0, request_bytes = 0;
    u64 response_bytes = 0, chunks = 0;
    std::vector<double> latency_ms, ttft_ms, connect_ms, first_byte_ms;
};

/** Samples /proc/self every few ms while a traced session runs. */
class ProcessSampler
{
  public:
    explicit ProcessSampler(bool on)
    {
        if (on) {
            thread_ = std::thread([this] { loop(); });
        }
    }
    ProcessSampler(const ProcessSampler &) = delete;
    ProcessSampler &operator=(const ProcessSampler &) = delete;
    ~ProcessSampler() { stop(); }

    void
    stop()
    {
        stop_.store(true);
        if (thread_.joinable()) {
            thread_.join();
        }
    }

    u64 threads_peak = 0;
    u64 fds_peak = 0;

  private:
    void
    loop()
    {
        while (!stop_.load()) {
            threads_peak = std::max(threads_peak, processThreads());
            fds_peak = std::max(fds_peak, openFds());
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }

    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/**
 * serve's lanes: one per CPU the process may run on. Lane i's server
 * is built and started while the building thread runs on CPU i only,
 * so its accept and engine threads, and the connection threads the
 * accept thread starts, stay there; lane i's client thread confines
 * itself there too. A request is then handed on four times
 * (client → connection thread → engine thread → connection thread →
 * client), each a context switch on one CPU rather than a wake-up of
 * a sleeping vCPU, and no lane's threads queue behind another's.
 * Unconfined, those wake-ups set the figures: throughput fell by half
 * or more and p99 grew fivefold whenever the host's other load rose.
 *
 * Why a lane per CPU rather than one lane: on a shared host each vCPU
 * runs at its own, changing speed (other tenants' load on the same
 * core). On a shared 4-vCPU Xeon VM the four vCPUs' speeds over
 * half-second slices were uncorrelated, and the per-session
 * throughput of four lanes varied half as much as one lane's did
 * (coefficient of variation 0.07 against 0.14).
 */
class Lanes
{
  public:
    Lanes()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
            all_ = set;
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set)) {
                    cpus_.push_back(c);
                }
            }
        }
    }

    std::size_t size() const { return cpus_.size(); }

    /** Confine the calling thread to lane @p i's CPU. */
    bool
    enter(std::size_t i) const
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[i], &set);
        return ::sched_setaffinity(0, sizeof(set), &set) == 0;
    }

    /** Give the calling thread back every CPU it started with. */
    bool
    leave() const
    {
        return ::sched_setaffinity(0, sizeof(all_), &all_) == 0;
    }

  private:
    cpu_set_t all_{};
    std::vector<int> cpus_;
};

/**
 * One session on fresh servers: serve runs one server and one client
 * per lane, serve_stream one server and nproc clients. The clients
 * share a request counter and stop after @p requests requests. Only
 * the client phase is timed.
 */
void
runSession(const std::vector<PoolEntry> &pool, bool stream,
           u64 first_index, u64 requests, bool sample, Report &report,
           Tally &tally)
{
    static const Lanes lanes;
    const serverless::ServingProfile prof = handMadeProfile(kModelName);
    const std::size_t nservers = stream ? 1 : lanes.size();
    const unsigned nconns =
        stream ? std::max(1u, std::thread::hardware_concurrency())
               : static_cast<unsigned>(nservers);
    std::vector<std::unique_ptr<serve::Server>> servers;
    bool started = nservers > 0;
    for (std::size_t i = 0; i < nservers && started; ++i) {
        serve::ServeOptions sopts;
        sopts.cluster.profile = &prof;
        sopts.cluster.num_gpus = 8;
        sopts.time_scale = 0;
        sopts.model_names = {kModelName};
        started = stream || lanes.enter(i);
        servers.push_back(std::make_unique<serve::Server>(std::move(sopts)));
        started = started && servers.back()->start().isOk();
    }
    started = (stream || lanes.leave()) && started;
    if (!report.check(started, "server start on every lane")) {
        return;
    }
    // Client c talks to server serverOf(c).
    const auto serverOf = [&](unsigned c) -> std::size_t {
        return stream ? 0 : c;
    };

    std::atomic<u64> next{0};
    std::vector<ThreadTally> per(nconns);
    ProcessSampler sampler(sample);
    const auto s0 = Clock::now();
    {
        std::vector<std::thread> clients;
        clients.reserve(nconns);
        for (unsigned c = 0; c < nconns; ++c) {
            clients.emplace_back([&, c] {
                ThreadTally &t = per[c];
                const u16 port = servers[serverOf(c)]->port();
                Connection conn;
                if (!stream) {
                    const auto c0 = Clock::now();
                    if (!lanes.enter(c) || !conn.open(port)) {
                        ++t.sent; // a failed connect fails the session
                        return;
                    }
                    t.connect_ms.push_back(msBetween(c0, Clock::now()));
                }
                std::string buf;
                for (;;) {
                    const u64 i = next.fetch_add(1);
                    if (i >= requests) {
                        break;
                    }
                    const PoolEntry &req =
                        pool[(first_index + i) % pool.size()];
                    Exchange x;
                    ++t.sent;
                    t.tokens += req.max_tokens;
                    t.request_bytes += req.bytes.size();
                    x.ok = stream ? streamOnce(port, req, buf, x)
                                  : postOnce(conn, req, buf, x);
                    if (!x.ok) {
                        break; // counted as sent, not ok
                    }
                    ++t.ok;
                    t.response_bytes += x.response_bytes;
                    t.chunks += x.chunks;
                    t.latency_ms.push_back(x.latency_ms);
                    t.ttft_ms.push_back(x.ttft_ms);
                    t.first_byte_ms.push_back(x.first_byte_ms);
                    if (stream) {
                        t.connect_ms.push_back(x.connect_ms);
                    }
                }
            });
        }
        for (std::thread &c : clients) {
            c.join();
        }
    }
    const double seconds = secBetween(s0, Clock::now());
    tally.seconds += seconds;
    sampler.stop();
    tally.threads_peak = std::max(tally.threads_peak, sampler.threads_peak);
    tally.fds_peak = std::max(tally.fds_peak, sampler.fds_peak);

    u64 sent = 0, ok = 0, tokens = 0;
    Samples latency_ms, ttft_ms, connect_ms, first_byte_ms;
    std::vector<u64> sent_to(nservers, 0), tokens_to(nservers, 0);
    for (unsigned c = 0; c < nconns; ++c) {
        const ThreadTally &t = per[c];
        sent_to[serverOf(c)] += t.sent;
        tokens_to[serverOf(c)] += t.tokens;
        sent += t.sent;
        ok += t.ok;
        tokens += t.tokens;
        tally.request_bytes += t.request_bytes;
        tally.response_bytes += t.response_bytes;
        tally.chunks += t.chunks;
        for (double v : t.latency_ms) latency_ms.add(v);
        for (double v : t.ttft_ms) ttft_ms.add(v);
        for (double v : t.first_byte_ms) first_byte_ms.add(v);
        for (double v : t.connect_ms) connect_ms.add(v);
    }
    tally.per_s.add(static_cast<double>(ok) / seconds);
    tally.tokens_per_s.add(static_cast<double>(tokens) / seconds);
    tally.latency_p50.add(latency_ms.quantile(0.5));
    tally.latency_p99.add(latency_ms.quantile(0.99));
    tally.ttft_p50.add(ttft_ms.quantile(0.5));
    tally.ttft_p99.add(ttft_ms.quantile(0.99));
    tally.connect_p50.add(connect_ms.median());
    tally.first_byte_p50.add(first_byte_ms.median());
    tally.ok += ok;
    report.attempt(sent);
    report.fail(sent - ok);
    report.check(ok == sent, "responses failed their check: " +
                                 std::to_string(sent - ok) + " of " +
                                 std::to_string(sent));
    // Drain every server at once (each waits out its accept thread's
    // poll); then each server's counters must match what was sent to it.
    for (const auto &server : servers) {
        server->requestStop();
    }
    for (std::size_t i = 0; i < nservers; ++i) {
        serve::Server &server = *servers[i];
        const serverless::TraceMetrics tm = server.stop();
        const MetricsSnapshot snap = server.metricsSnapshot();
        const u64 completions = snap.counterValue("server.completions");
        const u64 chats = snap.counterValue("server.chat_completions");
        const u64 streams = snap.counterValue("server.streams");
        const u64 streamed = snap.counterValue("server.tokens_streamed");
        if (stream) {
            report.check(streams == sent_to[i] && chats == sent_to[i] &&
                             completions == 0,
                         "server.streams " + std::to_string(streams) +
                             " != requests sent " +
                             std::to_string(sent_to[i]));
        } else {
            report.check(completions == sent_to[i] && streams == 0,
                         "server.completions " +
                             std::to_string(completions) +
                             " != requests sent " +
                             std::to_string(sent_to[i]));
        }
        report.check(streamed == tokens_to[i] && tm.completed == sent_to[i],
                     "server.tokens_streamed " + std::to_string(streamed) +
                         " != sum of max_tokens " +
                         std::to_string(tokens_to[i]));
        tally.completions += completions;
        tally.chat_completions += chats;
        tally.streams += streams;
        tally.tokens_streamed += streamed;
        tally.active_peak = std::max<u64>(
            tally.active_peak,
            static_cast<u64>(snap.gaugeValue("server.active_peak")));
    }
}

/**
 * Whole sessions until @p seconds of client time are spent. Each
 * session's memory goes back to the system once its server is gone,
 * so every session starts from the same heap.
 */
void
runWindow(const std::vector<PoolEntry> &pool, bool stream, u64 &cursor,
          double seconds, bool sample, Report &report, Tally &tally)
{
    while (tally.seconds < seconds && report.correct()) {
        runSession(pool, stream, cursor, sessionRequests(stream), sample,
                   report, tally);
        ::malloc_trim(0);
        cursor += sessionRequests(stream);
    }
}

/** Median wall time per call of @p fn over every pool entry, in µs. */
template <typename Fn>
double
medianCallUs(const std::vector<PoolEntry> &pool, Fn &&fn)
{
    Samples us;
    for (const PoolEntry &e : pool) {
        const auto t0 = Clock::now();
        fn(e);
        us.add(usBetween(t0, Clock::now()));
    }
    return us.median();
}

/**
 * Isolated calls into the front end's layers on this workload's own
 * request bytes: HTTP parse, JSON parse, OpenAI validation, response
 * body and per-token chunk framing.
 */
void
layerCalls(const std::vector<PoolEntry> &pool, bool stream, Report &report)
{
    bool ok = true;
    const double http_us = medianCallUs(pool, [&](const PoolEntry &e) {
        serve::HttpParser p;
        ok = p.feed(e.bytes).isOk() && p.complete() && ok;
    });
    const double json_us = medianCallUs(pool, [&](const PoolEntry &e) {
        ok = serve::Json::parse(e.body).isOk() && ok;
    });
    std::vector<serve::Json> bodies;
    std::vector<serve::CompletionCall> calls;
    for (const PoolEntry &e : pool) {
        auto body = serve::Json::parse(e.body);
        if (!report.check(body.isOk(), "pool body parses")) {
            return;
        }
        auto call =
            serve::parseCompletionCall(*body, stream, serve::ApiLimits{});
        if (!report.check(call.isOk(), "pool body validates")) {
            return;
        }
        bodies.push_back(std::move(*body));
        calls.push_back(std::move(*call));
    }
    std::size_t k = 0;
    const double validate_us = medianCallUs(pool, [&](const PoolEntry &) {
        ok = serve::parseCompletionCall(bodies[k++], stream,
                                        serve::ApiLimits{})
                 .isOk() &&
             ok;
    });
    report.check(ok, "isolated front-end layer calls");
    report.metric("serve.http.parse_us", http_us, "us");
    report.metric("serve.json.parse_us", json_us, "us");
    report.metric("serve.openai.validate_us", validate_us, "us");
    // One whole non-streamed response body, then per token one chunk
    // body plus its SSE framing; both on either workload's calls.
    Samples response_us, chunk_us;
    for (k = 0; k < calls.size(); ++k) {
        const serve::CompletionCall &call = calls[k];
        std::string text;
        for (u32 i = 0; i < call.max_tokens; ++i) {
            text += serve::tokenText(k, i);
        }
        const std::string id = serve::completionId(stream, k);
        const auto r0 = Clock::now();
        const std::string body = serve::completionResponseJson(
            call, id, text, call.max_tokens, "length");
        response_us.add(usBetween(r0, Clock::now()));
        ok = !body.empty() && ok;
        for (u32 i = 0; i < call.max_tokens; ++i) {
            const std::string tok = serve::tokenText(k, i);
            const auto t0 = Clock::now();
            const std::string ev = serve::sseEvent(
                serve::completionChunkJson(call, id, tok, i == 0));
            chunk_us.add(usBetween(t0, Clock::now()));
            ok = !ev.empty() && ok;
        }
    }
    report.check(ok, "isolated response and chunk framing calls");
    report.metric("serve.openai.response_us", response_us.median(), "us");
    report.metric("serve.openai.chunk_us", chunk_us.median(), "us");
}

} // namespace

void
runServe(const Args &args, Report &report, bool stream)
{
    std::vector<PoolEntry> pool;
    Samples setup_s, generate_s;
    u64 cursor = 0;
    for (int rep = 0; rep < kSetupReps && report.correct(); ++rep) {
        const auto s0 = Clock::now();
        pool = buildPool(mixSeed(args.seed, 5), stream, generate_s);
        Tally warm;
        runSession(pool, stream, cursor, sessionRequests(stream),
                   /*sample=*/false, report, warm);
        cursor += sessionRequests(stream);
        setup_s.add(secBetween(s0, Clock::now()));
    }
    ::malloc_trim(0);
    if (!report.correct()) {
        return;
    }

    report.host_before = probeHost();
    report.check(resetPeakRss(), "reset VmHWM via /proc/self/clear_refs");
    Tally plain;
    runWindow(pool, stream, cursor,
              args.trace ? args.seconds / 2 : args.seconds,
              /*sample=*/false, report, plain);
    const double peak_mb = peakRssMb();
    Tally traced;
    if (args.trace && report.correct()) {
        runWindow(pool, stream, cursor, args.seconds / 2, /*sample=*/true,
                  report, traced);
        layerCalls(pool, stream, report);
    }
    report.host_after = probeHost();
    if (!report.correct()) {
        return;
    }

    if (!args.trace) {
        report.metric("setup_s", setup_s.median(), "s");
        report.metric("peak_rss_mb", peak_mb, "MB");
        report.metric("throughput_per_s", plain.per_s.median(), "1/s");
        report.metric("latency_p50_ms", plain.latency_p50.median(), "ms");
        report.metric("latency_p99_ms", plain.latency_p99.median(), "ms");
        report.metric("ttft_p50_ms", plain.ttft_p50.median(), "ms");
        report.metric("ttft_p99_ms", plain.ttft_p99.median(), "ms");
        report.metric("tokens_per_s", plain.tokens_per_s.median(), "1/s");
        return;
    }
    const double n = static_cast<double>(traced.ok);
    report.metric("workload.synthetic.generate_s", generate_s.median(), "s");
    report.metric("serve.server.completions",
                  static_cast<double>(traced.completions), "count");
    report.metric("serve.server.chat_completions",
                  static_cast<double>(traced.chat_completions), "count");
    report.metric("serve.server.streams",
                  static_cast<double>(traced.streams), "count");
    report.metric("serve.server.tokens_streamed",
                  static_cast<double>(traced.tokens_streamed), "count");
    report.metric("serve.server.active_peak",
                  static_cast<double>(traced.active_peak), "count");
    report.metric("serve.process.threads_peak",
                  static_cast<double>(traced.threads_peak), "count");
    report.metric("serve.process.fds_peak",
                  static_cast<double>(traced.fds_peak), "count");
    report.metric("serve.client.connect_ms_p50", traced.connect_p50.median(),
                  "ms");
    report.metric("serve.client.first_byte_ms_p50",
                  traced.first_byte_p50.median(), "ms");
    report.metric("serve.client.chunks_per_request",
                  static_cast<double>(traced.chunks) / n, "count");
    report.metric("serve.client.request_bytes",
                  static_cast<double>(traced.request_bytes) / n, "B");
    report.metric("serve.client.response_bytes",
                  static_cast<double>(traced.response_bytes) / n, "B");
    report.metric("perfbench.trace_overhead_pct",
                  100.0 * (plain.per_s.median() / traced.per_s.median() -
                           1.0),
                  "%");
}

} // namespace perfbench
