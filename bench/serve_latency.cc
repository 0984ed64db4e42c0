/**
 * @file
 * Serving observability overhead: end-to-end dracod latency with the
 * obs pipeline off versus on, plus the server-side stage breakdown.
 *
 * Mirrors the serve_throughput workload shape (16 tenants, 32-request
 * client batches, 4 shards, 64-drain) but drives a real SocketServer
 * over a Unix socket so the full request pipeline — admit, parse,
 * enqueue, drain, check, reply-flush — is on the measured path. Two
 * phases replay byte-identical per-tenant streams closed-loop:
 *
 *  - obs-off   no --metrics-listen: the stage-latency pipeline is
 *              compiled in but never stamps a clock or commits a
 *              histogram (the ServeObs hub does not exist).
 *  - obs-on    metrics endpoint bound on 127.0.0.1:0 with slow-request
 *              capture armed; every batch is stamped through all six
 *              stages and committed to the per-loop histograms, and a
 *              /metrics scrape runs mid-load to price the merge too.
 *
 * Each phase runs kRepeats times and reports the minimum wall time
 * (closed-loop wall is scheduling-noisy; min is the stable summary).
 * `figure.overhead_pct` is the obs-on wall cost over obs-off — the
 * ISSUE budget is <3%. The headline table is the server-side stage
 * quantile breakdown (p50/p95/p99/p999 per stage) scraped from the
 * obs hub after the last obs-on run: the numbers dracod would serve
 * from /metrics under this load.
 *
 * Per-tenant verdict counts are asserted identical across every run
 * of both phases — observability must not perturb verdicts (the
 * determinism contract; also test-enforced in tests/serve).
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.hh"
#include "obs/serveobs.hh"
#include "serve/server.hh"
#include "serve/service.hh"

using namespace draco;
using namespace draco::bench;

namespace {

constexpr unsigned kTenants = 16;
constexpr uint32_t kClientBatch = 32;
constexpr unsigned kShards = 4;
constexpr int kRepeats = 3;

double
elapsedSeconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

struct TenantTraffic {
    std::string name;
    std::vector<os::SyscallRequest> reqs;
};

/** Same construction as serve_throughput: byte-identical streams. */
std::vector<TenantTraffic>
makeTraffic()
{
    const auto &apps = benchWorkloads();
    const size_t perTenant = std::max<size_t>(1, benchCalls() / kTenants);
    std::vector<TenantTraffic> out(kTenants);
    for (unsigned t = 0; t < kTenants; ++t) {
        const workload::AppModel &app = *apps[t % apps.size()];
        out[t].name = "t" + std::to_string(t);
        workload::TraceGenerator gen(app, splitSeed(workloadSeed(app), t));
        workload::Trace trace = gen.generate(perTenant);
        out[t].reqs.reserve(trace.size());
        for (const workload::TraceEvent &ev : trace)
            out[t].reqs.push_back(ev.req);
    }
    return out;
}

/** One blocking HTTP/1.0 GET against 127.0.0.1:@p port. */
std::string
httpGet(uint16_t port, const std::string &target)
{
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        close(fd);
        return "";
    }
    std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
    size_t sent = 0;
    while (sent < request.size()) {
        ssize_t w = write(fd, request.data() + sent,
                          request.size() - sent);
        if (w <= 0)
            break;
        sent += static_cast<size_t>(w);
    }
    std::string reply;
    char buf[4096];
    ssize_t r;
    while ((r = read(fd, buf, sizeof buf)) > 0)
        reply.append(buf, static_cast<size_t>(r));
    close(fd);
    return reply;
}

struct PhaseResult {
    double wallSeconds = 0.0;
    uint64_t checks = 0;
    QuantileSketch clientUs; ///< Client round-trip batch latency.
    std::vector<std::pair<uint64_t, uint64_t>> verdicts;
    bool scraped = false; ///< /metrics answered mid-load (obs-on).
};

PhaseResult
runPhase(const std::vector<TenantTraffic> &traffic, bool obs,
         int repeat, MetricRegistry *stageOut)
{
    serve::ServiceOptions options;
    options.shards = kShards;
    options.queueCapacity = kTenants * kClientBatch * 4;
    options.maxBatch = 64;
    serve::CheckService service(options);

    serve::ServerOptions serverOptions;
    serverOptions.socketPath = "/tmp/draco_serve_latency_" +
        std::to_string(getpid()) + "_" + (obs ? "on" : "off") + "_" +
        std::to_string(repeat) + ".sock";
    serverOptions.eventThreads = 2;
    if (obs) {
        serverOptions.metricsAddress = "127.0.0.1:0";
        // High enough that capture is rare under this load; the point
        // is the armed stamp/commit path, not a saturated slow ring.
        serverOptions.slowUs = 10000;
    }
    serve::SocketServer server(service, serverOptions);
    if (!server.start())
        fatal("serve_latency: could not start server on %s",
              serverOptions.socketPath.c_str());

    auto setup = serve::SocketClient::connect(serverOptions.socketPath);
    if (!setup)
        fatal("serve_latency: setup connect failed");
    std::vector<serve::TenantId> ids(kTenants);
    for (unsigned t = 0; t < kTenants; ++t) {
        ids[t] = setup->createTenant(traffic[t].name, "docker-default");
        if (ids[t] == serve::kInvalidTenant)
            fatal("serve_latency: createTenant(%s) failed",
                  traffic[t].name.c_str());
    }

    const unsigned drivers =
        std::min<unsigned>(std::max(1u, benchThreads()), kTenants);
    std::vector<QuantileSketch> latency(drivers);

    PhaseResult result;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(drivers);
    for (unsigned d = 0; d < drivers; ++d) {
        threads.emplace_back([&, d] {
            auto client =
                serve::SocketClient::connect(serverOptions.socketPath);
            if (!client)
                fatal("serve_latency: driver connect failed");
            std::vector<serve::CheckResponse> resps(kClientBatch);
            for (unsigned t = d; t < kTenants; t += drivers) {
                const auto &reqs = traffic[t].reqs;
                for (size_t pos = 0; pos < reqs.size();
                     pos += kClientBatch) {
                    const uint32_t n = static_cast<uint32_t>(
                        std::min<size_t>(kClientBatch,
                                         reqs.size() - pos));
                    const auto s0 = std::chrono::steady_clock::now();
                    if (!client->checkBatch(ids[t], reqs.data() + pos,
                                            n, resps.data()))
                        fatal("serve_latency: checkBatch failed");
                    latency[d].add(elapsedSeconds(s0) * 1e6);
                }
            }
        });
    }

    // Scrape mid-load so the merge-on-scrape cost is inside the
    // measured window, exactly as a Prometheus poller would land.
    if (obs && server.metricsPort() != 0) {
        std::string reply = httpGet(server.metricsPort(), "/metrics");
        result.scraped =
            reply.find("200") != std::string::npos &&
            reply.find("draco_serve_stage_latency_us") !=
                std::string::npos;
        if (!result.scraped)
            fatal("serve_latency: mid-load /metrics scrape failed");
    }

    for (std::thread &thread : threads)
        thread.join();
    result.wallSeconds = elapsedSeconds(t0);

    for (unsigned t = 0; t < kTenants; ++t) {
        serve::TenantStats stats;
        if (!setup->tenantStats(ids[t], stats))
            fatal("serve_latency: tenantStats(%s) failed",
                  traffic[t].name.c_str());
        result.verdicts.emplace_back(stats.allowed, stats.denied);
    }

    if (obs && stageOut)
        server.serveObs()->exportMetrics(*stageOut);

    server.stop();
    service.stop();
    result.checks = service.totalChecks();
    for (const QuantileSketch &sketch : latency)
        result.clientUs.merge(sketch);
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchReport report("serve_latency", argc, argv);
    const std::vector<TenantTraffic> traffic = makeTraffic();

    std::vector<std::pair<uint64_t, uint64_t>> fingerprint;
    double wallOff = 0.0, wallOn = 0.0;
    QuantileSketch clientOff, clientOn;
    uint64_t checks = 0;
    MetricRegistry stages;

    for (int repeat = 0; repeat < kRepeats; ++repeat) {
        for (int phase = 0; phase < 2; ++phase) {
            const bool obs = phase == 1;
            // The last obs-on run's hub feeds the stage breakdown.
            PhaseResult r = runPhase(
                traffic, obs, repeat,
                obs && repeat == kRepeats - 1 ? &stages : nullptr);

            // Verdicts must be identical with the pipeline on or off,
            // every repeat: observing a request never changes it.
            if (fingerprint.empty())
                fingerprint = r.verdicts;
            if (r.verdicts != fingerprint)
                fatal("serve_latency: verdicts diverged "
                      "(obs=%d repeat=%d)",
                      obs ? 1 : 0, repeat);

            checks = r.checks;
            double &wall = obs ? wallOn : wallOff;
            if (wall == 0.0 || r.wallSeconds < wall)
                wall = r.wallSeconds;
            (obs ? clientOn : clientOff).merge(r.clientUs);
        }
    }

    const double overheadPct =
        wallOff > 0.0 ? (wallOn - wallOff) / wallOff * 100.0 : 0.0;

    TextTable table("dracod observability overhead (" +
                    std::to_string(kTenants) + " tenants, " +
                    std::to_string(kShards) + " shards, min of " +
                    std::to_string(kRepeats) + " runs)");
    table.setHeader({"phase", "wall_s", "wall_qps", "client_p50_us",
                     "client_p99_us"});
    table.addRow({"obs-off", TextTable::num(wallOff, 3),
                  TextTable::num(wallOff > 0.0
                                     ? static_cast<double>(checks) / wallOff
                                     : 0.0,
                                 0),
                  TextTable::num(clientOff.quantile(0.50), 1),
                  TextTable::num(clientOff.quantile(0.99), 1)});
    table.addRow({"obs-on", TextTable::num(wallOn, 3),
                  TextTable::num(wallOn > 0.0
                                     ? static_cast<double>(checks) / wallOn
                                     : 0.0,
                                 0),
                  TextTable::num(clientOn.quantile(0.50), 1),
                  TextTable::num(clientOn.quantile(0.99), 1)});
    table.print();
    std::printf("overhead: %+.2f%% wall (budget <3%%)\n\n", overheadPct);

    // Headline: the server-side stage breakdown the obs hub measured —
    // what /metrics serves under this load.
    TextTable breakdown("server-side stage latency (obs-on, merged "
                        "across loops and shards)");
    breakdown.setHeader({"stage", "p50_us", "p95_us", "p99_us",
                         "p999_us", "count"});
    MetricRegistry &registry = report.registry();
    for (size_t st = 0; st < obs::kStageCount; ++st) {
        const obs::Stage stage = static_cast<obs::Stage>(st);
        const std::string name = obs::stageName(stage);
        QuantileSketch &sketch = stages.quantileSketch(
            "serve.obs.stages.all." + name + "_us");
        breakdown.addRow({name,
                          TextTable::num(sketch.quantile(0.50), 1),
                          TextTable::num(sketch.quantile(0.95), 1),
                          TextTable::num(sketch.quantile(0.99), 1),
                          TextTable::num(sketch.quantile(0.999), 1),
                          std::to_string(sketch.count())});
        const std::string prefix = "server.stages." + name;
        registry.setGauge(prefix + ".p50", sketch.quantile(0.50));
        registry.setGauge(prefix + ".p95", sketch.quantile(0.95));
        registry.setGauge(prefix + ".p99", sketch.quantile(0.99));
        registry.setGauge(prefix + ".p999", sketch.quantile(0.999));
        registry.setCounter(prefix + ".count", sketch.count());
    }
    breakdown.print();

    registry.setCounter("config.tenants", kTenants);
    registry.setCounter("config.shards", kShards);
    registry.setCounter("config.client_batch", kClientBatch);
    registry.setCounter("config.repeats", kRepeats);
    registry.setCounter("checks", checks);
    registry.setGauge("obs_off.wall_seconds", wallOff);
    registry.setGauge("obs_on.wall_seconds", wallOn);
    registry.setGauge("obs_off.client_us.p50", clientOff.quantile(0.50));
    registry.setGauge("obs_off.client_us.p99", clientOff.quantile(0.99));
    registry.setGauge("obs_on.client_us.p50", clientOn.quantile(0.50));
    registry.setGauge("obs_on.client_us.p99", clientOn.quantile(0.99));
    registry.setGauge("figure.overhead_pct", overheadPct);
    return 0;
}
