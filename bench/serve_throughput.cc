/**
 * @file
 * dracod serving throughput: measured QPS, latency and shard balance
 * versus shard count, with and without batching.
 *
 * 16 tenants (so every swept shard count divides the tenant set evenly)
 * replay per-tenant synthetic traces through an in-process CheckService,
 * closed-loop. For each (shards × batching) cell the table reports:
 *
 *  - wall_qps  measured wall-clock throughput (host-dependent).
 *  - p50/p99   measured submit-to-verdict batch latency (µs).
 *  - balance   total checks ÷ the busiest shard's checks: how much of
 *              the shard count the tenant placement can use. It is
 *              deterministic on any host and independent of thread
 *              scheduling (4 shards must reach ≥ 3).
 *
 * Batching on: clients submit 32-request batches and workers drain up
 * to 64 requests per wakeup. Batching off: single-request submits,
 * one-request drains. Every cell replays byte-identical request
 * streams; after each cell the per-tenant verdict counts are asserted
 * equal to the 1-shard baseline's — zero lost or duplicated verdicts.
 *
 * JSON artifact: `sweep.s<shards>.<batch|nobatch>.*` per cell plus
 * `figure.balance.s{2,4,8}` (batch-on balance). Wall/latency gauges are
 * measured, so unlike the figure benches this artifact is not
 * byte-stable across runs; the check counts, the balance figures and
 * the verdict assertions are.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.hh"
#include "serve/client.hh"
#include "serve/service.hh"

using namespace draco;
using namespace draco::bench;

namespace {

constexpr unsigned kTenants = 16;
constexpr uint32_t kClientBatch = 32;

double
elapsedSeconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/** One tenant's replayed request stream. */
struct TenantTraffic {
    std::string name;
    std::vector<os::SyscallRequest> reqs;
};

/**
 * Per-tenant synthetic traffic: tenant t replays workload t mod |apps|
 * under a per-tenant seed split, prologue included (tenant creation in
 * a container starts with the loader syscalls too). Generated once and
 * shared by every sweep cell so all cells check identical streams.
 */
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

struct CellResult {
    double wallQps = 0.0;     ///< Measured.
    double balance = 0.0;     ///< Checks ÷ busiest shard's checks.
    double wallSeconds = 0.0;
    QuantileSketch latencyUs; ///< Measured batch latency.
    uint64_t checks = 0;
    uint64_t drains = 0;
    double avgBatch = 0.0;
    /** Per-tenant (allowed, denied) — the determinism fingerprint. */
    std::vector<std::pair<uint64_t, uint64_t>> verdicts;
};

CellResult
runCell(const std::vector<TenantTraffic> &traffic, unsigned shards,
        bool batching)
{
    serve::ServiceOptions options;
    options.shards = shards;
    // Closed-loop drivers never outrun the workers far enough to shed,
    // but size the queue so that is structurally impossible: every
    // verdict must be a real check for the determinism assertion.
    options.queueCapacity = kTenants * kClientBatch * 4;
    options.maxBatch = batching ? 64 : 1;

    serve::CheckService service(options);
    static const seccomp::Profile profile =
        seccomp::dockerDefaultProfile();
    std::vector<serve::TenantId> ids(kTenants);
    for (unsigned t = 0; t < kTenants; ++t) {
        ids[t] = service.createTenant(traffic[t].name, profile);
        if (ids[t] == serve::kInvalidTenant)
            fatal("serve_throughput: createTenant(%s) failed",
                  traffic[t].name.c_str());
    }

    const uint32_t clientBatch = batching ? kClientBatch : 1;
    const unsigned drivers =
        std::min<unsigned>(std::max(1u, benchThreads()), kTenants);

    std::vector<QuantileSketch> latency(drivers);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(drivers);
    for (unsigned d = 0; d < drivers; ++d) {
        threads.emplace_back([&, d] {
            std::vector<serve::CheckResponse> resps(clientBatch);
            for (unsigned t = d; t < kTenants; t += drivers) {
                const auto &reqs = traffic[t].reqs;
                for (size_t pos = 0; pos < reqs.size();
                     pos += clientBatch) {
                    const uint32_t n = static_cast<uint32_t>(
                        std::min<size_t>(clientBatch,
                                         reqs.size() - pos));
                    const auto s0 = std::chrono::steady_clock::now();
                    serve::Batch batch;
                    service.submitBatch(ids[t], reqs.data() + pos, n,
                                        resps.data(), batch);
                    batch.wait();
                    latency[d].add(elapsedSeconds(s0) * 1e6);
                    for (uint32_t i = 0; i < n; ++i)
                        if (resps[i].status != serve::CheckStatus::Allowed &&
                            resps[i].status != serve::CheckStatus::Denied)
                            fatal("serve_throughput: tenant %s request "
                                  "shed (%s) in a closed loop",
                                  traffic[t].name.c_str(),
                                  serve::checkStatusName(
                                      resps[i].status));
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    CellResult cell;
    cell.wallSeconds = elapsedSeconds(t0);

    for (unsigned t = 0; t < kTenants; ++t) {
        serve::TenantStats stats;
        if (!service.tenantStats(ids[t], stats))
            fatal("serve_throughput: tenantStats(%s) failed",
                  traffic[t].name.c_str());
        cell.verdicts.emplace_back(stats.allowed, stats.denied);
    }
    service.stop();

    cell.checks = service.totalChecks();
    cell.wallQps = cell.wallSeconds > 0.0
                       ? static_cast<double>(cell.checks) /
                             cell.wallSeconds
                       : 0.0;
    for (const QuantileSketch &sketch : latency)
        cell.latencyUs.merge(sketch);

    MetricRegistry scratch;
    service.exportMetrics(scratch);
    cell.drains = scratch.counterValue("serve.drains");
    cell.avgBatch = scratch.runningStat("serve.batch_size").mean();
    uint64_t busiest = 0;
    for (unsigned i = 0; i < shards; ++i)
        busiest = std::max(busiest,
                           scratch.counterValue("serve.shards.s" +
                                                std::to_string(i) +
                                                ".checks"));
    cell.balance = busiest > 0 ? static_cast<double>(cell.checks) /
                                     static_cast<double>(busiest)
                               : 0.0;

    uint64_t expected = 0;
    for (const TenantTraffic &tenant : traffic)
        expected += tenant.reqs.size();
    if (cell.checks != expected || service.totalRejects() != 0)
        fatal("serve_throughput: lost verdicts (%llu checked, %llu "
              "expected, %llu shed)",
              static_cast<unsigned long long>(cell.checks),
              static_cast<unsigned long long>(expected),
              static_cast<unsigned long long>(service.totalRejects()));
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchReport report("serve_throughput", argc, argv);
    const std::vector<TenantTraffic> traffic = makeTraffic();

    const std::vector<unsigned> shardCounts = {1, 2, 4, 8};
    TextTable table("dracod serving throughput (" +
                    std::to_string(kTenants) + " tenants, measured)");
    table.setHeader({"shards", "wall_qps", "wall_qps-nobatch", "p50_us",
                     "p99_us", "avg_batch", "balance"});

    std::vector<std::pair<uint64_t, uint64_t>> baseline;
    for (unsigned shards : shardCounts) {
        CellResult batched = runCell(traffic, shards, true);
        CellResult unbatched = runCell(traffic, shards, false);

        // Identical per-tenant verdict counts at every shard count and
        // batch granularity: the subsystem's determinism contract.
        if (baseline.empty())
            baseline = batched.verdicts;
        if (batched.verdicts != baseline ||
            unbatched.verdicts != baseline)
            fatal("serve_throughput: verdict counts diverged at "
                  "shards=%u",
                  shards);

        table.addRow({std::to_string(shards),
                      TextTable::num(batched.wallQps, 0),
                      TextTable::num(unbatched.wallQps, 0),
                      TextTable::num(batched.latencyUs.quantile(0.50), 1),
                      TextTable::num(batched.latencyUs.quantile(0.99), 1),
                      TextTable::num(batched.avgBatch, 1),
                      TextTable::num(batched.balance, 2)});

        for (int pass = 0; pass < 2; ++pass) {
            const CellResult &cell = pass == 0 ? batched : unbatched;
            std::string prefix = "sweep.s" + std::to_string(shards) +
                                 (pass == 0 ? ".batch" : ".nobatch");
            MetricRegistry &registry = report.registry();
            registry.setGauge(MetricRegistry::join(prefix, "wall_qps"),
                              cell.wallQps);
            // Per-check cost, the unit the hotpath bench argues in.
            registry.setGauge(
                MetricRegistry::join(prefix, "wall_ns_per_check"),
                cell.checks > 0
                    ? cell.wallSeconds * 1e9 /
                          static_cast<double>(cell.checks)
                    : 0.0);
            registry.setGauge(
                MetricRegistry::join(prefix, "wall_seconds"),
                cell.wallSeconds);
            registry.setCounter(MetricRegistry::join(prefix, "checks"),
                                cell.checks);
            registry.setCounter(MetricRegistry::join(prefix, "drains"),
                                cell.drains);
            registry.setGauge(
                MetricRegistry::join(prefix, "avg_batch"),
                cell.avgBatch);
            registry.setGauge(
                MetricRegistry::join(prefix, "latency_us.p50"),
                cell.latencyUs.quantile(0.50));
            registry.setGauge(
                MetricRegistry::join(prefix, "latency_us.p90"),
                cell.latencyUs.quantile(0.90));
            registry.setGauge(
                MetricRegistry::join(prefix, "latency_us.p99"),
                cell.latencyUs.quantile(0.99));
        }
        if (shards > 1)
            report.registry().setGauge(
                "figure.balance.s" + std::to_string(shards),
                batched.balance);
    }
    report.registry().setCounter("sweep.tenants", kTenants);
    report.registry().setCounter("sweep.client_batch", kClientBatch);

    table.print();
    return 0;
}
