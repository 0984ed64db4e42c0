/**
 * @file
 * dracobench: the dracod benchmark.
 *
 *   dracobench --workload <warm_inproc|warm_unix|churn> --seed <n>
 *              --seconds <s> --trace <0|1>
 *
 * One process drives dracod's public API. Set-up (tenant creation,
 * policy compile, VAT warm-up) runs kSetups times and the last service
 * is kept. Then each workload runs a saturation phase (closed loop,
 * kWindow batches of kBatch requests outstanding) and a fixed-rate
 * phase (open loop at the workload's constant rate, each batch timed
 * from when it was due). Every verdict of every phase is checked
 * against FilterChain::run by the Gate.
 *
 * With --trace 0 the last stdout line reports the end-to-end metrics.
 * With --trace 1 the run adds a lock-step census (exact counts and
 * verdict fingerprints), traces its phases, times every layer, and
 * reports the per-layer metrics instead. NOTES.md explains both sets.
 */

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "inputs.hh"
#include "layers.hh"
#include "load.hh"
#include "serve/transport.hh"
#include "support/logging.hh"

using namespace draco;
using namespace dracobench;

namespace {

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 9;

/** Closed-loop window, in batches. */
constexpr unsigned kWindow = 16;

/**
 * Fixed-rate phase, checks per second: about half the saturation
 * throughput each workload reached at the named seed on the reference
 * host (NOTES.md). Constants, never derived at run time.
 */
double
fixedRate(Workload w)
{
    switch (w) {
      case Workload::WarmInproc: return 2.0e6;
      case Workload::WarmUnix: return 0.3e6;
      case Workload::Churn: return 0.15e6;
    }
    return 1.0e6;
}

/** One hot tenant's profile is swapped this often under load (µs). */
constexpr unsigned kSwapPeriodUs = 1000;

/**
 * Tails are taken per 100 ms window and reported at this quantile
 * across windows, so a few windows in which the host preempted the
 * benchmark cannot set them.
 */
constexpr double kTailAcross = 0.25;

struct Args {
    Workload workload = Workload::WarmInproc;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool corruptReference = false;
    std::string socketDir = ".bench_build";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "dracobench: %s\n"
                 "usage: dracobench --workload warm_inproc|warm_unix|churn "
                 "--seed N --seconds S --trace 0|1 "
                 "[--socket-dir DIR] [--corrupt-reference]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--corrupt-reference") {
            a.corruptReference = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            if (!parseWorkload(value, a.workload))
                usage(("unknown workload " + value).c_str());
            haveWorkload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end)
                usage("--seed wants an unsigned integer");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || a.seconds <= 0 || a.seconds > 120)
                usage("--seconds wants a number in (0, 120]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace wants 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--socket-dir") {
            a.socketDir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return a;
}

/** @return Field @p key of /proc/self/status in bytes (kB lines). */
double
procStatusBytes(const char *key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string prefix = std::string(key) + ":";
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) == 0)
            return std::strtod(line.c_str() + prefix.size(), nullptr) * 1024.0;
    }
    return 0.0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t", colon + 1));
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    QuantileSketch s;
    for (double x : xs)
        s.add(x);
    return s.quantile(0.5);
}

double
quantile(const std::vector<double> &xs, double q)
{
    QuantileSketch s;
    for (double x : xs)
        s.add(x);
    return s.quantile(q);
}

/** Metrics in the order they are printed. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        _metrics.push_back({name, value, unit});
    }

    std::string
    json(bool correct, uint64_t attempted, uint64_t failed) const
    {
        std::string out = "{\"correct\": ";
        out += correct ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted);
        out += ", \"failed\": " + std::to_string(failed);
        out += ", \"metrics\": {";
        for (size_t i = 0; i < _metrics.size(); ++i) {
            char value[64];
            std::snprintf(value, sizeof(value), "%.17g", _metrics[i].value);
            out += i ? ", " : "";
            out += jsonString(_metrics[i].name) + ": {\"value\": " + value +
                   ", \"unit\": " + jsonString(_metrics[i].unit) + "}";
        }
        return out + "}}";
    }

  private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> _metrics;
};

/** One HTTP/1.0 GET of @p target on 127.0.0.1:@p port. */
std::string
httpGet(uint16_t port, const std::string &target)
{
    auto endpoint = serve::Endpoint::parseTcp("127.0.0.1:" +
                                              std::to_string(port));
    if (!endpoint)
        return {};
    int fd = serve::connectEndpoint(*endpoint);
    if (fd < 0)
        return {};
    const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
    std::string body;
    if (::write(fd, req.data(), req.size()) ==
        static_cast<ssize_t>(req.size())) {
        char buf[65536];
        ssize_t n;
        while ((n = ::read(fd, buf, sizeof(buf))) > 0)
            body.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return body;
}

/**
 * @return Count-weighted mean over shards of the scraped
 *         draco_serve_stage_latency_us quantile, per "stage/quantile".
 */
std::map<std::string, double>
scrapeStages(const std::string &text)
{
    std::map<std::string, double> sum, weight;
    std::map<std::string, double> counts; // "shard/stage" -> count
    std::istringstream in(text);
    std::string line;
    auto label = [](const std::string &l, const char *key) {
        const std::string k = std::string(key) + "=\"";
        size_t at = l.find(k);
        if (at == std::string::npos)
            return std::string();
        at += k.size();
        return l.substr(at, l.find('"', at) - at);
    };
    std::vector<std::string> quantileLines;
    while (std::getline(in, line)) {
        if (line.rfind("draco_serve_stage_latency_us_count{", 0) == 0) {
            counts[label(line, "shard") + "/" + label(line, "stage")] =
                std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
        } else if (line.rfind("draco_serve_stage_latency_us{", 0) == 0) {
            quantileLines.push_back(line);
        }
    }
    for (const std::string &l : quantileLines) {
        const double n = counts[label(l, "shard") + "/" + label(l, "stage")];
        const std::string key = label(l, "stage") + "/" + label(l, "quantile");
        sum[key] += n * std::strtod(l.c_str() + l.rfind(' ') + 1, nullptr);
        weight[key] += n;
    }
    std::map<std::string, double> out;
    for (const auto &[key, s] : sum)
        out[key] = weight[key] > 0 ? s / weight[key] : 0.0;
    return out;
}

/** serve.service figures from the StageRecords of one phase. */
struct ServiceLayer {
    double queueP50 = 0.0, queueP99 = 0.0;
    double nsPerCheck = 0.0, reqsPerDrain = 0.0;
};

ServiceLayer
serviceLayer(const std::vector<obs::StageRecord> &records)
{
    ServiceLayer s;
    QuantileSketch queue;
    // A drain stamps one drainStartNs on every record it checks, so
    // (shard, drainStartNs) names the drain.
    std::map<std::pair<uint32_t, uint64_t>, std::pair<uint64_t, uint64_t>>
        drains; // -> (last checkDoneNs, requests)
    for (const obs::StageRecord &r : records) {
        if (r.shed || r.batchSize == 0)
            continue;
        queue.add(r.stageUs(obs::Stage::Queue));
        auto &d = drains[{r.shard, r.drainStartNs}];
        d.first = std::max(d.first, r.checkDoneNs);
        d.second += r.batchSize;
    }
    s.queueP50 = queue.quantile(0.5);
    s.queueP99 = queue.quantile(0.99);
    uint64_t busyNs = 0, requests = 0;
    for (const auto &[key, d] : drains) {
        busyNs += d.first - key.second;
        requests += d.second;
    }
    s.nsPerCheck = requests ? static_cast<double>(busyNs) / requests : 0.0;
    s.reqsPerDrain =
        drains.empty() ? 0.0 : static_cast<double>(requests) / drains.size();
    return s;
}

/**
 * @return The saturation throughput: the median over windows of the
 *         bottleneck stage's capacity by CPU time.
 */
double
cpuRate(const PhaseResult &phase)
{
    return median(phase.windowCpuRates);
}

std::string
socketPath(const Args &args, const char *tag)
{
    return args.socketDir + "/dracobench-" + std::to_string(::getpid()) +
           "-" + tag + ".sock";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload w = args.workload;
    const bool overSocket = w == Workload::WarmUnix;
    const bool churn = w == Workload::Churn;

    std::printf("dracobench: provenance {\"build_type\": %s, \"compiler\": %s, "
                "\"cxx_flags\": %s, \"cpu\": %s, \"nproc\": %ld, "
                "\"workload\": \"%s\", \"seed\": %" PRIu64 ", "
                "\"seconds\": %g, \"trace\": %d}\n",
                jsonString(DRACOBENCH_BUILD_TYPE).c_str(),
                jsonString(DRACOBENCH_COMPILER).c_str(),
                jsonString(DRACOBENCH_CXX_FLAGS).c_str(),
                jsonString(cpuModel()).c_str(), ::sysconf(_SC_NPROCESSORS_ONLN),
                workloadName(w), args.seed, args.seconds, args.trace ? 1 : 0);
    std::fflush(stdout);

    const Inputs inputs = makeInputs(w, args.seed, args.corruptReference);
    Schedule schedule(inputs, args.seed);
    const std::vector<Step> warmup = warmupScript(inputs, schedule);
    const std::vector<Step> censusSteps =
        args.trace ? censusScript(inputs, schedule) : std::vector<Step>{};

    Gate gate(inputs);
    // Input generation's freed scratch goes back to the kernel first,
    // so the service cannot hide in it. Memory is sampled with the
    // service alive: VmHWM would also hold input generation's peak.
    ::malloc_trim(0);
    const double rssBefore = procStatusBytes("VmRSS");
    double rssPeak = rssBefore;
    std::vector<double> setupCpu, setupWall;
    Rig rig;
    for (int i = 0; i < kSetups; ++i) {
        rig = Rig{}; // the previous service stops before the next starts
        rig = setUp(inputs, warmup, gate);
        setupCpu.push_back(rig.setupCpuSeconds);
        setupWall.push_back(rig.setupSeconds);
        rssPeak = std::max(rssPeak, procStatusBytes("VmRSS"));
    }

    const double S = args.seconds;
    const double rate = fixedRate(w);
    // Slots and the in-process transport must outlive the service's
    // last completion, so rig.service->stop() runs before they go.
    SlotPool pool;
    std::unique_ptr<InprocTransport> inproc;

    Census census;
    if (args.trace)
        runScript(inputs, rig, censusSteps, gate, &census);

    // Churn swaps its hot tenants through both phases; the warm
    // workloads swap their probe tenant through the fixed-rate phase.
    std::unique_ptr<Swapper> swapper;
    auto startSwaps = [&] {
        if (!swapper)
            swapper = std::make_unique<Swapper>(inputs, rig, gate,
                                                kSwapPeriodUs);
    };
    if (churn)
        startSwaps();

    // Only the saturation phase feeds a bounded metric, so it gets most
    // of an untraced run. The traced run measures an untraced
    // saturation phase first, for obs.trace_overhead; every other phase
    // it runs is traced.
    const double satSeconds = args.trace ? S / 4 : 3 * S / 4;
    const double fixedSeconds = args.trace ? S / 2 : S / 4;
    PhaseResult sat, fixed, satUntraced;
    std::string metricsText;
    std::vector<obs::StageRecord> serverRecords;
    if (overSocket) {
        // Each phase gets a frontend of its own, so the traced
        // fixed-rate frontend's /metrics and StageRecords cover that
        // phase alone.
        auto onFrontend = [&](const char *tag, bool traced, bool scrape,
                              auto &&phase) {
            Frontend f = startFrontend(inputs, rig, socketPath(args, tag),
                                       traced);
            if (!f.client)
                fatal("dracobench: could not start the socket frontend");
            UnixTransport t(inputs, rig, f.client->fd(), pool);
            PhaseResult r = phase(t, Stages{rig.threads, f.threads});
            if (scrape) {
                metricsText = httpGet(f.server->metricsPort(), "/metrics");
                for (const obs::SlowRecord &s :
                     f.server->serveObs()->slowRecords())
                    serverRecords.push_back(s.rec);
            }
            return r;
        };
        if (args.trace)
            satUntraced = onFrontend(
                "u", false, false,
                [&](Transport &t, const Stages &pipeline) {
                    return closedLoop(t, pool, schedule, gate, S / 4,
                                      kWindow, false, pipeline);
                });
        sat = onFrontend(
            "s", args.trace, false,
            [&](Transport &t, const Stages &pipeline) {
                return closedLoop(t, pool, schedule, gate, satSeconds,
                                  kWindow, false, pipeline);
            });
        fixed = onFrontend("f", args.trace, args.trace,
                           [&](Transport &t, const Stages &) {
                               startSwaps();
                               return openLoop(t, pool, schedule, gate,
                                               fixedSeconds, rate, false);
                           });
    } else {
        // Outlives the phases: completions call back into it until the
        // service stops.
        inproc = std::make_unique<InprocTransport>(inputs, rig);
        InprocTransport &t = *inproc;
        if (args.trace)
            satUntraced = closedLoop(t, pool, schedule, gate, S / 4, kWindow,
                                     false, Stages{rig.threads});
        sat = closedLoop(t, pool, schedule, gate, satSeconds, kWindow,
                         args.trace, Stages{rig.threads});
        startSwaps();
        fixed = openLoop(t, pool, schedule, gate, fixedSeconds, rate,
                         args.trace);
    }
    bool ok = sat.ok && fixed.ok && satUntraced.ok && swapper->ok();
    const std::vector<SwapSample> swaps = swapper->stop();

    serve::ServiceStatsSnapshot stats;
    rig.service->serviceStats(stats);
    gate.restoreFailures(stats.restoreFailures);
    const uint64_t shed = rig.service->totalRejects();
    rig.service->stop();

    const double throughput = cpuRate(sat);
    const double setupSeconds = median(setupCpu);
    const double wallThroughput = median(sat.windowRates);
    const double p50 = median(fixed.windowP50);
    const double p99 = quantile(fixed.windowP99, kTailAcross);
    const double swapP99 =
        windowedTail(swaps, fixed.startNs, fixed.endNs, 0.99, kTailAcross);
    const double lateness99 = fixed.latenessUs.quantile(0.99);
    std::printf("dracobench: %s saturation: %.0f checks/s bottleneck-stage "
                "capacity by CPU time (median of %zu windows), %.0f per wall "
                "second; fixed rate %.0f checks/s: batch latency p50 %.2f "
                "us, p99 %.2f us (%" PRIu64 " batches), generator lateness "
                "p99 %.2f us; swap p99 %.2f us (%zu swaps); set-up %.3f CPU "
                "s, %.3f wall s\n",
                workloadName(w), throughput, sat.windowCpuRates.size(),
                wallThroughput, rate, p50, p99, fixed.latencySamples,
                lateness99, swapP99, swaps.size(), setupSeconds,
                median(setupWall));

    LayerResults layers;
    if (args.trace) {
        layers = measureLayers(inputs, warmup, censusSteps, census.pathLog);
        std::printf("dracobench: census fingerprint %016" PRIx64
                    " over %" PRIu64 " checks\n",
                    census.digest(), census.checks);
    }

    const uint64_t failed = gate.failed() + layers.pathMismatches +
                            layers.shadowRestoreFailures;
    const bool correct = ok && failed == 0;
    if (!correct)
        std::printf("dracobench: GATE FAILED: %" PRIu64 " wrong, %" PRIu64
                    " refused, %" PRIu64 " lost, %" PRIu64
                    " restore failures, %" PRIu64 " census paths off the "
                    "shadow replay%s\n",
                    gate.wrong(), gate.refused(), gate.lostCount(),
                    stats.restoreFailures + layers.shadowRestoreFailures,
                    layers.pathMismatches, ok ? "" : ", load loop failure");

    Report report;
    if (!args.trace) {
        report.add("throughput_cps", throughput, "1/s");
        report.add("ok_share",
                   1.0 - static_cast<double>(failed) /
                             std::max<uint64_t>(1, gate.attempted()),
                   "share");
        report.add("setup_s", setupSeconds, "s");
        report.add("mem_mb", (rssPeak - rssBefore) / (1024.0 * 1024.0),
                   "MiB");
    } else {
        report.add("e2e.throughput_wall_cps", wallThroughput, "1/s");
        report.add("e2e.latency_p50_us", p50, "us");
        report.add("e2e.latency_p99_us", p99, "us");
        report.add("e2e.swap_p99_us", swapP99, "us");
        report.add("e2e.setup_wall_s", median(setupWall), "s");
        report.add("loadgen.lateness_p99_us", lateness99, "us");
        const ServiceLayer svc =
            serviceLayer(overSocket ? serverRecords : fixed.records);
        report.add("serve.service.queue_wait_us.p50", svc.queueP50, "us");
        report.add("serve.service.queue_wait_us.p99", svc.queueP99, "us");
        report.add("serve.service.ns_per_check", svc.nsPerCheck, "ns");
        report.add("serve.service.reqs_per_drain", svc.reqsPerDrain, "count");
        report.add("serve.service.shed", static_cast<double>(shed), "count");
        const auto stages = scrapeStages(metricsText);
        auto stage = [&](const char *key) {
            auto it = stages.find(key);
            return it == stages.end() ? 0.0 : it->second;
        };
        report.add("serve.server.parse_us.p50", stage("parse/0.5"), "us");
        report.add("serve.server.submit_us.p50", stage("submit/0.5"), "us");
        report.add("serve.server.reply_us.p50", stage("reply/0.5"), "us");
        report.add("serve.server.reply_us.p99", stage("reply/0.99"), "us");
        report.add("serve.wire.encode_ns_per_req", layers.wireEncodeNsPerReq,
                   "ns");
        report.add("serve.wire.decode_ns_per_req", layers.wireDecodeNsPerReq,
                   "ns");
        report.add("serve.wire.bytes_per_req", layers.wireBytesPerReq, "B");
        report.add("core.check_ns", layers.checkNs, "ns");
        report.add("core.check_ns.vat_hit", layers.checkNsVatHit, "ns");
        const double checks =
            static_cast<double>(std::max<uint64_t>(1, census.checks));
        report.add("core.path_share.spt_allow", census.paths[0] / checks,
                   "share");
        report.add("core.path_share.vat_hit", census.paths[1] / checks,
                   "share");
        report.add("core.path_share.filter_allowed", census.paths[2] / checks,
                   "share");
        report.add("core.path_share.filter_denied", census.paths[3] / checks,
                   "share");
        report.add("core.vat_hit_rate", layers.vatHitRate, "share");
        report.add("core.key_extract_ns", layers.keyExtractNs, "ns");
        report.add("core.vat_lookup_ns", layers.vatLookupNs, "ns");
        report.add("core.vat_insert_ns", layers.vatInsertNs, "ns");
        report.add("hash.vat_hash_ns", layers.vatHashNs, "ns");
        report.add("hash.key_bytes", layers.keyBytes, "B");
        report.add("seccomp.filter_run_ns", layers.filterRunNs, "ns");
        report.add("seccomp.insns_per_run", layers.insnsPerRun, "count");
        report.add("seccomp.filter_runs",
                   static_cast<double>(census.paths[2] + census.paths[3]),
                   "count");
        report.add("lifecycle.evictions",
                   static_cast<double>(census.after.evictions -
                                       census.before.evictions),
                   "count");
        report.add("lifecycle.restores",
                   static_cast<double>(census.after.restores -
                                       census.before.restores),
                   "count");
        report.add("lifecycle.restore_failures",
                   static_cast<double>(stats.restoreFailures), "count");
        report.add("lifecycle.encode_us", layers.encodeUs, "us");
        report.add("lifecycle.restore_us", layers.restoreUs, "us");
        report.add("lifecycle.snapshot_bytes", layers.snapshotBytes, "B");
        report.add("policy.compile_ms", layers.compileMs, "ms");
        report.add("policy.swaps",
                   static_cast<double>(census.after.policySwaps -
                                       census.before.policySwaps),
                   "count");
        report.add("policy.dedup_hits",
                   static_cast<double>(census.after.dedupHits), "count");
        const double untraced = cpuRate(satUntraced);
        report.add("obs.trace_overhead",
                   untraced > 0 ? throughput / untraced : 0.0, "ratio");
        report.add("census.checks", static_cast<double>(census.checks),
                   "count");
    }

    std::printf("%s\n", report.json(correct, gate.attempted(), failed).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
