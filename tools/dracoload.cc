/**
 * @file
 * dracoload — load generator for the check-serving subsystem.
 *
 * Replays a recorded trace (any format openTraceStream understands)
 * against either a dracod daemon (--socket path or --connect
 * host:port) or an in-process CheckService (--shards), dealing events
 * round-robin across N tenants exactly like the consolidation
 * experiments do. Closed-loop mode (the default) drives each tenant
 * with blocking batches and reports wall latency quantiles;
 * --open-loop fires every batch without waiting for verdicts, which
 * is how admission control is pushed into visible load shedding.
 *
 * Overloaded verdicts are a backpressure signal, not a loss: the
 * server attaches a retryAfterUs hint and dracoload honors it, waiting
 * (capped by --retry-cap-us) before re-submitting the shed requests up
 * to --retries times. The summary separates `retried` (re-submissions
 * that eventually got a verdict) from `shed` (requests still
 * Overloaded after the retry budget was spent).
 *
 * Closed-loop extras: --mux-tenants groups several logical tenants
 * onto one driver (and in socket mode one connection), interleaving
 * their batches round-robin; --swap-profile-every hot-swaps each
 * tenant's profile through the --swap-profiles rotation at fixed
 * batch boundaries, exercising the epoch-versioned policy subsystem
 * under live traffic.
 *
 * The per-tenant verdict lines printed at the end come from
 * *server-side* tenant stats, so two closed-loop runs against different
 * shard counts must print byte-identical verdict counts — the CI smoke
 * job asserts exactly that. Swaps don't break this: a swap fires
 * between two blocking batches of the same tenant, so its position in
 * the tenant's request stream is identical at any shard count.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/tracer.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/wire.hh"
#include "support/cliflags.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/random.hh"
#include "support/stats.hh"
#include "trace/replay.hh"

using namespace draco;
namespace wire = draco::serve::wire;

namespace {

constexpr size_t kStatusCount = 5;

struct TenantLoad {
    std::string name;
    serve::TenantId id = serve::kInvalidTenant;
    std::vector<os::SyscallRequest> reqs;
    uint64_t statuses[kStatusCount] = {};
    uint64_t transportErrors = 0;
    uint64_t retried = 0; ///< Requests re-submitted after Overloaded.
    uint64_t shed = 0;    ///< Still Overloaded with no retries left.
    uint64_t batchesDone = 0;  ///< Completed batches (swap cadence).
    uint64_t swapsIssued = 0;  ///< UpdateProfile calls that succeeded.
    uint64_t swapFailures = 0; ///< UpdateProfile calls that failed.
    size_t swapCursor = 0;     ///< Next entry in the swap rotation.
    QuantileSketch latencyUs;
};

/**
 * Live hot-swap schedule: every `every` completed batches a tenant's
 * profile is replaced with the next entry of `profiles`, rotating.
 * Swaps fire between two of the tenant's blocking batches, so the swap
 * boundary in the tenant's request stream is deterministic no matter
 * how many shards or driver threads are in play — that's what lets the
 * CI smoke job compare verdict fingerprints across shard counts even
 * with swaps in flight.
 */
struct SwapPlan {
    uint64_t every = 0; ///< Batches between swaps; 0 disables.
    std::vector<std::string> profiles;
};

/** How Overloaded verdicts are retried. */
struct RetryPolicy {
    unsigned retries = 0;  ///< Re-submissions per request; 0 disables.
    uint32_t capUs = 50000; ///< Ceiling on one retryAfterUs wait.
};

/** Honor the server's backpressure hint, bounded by the cap. */
void
backoffSleep(uint32_t hintUs, const RetryPolicy &policy)
{
    uint32_t us = std::min(std::max<uint32_t>(hintUs, 1u),
                           policy.capUs);
    std::this_thread::sleep_for(std::chrono::microseconds(us));
}

double
elapsedSeconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/** One closed-loop batch for @p tenant at @p pos; returns requests consumed. */
uint32_t
runClosedBatch(serve::Client &client, TenantLoad &tenant, size_t pos,
               uint32_t batch, const RetryPolicy &policy,
               std::vector<os::SyscallRequest> &work,
               std::vector<os::SyscallRequest> &again,
               std::vector<serve::CheckResponse> &resps)
{
    uint32_t n = static_cast<uint32_t>(
        std::min<size_t>(batch, tenant.reqs.size() - pos));
    work.assign(tenant.reqs.begin() + pos,
                tenant.reqs.begin() + pos + n);
    unsigned attempt = 0;
    while (!work.empty()) {
        resps.resize(work.size());
        auto t0 = std::chrono::steady_clock::now();
        if (!client.checkBatch(tenant.id, work.data(),
                               static_cast<uint32_t>(work.size()),
                               resps.data())) {
            tenant.transportErrors += work.size();
            break;
        }
        tenant.latencyUs.add(elapsedSeconds(t0) * 1e6);
        // Overloaded is a backpressure signal: retry those
        // requests after the server's hinted wait, tally
        // everything else as a final verdict.
        again.clear();
        uint32_t waitUs = 0;
        for (size_t i = 0; i < work.size(); ++i) {
            bool overloaded = resps[i].status ==
                              serve::CheckStatus::Overloaded;
            if (overloaded && attempt < policy.retries) {
                again.push_back(work[i]);
                waitUs = std::max(waitUs, resps[i].retryAfterUs);
                continue;
            }
            ++tenant.statuses[static_cast<size_t>(resps[i].status)];
            if (overloaded)
                ++tenant.shed;
        }
        if (again.empty())
            break;
        ++attempt;
        tenant.retried += again.size();
        backoffSleep(waitUs, policy);
        work.swap(again);
    }
    return n;
}

/**
 * Closed loop over a tenant group sharing one client: blocking
 * batches, dealt round-robin across the group's tenants so several
 * logical tenants multiplex one connection (--mux-tenants). Per-tenant
 * request order is preserved — a tenant's next batch is never issued
 * before its previous one resolved — which keeps both verdicts and
 * swap boundaries deterministic.
 */
void
runClosedLoopGroup(serve::Client &client,
                   std::vector<TenantLoad *> &group, uint32_t batch,
                   const RetryPolicy &policy, const SwapPlan &swap)
{
    std::vector<serve::CheckResponse> resps(batch);
    std::vector<os::SyscallRequest> work;
    std::vector<os::SyscallRequest> again;
    std::vector<size_t> pos(group.size(), 0);
    bool more = true;
    while (more) {
        more = false;
        for (size_t g = 0; g < group.size(); ++g) {
            TenantLoad &tenant = *group[g];
            if (pos[g] >= tenant.reqs.size())
                continue;
            pos[g] += runClosedBatch(client, tenant, pos[g], batch,
                                     policy, work, again, resps);
            if (pos[g] < tenant.reqs.size())
                more = true;
            // Swap boundary: between two blocking batches of this
            // tenant, so every request before it ran under the old
            // profile and every request after it under the new one.
            ++tenant.batchesDone;
            if (swap.every > 0 && tenant.batchesDone % swap.every == 0 &&
                pos[g] < tenant.reqs.size()) {
                const std::string &next =
                    swap.profiles[tenant.swapCursor++ %
                                  swap.profiles.size()];
                if (client.updateProfile(tenant.id, next))
                    ++tenant.swapsIssued;
                else
                    ++tenant.swapFailures;
            }
        }
    }
}

/** Open loop, in-process: fire every batch, wait only at the end. */
void
runOpenLoopLocal(serve::CheckService &service,
                 std::vector<TenantLoad> &tenants, uint32_t batch,
                 const RetryPolicy &policy)
{
    struct Pending {
        TenantLoad *tenant;
        std::vector<os::SyscallRequest> reqs;
        std::vector<serve::CheckResponse> resps;
        serve::Batch done;
    };
    std::vector<std::unique_ptr<Pending>> pending;
    // Interleave tenants round-robin so every shard sees arrivals from
    // all of its tenants at once, as a real open-loop frontend would.
    size_t remaining = tenants.size();
    std::vector<size_t> cursor(tenants.size(), 0);
    while (remaining > 0) {
        remaining = 0;
        for (TenantLoad &tenant : tenants) {
            size_t i = &tenant - tenants.data();
            if (cursor[i] >= tenant.reqs.size())
                continue;
            uint32_t n = static_cast<uint32_t>(std::min<size_t>(
                batch, tenant.reqs.size() - cursor[i]));
            auto p = std::make_unique<Pending>();
            p->tenant = &tenant;
            p->reqs.assign(tenant.reqs.begin() + cursor[i],
                           tenant.reqs.begin() + cursor[i] + n);
            p->resps.resize(n);
            service.submitBatch(tenant.id, p->reqs.data(), n,
                                p->resps.data(), p->done);
            pending.push_back(std::move(p));
            cursor[i] += n;
            if (cursor[i] < tenant.reqs.size())
                ++remaining;
        }
    }
    // Collect verdicts; Overloaded batches go back for another round
    // after the server's hinted wait, until the retry budget is spent.
    for (unsigned attempt = 0; !pending.empty(); ++attempt) {
        std::vector<std::unique_ptr<Pending>> next;
        uint32_t waitUs = 0;
        for (auto &p : pending) {
            p->done.wait();
            std::vector<os::SyscallRequest> again;
            for (size_t i = 0; i < p->reqs.size(); ++i) {
                bool overloaded = p->resps[i].status ==
                                  serve::CheckStatus::Overloaded;
                if (overloaded && attempt < policy.retries) {
                    again.push_back(p->reqs[i]);
                    waitUs = std::max(waitUs, p->resps[i].retryAfterUs);
                    continue;
                }
                ++p->tenant->statuses[
                    static_cast<size_t>(p->resps[i].status)];
                if (overloaded)
                    ++p->tenant->shed;
            }
            if (again.empty())
                continue;
            auto r = std::make_unique<Pending>();
            r->tenant = p->tenant;
            r->reqs = std::move(again);
            r->resps.resize(r->reqs.size());
            r->tenant->retried += r->reqs.size();
            next.push_back(std::move(r));
        }
        if (next.empty())
            break;
        backoffSleep(waitUs, policy);
        for (auto &r : next)
            service.submitBatch(r->tenant->id, r->reqs.data(),
                                static_cast<uint32_t>(r->reqs.size()),
                                r->resps.data(), r->done);
        pending = std::move(next);
    }
}

/** Open loop over the wire: pipeline frames, reap replies in parallel. */
void
runOpenLoopSocket(serve::SocketClient &client,
                  std::vector<TenantLoad> &tenants, uint32_t batch,
                  const RetryPolicy &policy)
{
    // Every in-flight batch keeps its requests so an Overloaded
    // verdict can be re-submitted under a fresh batchId.
    struct Flight {
        TenantLoad *tenant;
        std::vector<os::SyscallRequest> reqs;
        unsigned attempt = 0;
    };
    std::mutex flightMutex;
    std::map<uint64_t, Flight> flights;
    std::atomic<uint64_t> nextBatchId{1};
    std::atomic<uint64_t> outstanding{0};
    std::atomic<bool> readerFailed{false};
    // The reader re-sends shed batches while the main thread is still
    // pipelining planned ones, so writes must not interleave.
    std::mutex writeMutex;

    auto sendBatch = [&](Flight flight) {
        wire::CheckBatch msg;
        msg.batchId = nextBatchId.fetch_add(1);
        msg.tenantId = flight.tenant->id;
        msg.reqs = flight.reqs;
        std::vector<uint8_t> payload;
        wire::encode(payload, msg);
        {
            std::lock_guard<std::mutex> lock(flightMutex);
            flights.emplace(msg.batchId, std::move(flight));
        }
        std::lock_guard<std::mutex> lock(writeMutex);
        if (!wire::writeFrame(client.fd(), payload)) {
            std::lock_guard<std::mutex> flock(flightMutex);
            flights.erase(msg.batchId);
            return false;
        }
        return true;
    };

    // Pre-plan every batch so the reader knows the total reply count
    // before the first frame goes out.
    std::vector<Flight> planned;
    std::vector<size_t> cursor(tenants.size(), 0);
    size_t remaining = tenants.size();
    while (remaining > 0) {
        remaining = 0;
        for (TenantLoad &tenant : tenants) {
            size_t i = &tenant - tenants.data();
            if (cursor[i] >= tenant.reqs.size())
                continue;
            uint32_t n = static_cast<uint32_t>(std::min<size_t>(
                batch, tenant.reqs.size() - cursor[i]));
            Flight flight;
            flight.tenant = &tenant;
            flight.reqs.assign(tenant.reqs.begin() + cursor[i],
                               tenant.reqs.begin() + cursor[i] + n);
            planned.push_back(std::move(flight));
            cursor[i] += n;
            if (cursor[i] < tenant.reqs.size())
                ++remaining;
        }
    }
    outstanding.store(planned.size());

    std::thread reader([&] {
        std::vector<uint8_t> payload;
        while (outstanding.load() > 0) {
            wire::CheckBatchReply reply;
            if (!wire::readFrame(client.fd(), payload) ||
                !wire::decode(payload, reply)) {
                readerFailed.store(true);
                return;
            }
            Flight flight;
            {
                std::lock_guard<std::mutex> lock(flightMutex);
                auto it = flights.find(reply.batchId);
                if (it == flights.end() ||
                    it->second.reqs.size() != reply.resps.size()) {
                    readerFailed.store(true);
                    return;
                }
                flight = std::move(it->second);
                flights.erase(it);
            }
            std::vector<os::SyscallRequest> again;
            uint32_t waitUs = 0;
            for (size_t i = 0; i < reply.resps.size(); ++i) {
                bool overloaded = reply.resps[i].status ==
                                  serve::CheckStatus::Overloaded;
                if (overloaded && flight.attempt < policy.retries) {
                    again.push_back(flight.reqs[i]);
                    waitUs = std::max(waitUs,
                                      reply.resps[i].retryAfterUs);
                    continue;
                }
                ++flight.tenant->statuses[
                    static_cast<size_t>(reply.resps[i].status)];
                if (overloaded)
                    ++flight.tenant->shed;
            }
            if (again.empty()) {
                outstanding.fetch_sub(1);
                continue;
            }
            // Same batch, next attempt: the reply count stays owed, so
            // `outstanding` is untouched.
            flight.tenant->retried += again.size();
            backoffSleep(waitUs, policy);
            Flight retry;
            retry.tenant = flight.tenant;
            retry.reqs = std::move(again);
            retry.attempt = flight.attempt + 1;
            if (!sendBatch(std::move(retry))) {
                readerFailed.store(true);
                outstanding.fetch_sub(1);
                return;
            }
        }
    });
    for (Flight &flight : planned) {
        if (!sendBatch(std::move(flight))) {
            warn("dracoload: open-loop write failed");
            break;
        }
    }
    reader.join();
    if (readerFailed.load())
        warn("dracoload: open-loop reply stream failed");
}

} // namespace

int
main(int argc, char **argv)
{
    support::CliFlags flags(
        "dracoload",
        "Replay a syscall trace against dracod (or an in-process "
        "service) across N tenants.");
    flags.addString("socket", "path",
                    "dracod Unix socket (omit to serve in-process)");
    flags.addString("connect", "host:port",
                    "dracod TCP endpoint (alternative to --socket)");
    flags.addString("trace", "path", "trace to replay (.dtrc/text/strace)");
    flags.addString("profile", "name",
                    "built-in profile every tenant runs",
                    "docker-default");
    flags.addUint("tenants", "n", "tenant count", 4);
    flags.addString("zipf", "s",
                    "deal events to tenants Zipf(s)-skewed instead of "
                    "round-robin (hot tenants model a real fleet)");
    flags.addUint("batch", "k", "requests per check batch", 32);
    flags.addUint("repeat", "n", "replay the trace this many times", 1);
    flags.addUint("max-events", "n", "cap events read from the trace",
                  1u << 20);
    flags.addUint("max-inflight", "n",
                  "per-tenant in-flight admission cap", 1024);
    flags.addUint("filter-copies", "n", "filter copies per tenant", 1);
    flags.addUint("shards", "n", "in-process service shards", 1);
    flags.addUint("queue-capacity", "n",
                  "in-process per-shard queue capacity", 4096);
    flags.addUint("max-batch", "n", "in-process drain batch", 64);
    flags.addUint("swap-profile-every", "n",
                  "hot-swap each tenant's profile every n completed "
                  "batches (closed loop only; 0 disables)", 0);
    flags.addString("swap-profiles", "a,b,...",
                    "built-in profiles the swap schedule rotates "
                    "through", "docker-default,gvisor");
    flags.addUint("mux-tenants", "n",
                  "closed loop: logical tenants multiplexed per "
                  "driver connection", 1);
    flags.addUint("retries", "n",
                  "re-submissions per Overloaded request", 3);
    flags.addUint("retry-cap-us", "us",
                  "cap on one retryAfterUs backoff wait", 50000);
    flags.addFlag("open-loop",
                  "fire batches without waiting (pushes backpressure)");
    flags.addString("latency-json", "path",
                    "write the full client-side latency breakdown "
                    "(per-tenant and merged quantile sketches) as JSON");
    flags.addFlag("shutdown", "send Shutdown to the daemon when done");
    flags.addCommon();

    if (!flags.parse(argc, argv)) {
        fprintf(stderr, "dracoload: %s\n%s", flags.error().c_str(),
                flags.helpText().c_str());
        return 1;
    }
    if (flags.helpRequested()) {
        fputs(flags.helpText().c_str(), stdout);
        return 0;
    }
    if (flags.str("trace").empty())
        fatal("dracoload: --trace is required");

    // ---- load and deal the trace ----

    trace::OpenedTrace opened = trace::openTraceStream(flags.str("trace"));
    if (!opened.ok())
        fatal("dracoload: %s: %s", flags.str("trace").c_str(),
              opened.error.c_str());

    uint64_t tenantCount = std::max<uint64_t>(1, flags.uintValue("tenants"));
    std::vector<TenantLoad> tenants(tenantCount);
    for (uint64_t i = 0; i < tenantCount; ++i)
        tenants[i].name = "t" + std::to_string(i);

    double zipfSkew = 0.0;
    if (!flags.str("zipf").empty()) {
        char *end = nullptr;
        zipfSkew = strtod(flags.str("zipf").c_str(), &end);
        if (end == nullptr || *end != '\0' || zipfSkew < 0.0)
            fatal("dracoload: --zipf wants a non-negative number, got "
                  "'%s'", flags.str("zipf").c_str());
    }
    std::unique_ptr<ZipfSampler> zipf;
    Rng zipfRng(splitSeed(0x647261636f6c6fULL, "dracoload/zipf"));
    if (zipfSkew > 0.0)
        zipf = std::make_unique<ZipfSampler>(tenantCount, zipfSkew);

    uint64_t maxEvents = flags.uintValue("max-events");
    workload::TraceEvent event;
    uint64_t loaded = 0;
    while (loaded < maxEvents && opened.stream->next(event)) {
        uint64_t slot = zipf ? zipf->sample(zipfRng)
                             : loaded % tenantCount;
        tenants[slot].reqs.push_back(event.req);
        ++loaded;
    }
    if (loaded == 0)
        fatal("dracoload: trace %s holds no events",
              flags.str("trace").c_str());
    uint64_t repeat = std::max<uint64_t>(1, flags.uintValue("repeat"));
    if (repeat > 1) {
        for (TenantLoad &tenant : tenants) {
            std::vector<os::SyscallRequest> base = tenant.reqs;
            tenant.reqs.reserve(base.size() * repeat);
            for (uint64_t r = 1; r < repeat; ++r)
                tenant.reqs.insert(tenant.reqs.end(), base.begin(),
                                   base.end());
        }
    }
    uint64_t totalRequests = 0;
    for (const TenantLoad &tenant : tenants)
        totalRequests += tenant.reqs.size();

    // ---- backend ----

    if (!flags.str("socket").empty() && !flags.str("connect").empty())
        fatal("dracoload: --socket and --connect are exclusive");
    bool socketMode = !flags.str("socket").empty() ||
                      !flags.str("connect").empty();
    auto dialServer = [&flags]() {
        return flags.str("socket").empty()
                   ? serve::SocketClient::connectTcp(flags.str("connect"))
                   : serve::SocketClient::connect(flags.str("socket"));
    };
    obs::TraceSession session;
    std::unique_ptr<serve::CheckService> localService;
    std::unique_ptr<serve::SocketClient> socketClient;
    std::unique_ptr<serve::LocalClient> localClient;
    serve::Client *client = nullptr;

    if (socketMode) {
        socketClient = dialServer();
        if (!socketClient)
            return 1;
        client = socketClient.get();
    } else {
        if (!flags.str("trace-out").empty()) {
            obs::SessionConfig config;
            config.outPath = flags.str("trace-out");
            // Serve tracks sample every N checked requests per shard.
            config.tracer.recordEvents = false;
            config.tracer.capacity = 1024;
            config.tracer.sampleEveryCycles =
                flags.given("sample-every")
                    ? flags.uintValue("sample-every") : 1000;
            session.configure(config);
        }
        serve::ServiceOptions options;
        options.shards =
            static_cast<unsigned>(flags.uintValue("shards"));
        options.queueCapacity =
            static_cast<uint32_t>(flags.uintValue("queue-capacity"));
        options.maxBatch =
            static_cast<uint32_t>(flags.uintValue("max-batch"));
        options.session = session.enabled() ? &session : nullptr;
        localService = std::make_unique<serve::CheckService>(options);
        localClient = std::make_unique<serve::LocalClient>(*localService);
        client = localClient.get();
    }

    serve::TenantOptions tenantOptions;
    tenantOptions.maxInFlight =
        static_cast<uint32_t>(flags.uintValue("max-inflight"));
    tenantOptions.filterCopies =
        static_cast<unsigned>(flags.uintValue("filter-copies"));
    for (TenantLoad &tenant : tenants) {
        tenant.id = client->createTenant(tenant.name,
                                         flags.str("profile"),
                                         tenantOptions);
        if (tenant.id == serve::kInvalidTenant)
            fatal("dracoload: could not create tenant %s",
                  tenant.name.c_str());
    }

    // ---- drive ----

    uint32_t batch = static_cast<uint32_t>(
        std::max<uint64_t>(1, flags.uintValue("batch")));
    RetryPolicy retryPolicy;
    retryPolicy.retries =
        static_cast<unsigned>(flags.uintValue("retries"));
    retryPolicy.capUs = static_cast<uint32_t>(
        std::max<uint64_t>(1, flags.uintValue("retry-cap-us")));

    SwapPlan swapPlan;
    swapPlan.every = flags.uintValue("swap-profile-every");
    if (swapPlan.every > 0) {
        // Swaps need a blocking request stream to define the
        // boundary; the open-loop pipelines can't provide one.
        if (flags.flag("open-loop"))
            fatal("dracoload: --swap-profile-every needs the closed "
                  "loop (drop --open-loop)");
        std::string list = flags.str("swap-profiles");
        size_t from = 0;
        while (from <= list.size()) {
            size_t comma = list.find(',', from);
            if (comma == std::string::npos)
                comma = list.size();
            std::string name = list.substr(from, comma - from);
            if (!name.empty()) {
                if (!serve::builtinProfileByName(name))
                    fatal("dracoload: --swap-profiles: unknown "
                          "profile '%s'", name.c_str());
                swapPlan.profiles.push_back(std::move(name));
            }
            from = comma + 1;
        }
        if (swapPlan.profiles.empty())
            fatal("dracoload: --swap-profiles names no profiles");
    }
    uint64_t mux = std::max<uint64_t>(1, flags.uintValue("mux-tenants"));
    if (mux > 1 && flags.flag("open-loop"))
        inform("dracoload: open loop already multiplexes every tenant "
               "on one connection; --mux-tenants ignored");

    auto start = std::chrono::steady_clock::now();

    if (flags.flag("open-loop")) {
        if (socketMode)
            runOpenLoopSocket(*socketClient, tenants, batch,
                              retryPolicy);
        else
            runOpenLoopLocal(*localService, tenants, batch,
                             retryPolicy);
    } else {
        // Tenants are dealt into groups of --mux-tenants; one driver
        // (and in socket mode one connection) serves a whole group,
        // interleaving its tenants' batches round-robin. The default
        // group size of 1 keeps the original one-tenant-per-driver
        // closed loop.
        std::vector<std::vector<TenantLoad *>> groups;
        for (size_t i = 0; i < tenants.size(); i += mux) {
            std::vector<TenantLoad *> group;
            for (size_t j = i;
                 j < std::min<size_t>(i + mux, tenants.size()); ++j)
                group.push_back(&tenants[j]);
            groups.push_back(std::move(group));
        }
        uint64_t drivers = flags.given("threads")
            ? std::max<uint64_t>(1, flags.uintValue("threads"))
            : groups.size();
        drivers = std::min<uint64_t>(drivers, groups.size());
        std::atomic<size_t> nextGroup{0};
        std::vector<std::thread> threads;
        for (uint64_t d = 0; d < drivers; ++d) {
            threads.emplace_back([&] {
                // Socket mode: a connection per driver, so drivers
                // don't serialize on one lock-step client.
                std::unique_ptr<serve::SocketClient> own;
                serve::Client *c = client;
                if (socketMode) {
                    own = dialServer();
                    if (!own)
                        return;
                    c = own.get();
                }
                for (;;) {
                    size_t i = nextGroup.fetch_add(1);
                    if (i >= groups.size())
                        break;
                    runClosedLoopGroup(*c, groups[i], batch,
                                       retryPolicy, swapPlan);
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }

    double wallSeconds = elapsedSeconds(start);

    // ---- report ----

    uint64_t totals[kStatusCount] = {};
    uint64_t retried = 0;
    uint64_t shed = 0;
    uint64_t swapsIssued = 0;
    uint64_t swapFailures = 0;
    QuantileSketch latency;
    for (TenantLoad &tenant : tenants) {
        for (size_t s = 0; s < kStatusCount; ++s)
            totals[s] += tenant.statuses[s];
        retried += tenant.retried;
        shed += tenant.shed;
        swapsIssued += tenant.swapsIssued;
        swapFailures += tenant.swapFailures;
        latency.merge(tenant.latencyUs);
    }
    uint64_t answered = 0;
    for (uint64_t n : totals)
        answered += n;

    MetricRegistry registry;
    registry.setText("load.trace", flags.str("trace"));
    registry.setText("load.mode",
                     flags.flag("open-loop") ? "open" : "closed");
    registry.setCounter("load.requests", totalRequests);
    registry.setCounter("load.answered", answered);
    for (size_t s = 0; s < kStatusCount; ++s) {
        registry.setCounter(
            std::string("load.statuses.") +
                serve::checkStatusName(
                    static_cast<serve::CheckStatus>(s)),
            totals[s]);
    }
    registry.setGauge("load.wall_seconds", wallSeconds);
    registry.setGauge("load.wall_qps",
                      wallSeconds > 0.0 ? answered / wallSeconds : 0.0);
    registry.setCounter("load.backpressure.retried", retried);
    registry.setCounter("load.backpressure.shed", shed);
    registry.setCounter("load.backpressure.retries_allowed",
                        retryPolicy.retries);
    registry.setCounter("load.backpressure.retry_cap_us",
                        retryPolicy.capUs);
    if (swapPlan.every > 0) {
        registry.setCounter("load.swap.every", swapPlan.every);
        registry.setCounter("load.swap.issued", swapsIssued);
        registry.setCounter("load.swap.failed", swapFailures);
    }
    if (latency.count() > 0) {
        registry.setGauge("load.latency_us.p50", latency.quantile(0.50));
        registry.setGauge("load.latency_us.p90", latency.quantile(0.90));
        registry.setGauge("load.latency_us.p99", latency.quantile(0.99));
    }

    // Server-side verdict lines: the CI determinism check compares
    // these across shard counts byte for byte.
    for (TenantLoad &tenant : tenants) {
        serve::TenantStats stats;
        if (!client->tenantStats(tenant.id, stats)) {
            warn("dracoload: no stats for tenant %s",
                 tenant.name.c_str());
            continue;
        }
        printf("tenant %s checks=%llu allowed=%llu denied=%llu "
               "vat_hits=%llu rejects=%llu epoch=%llu swaps=%llu\n",
               tenant.name.c_str(),
               static_cast<unsigned long long>(stats.check.checks),
               static_cast<unsigned long long>(stats.allowed),
               static_cast<unsigned long long>(stats.denied),
               static_cast<unsigned long long>(stats.check.vatHits),
               static_cast<unsigned long long>(stats.rejects),
               static_cast<unsigned long long>(stats.epoch),
               static_cast<unsigned long long>(stats.swaps));
        std::string prefix =
            "load.tenants." + MetricRegistry::sanitize(tenant.name);
        registry.setCounter(prefix + ".allowed", stats.allowed);
        registry.setCounter(prefix + ".denied", stats.denied);
        registry.setCounter(prefix + ".rejects", stats.rejects);
        registry.setCounter(prefix + ".checks", stats.check.checks);
        registry.setCounter(prefix + ".epoch", stats.epoch);
        registry.setCounter(prefix + ".swaps", stats.swaps);
    }
    // Service-wide lifecycle line (the dracod stats op): meaningful
    // when the server runs with a resident cap, harmless otherwise.
    serve::ServiceStatsSnapshot svc;
    if (client->serviceStats(svc)) {
        printf("service tenants=%llu resident=%llu snapshotted=%llu "
               "evictions=%llu restores=%llu restore_failures=%llu "
               "policies=%llu dedup_hits=%llu store_bytes=%llu "
               "swaps=%llu swap_failures=%llu stale_discards=%llu "
               "max_epoch=%llu\n",
               static_cast<unsigned long long>(svc.tenants),
               static_cast<unsigned long long>(svc.resident),
               static_cast<unsigned long long>(svc.snapshotted),
               static_cast<unsigned long long>(svc.evictions),
               static_cast<unsigned long long>(svc.restores),
               static_cast<unsigned long long>(svc.restoreFailures),
               static_cast<unsigned long long>(svc.dedupPolicies),
               static_cast<unsigned long long>(svc.dedupHits),
               static_cast<unsigned long long>(svc.storeBytes),
               static_cast<unsigned long long>(svc.policySwaps),
               static_cast<unsigned long long>(svc.policySwapFailures),
               static_cast<unsigned long long>(svc.staleSnapshotDiscards),
               static_cast<unsigned long long>(svc.maxEpoch));
        registry.setCounter("load.service.tenants", svc.tenants);
        registry.setCounter("load.service.resident", svc.resident);
        registry.setCounter("load.service.evictions", svc.evictions);
        registry.setCounter("load.service.restores", svc.restores);
        registry.setCounter("load.service.restore_failures",
                            svc.restoreFailures);
        registry.setCounter("load.service.dedup_policies",
                            svc.dedupPolicies);
        registry.setCounter("load.service.swaps", svc.policySwaps);
        registry.setCounter("load.service.swap_failures",
                            svc.policySwapFailures);
        registry.setCounter("load.service.stale_snapshot_discards",
                            svc.staleSnapshotDiscards);
        registry.setCounter("load.service.max_epoch", svc.maxEpoch);
    }
    printf("summary requests=%llu answered=%llu overloaded=%llu "
           "retried=%llu shed=%llu swaps=%llu wall_s=%.3f "
           "wall_qps=%.0f\n",
           static_cast<unsigned long long>(totalRequests),
           static_cast<unsigned long long>(answered),
           static_cast<unsigned long long>(
               totals[static_cast<size_t>(
                   serve::CheckStatus::Overloaded)]),
           static_cast<unsigned long long>(retried),
           static_cast<unsigned long long>(shed),
           static_cast<unsigned long long>(swapsIssued),
           wallSeconds,
           wallSeconds > 0.0 ? answered / wallSeconds : 0.0);

    if (!socketMode) {
        localService->stop();
        localService->exportMetrics(registry);
        if (session.enabled()) {
            session.exportMetrics(registry, "obs");
            session.writeOutput();
        }
    }
    if (!flags.str("json").empty())
        registry.writeJsonFile(flags.str("json"));

    // Full client-side latency breakdown: one sketch per tenant plus
    // the merged view, with counts, so a harness can compare tails
    // across tenants rather than settling for the three headline
    // gauges above.
    if (!flags.str("latency-json").empty()) {
        MetricRegistry lat;
        lat.setText("latency_us.source", "dracoload client round-trip");
        lat.setCounter("latency_us.all.count", latency.count());
        if (latency.count() > 0)
            lat.setQuantiles("latency_us.all.rtt", latency);
        for (TenantLoad &tenant : tenants) {
            std::string prefix = "latency_us.tenants." +
                                 MetricRegistry::sanitize(tenant.name);
            lat.setCounter(prefix + ".count",
                           tenant.latencyUs.count());
            if (tenant.latencyUs.count() > 0)
                lat.setQuantiles(prefix + ".rtt", tenant.latencyUs);
        }
        lat.writeJsonFile(flags.str("latency-json"));
    }

    if (socketMode && flags.flag("shutdown") &&
        !socketClient->shutdownServer()) {
        warn("dracoload: shutdown request failed");
        return 1;
    }
    return 0;
}
