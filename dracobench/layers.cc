#include "layers.hh"

#include <algorithm>
#include <chrono>
#include <list>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "core/vat.hh"
#include "load.hh"
#include "lifecycle/snapshot.hh"
#include "serve/wire.hh"
#include "support/logging.hh"

namespace dracobench {

using namespace draco;

namespace {

/** Requests each timed loop runs over (at most). */
constexpr size_t kSampleRequests = 65536;

/** Tenants the lifecycle loop snapshots and restores (at most). */
constexpr size_t kSnapshotTenants = 256;

/** Repetitions of every timed loop; the median is reported. */
constexpr int kRepeats = 5;

/** Keep @p value alive so the timed work cannot be optimized away. */
template <typename T>
void
keep(const T &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * @return Median over kRepeats of (time of @p body()) / @p calls, in
 *         nanoseconds per call.
 */
template <typename F>
double
nsPerCall(size_t calls, F &&body)
{
    if (calls == 0)
        return 0.0;
    std::vector<double> ns;
    for (int r = 0; r < kRepeats; ++r) {
        const double t0 = nowSeconds();
        body();
        ns.push_back((nowSeconds() - t0) * 1e9 / calls);
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

/** The service's tenant state, replayed privately. */
class Shadow
{
  public:
    Shadow(const Inputs &inputs, size_t cap)
        : _inputs(inputs), _cap(cap), _tenants(inputs.tenants.size())
    {
    }

    /** @return Tenant @p t's checker, restored if it was evicted. */
    core::DracoSoftwareChecker &
    checker(uint32_t t)
    {
        Tenant &s = _tenants[t];
        if (!s.checker) {
            const auto &policy = policyOf(t);
            s.checker = std::make_unique<core::DracoSoftwareChecker>(policy);
            if (!s.snapshot.empty()) {
                std::string error;
                if (!lifecycle::restoreSnapshot(
                        s.snapshot, _inputs.tenants[t].name,
                        policy->programKey, 1, *s.checker, &error)) {
                    ++restoreFailures;
                    s.checker =
                        std::make_unique<core::DracoSoftwareChecker>(policy);
                }
                s.snapshot.clear();
            }
            _lru.push_front(t);
            s.where = _lru.begin();
        } else {
            _lru.splice(_lru.begin(), _lru, s.where);
        }
        return *s.checker;
    }

    /** Keep at most the cap resident, snapshotting the coldest. */
    void
    enforceCap()
    {
        while (_lru.size() > _cap) {
            const uint32_t t = _lru.back();
            _lru.pop_back();
            Tenant &s = _tenants[t];
            s.snapshot = lifecycle::encodeSnapshot(_inputs.tenants[t].name,
                                                   *s.checker, 1);
            s.checker.reset();
        }
    }

    /** Publish tenant @p t's next epoch: a cold checker, no snapshot. */
    void
    swap(uint32_t t)
    {
        Tenant &s = _tenants[t];
        ++s.epoch;
        s.snapshot.clear();
        if (s.checker)
            s.checker = std::make_unique<core::DracoSoftwareChecker>(
                policyOf(t));
    }

    const std::shared_ptr<const core::CompiledPolicy> &
    policyOf(uint32_t t) const
    {
        const AppInputs &app = _inputs.apps[_inputs.tenants[t].app];
        return app.compiled[sideOfEpoch(_tenants[t].epoch)];
    }

    /** @return Resident tenants, most recently used first. */
    const std::list<uint32_t> &resident() const { return _lru; }

    uint64_t restoreFailures = 0;

  private:
    struct Tenant {
        std::unique_ptr<core::DracoSoftwareChecker> checker;
        std::vector<uint8_t> snapshot;
        uint64_t epoch = 1;
        std::list<uint32_t>::iterator where;
    };

    const Inputs &_inputs;
    size_t _cap;
    std::vector<Tenant> _tenants;
    std::list<uint32_t> _lru;
};

struct CensusRequest {
    uint32_t tenant;
    const os::SyscallRequest *req;
    core::SwPath path;
};

/** Every @p stride-th element of @p xs, at most kSampleRequests. */
template <typename T>
std::vector<T>
sample(const std::vector<T> &xs)
{
    const size_t stride = std::max<size_t>(1, xs.size() / kSampleRequests);
    std::vector<T> out;
    for (size_t i = 0; i < xs.size() && out.size() < kSampleRequests;
         i += stride)
        out.push_back(xs[i]);
    return out;
}

} // namespace

LayerResults
measureLayers(const Inputs &inputs, const std::vector<Step> &warmup,
              const std::vector<Step> &census,
              const std::vector<uint8_t> &servicePaths)
{
    LayerResults r;
    const bool churn = inputs.workload == Workload::Churn;

    // ---- policy: compile every profile the workload uses ----
    {
        std::vector<double> ms;
        for (const AppInputs &app : inputs.apps) {
            for (const seccomp::Profile &profile : app.profiles) {
                const double t0 = nowSeconds();
                auto compiled = core::CompiledPolicy::compile(profile);
                ms.push_back((nowSeconds() - t0) * 1e3);
                keep(compiled->programKey);
            }
        }
        std::sort(ms.begin(), ms.end());
        r.compileMs = ms[ms.size() / 2];
    }

    // ---- core: the shadow replay ----
    Shadow shadow(inputs, churn ? kChurnResidentCap : SIZE_MAX);
    std::vector<core::SwCheckOutcome> outcomes(1024);
    std::vector<CensusRequest> log;
    double censusSeconds = 0.0;
    uint64_t lookups = 0, hits = 0;
    auto replay = [&](const std::vector<Step> &steps, bool isCensus) {
        for (const Step &step : steps) {
            const uint32_t t = step.batch.tenant;
            if (step.kind == Step::Kind::Swap) {
                shadow.swap(t);
                continue;
            }
            const BatchRef &b = step.batch;
            const os::SyscallRequest *reqs =
                &inputs.apps[inputs.tenants[t].app].stream[b.pos];
            outcomes.resize(std::max<size_t>(outcomes.size(), b.count));
            core::DracoSoftwareChecker &checker = shadow.checker(t);
            const double t0 = nowSeconds();
            for (uint32_t i = 0; i < b.count; ++i)
                outcomes[i] = checker.check(reqs[i]);
            const double t1 = nowSeconds();
            if (isCensus) {
                censusSeconds += t1 - t0;
                for (uint32_t i = 0; i < b.count; ++i) {
                    log.push_back({t, &reqs[i], outcomes[i].path});
                    if (outcomes[i].vatProbes == 0)
                        continue;
                    ++lookups;
                    hits += outcomes[i].path == core::SwPath::VatHit;
                }
            }
            shadow.enforceCap();
        }
    };
    replay(warmup, false);
    replay(census, true);
    r.checkNs = log.empty() ? 0.0 : censusSeconds * 1e9 / log.size();
    r.vatHitRate = lookups ? static_cast<double>(hits) / lookups : 0.0;
    r.shadowRestoreFailures = shadow.restoreFailures;
    if (servicePaths.size() != log.size()) {
        r.pathMismatches = std::max(servicePaths.size(), log.size());
    } else {
        for (size_t i = 0; i < log.size(); ++i)
            r.pathMismatches +=
                servicePaths[i] != static_cast<uint8_t>(log[i].path);
    }

    // ---- lifecycle: snapshot and restore the resident tenants ----
    {
        std::vector<uint32_t> tenants;
        for (uint32_t t : shadow.resident()) {
            if (tenants.size() == kSnapshotTenants)
                break;
            tenants.push_back(t);
        }
        std::vector<core::DracoSoftwareChecker *> checkers;
        for (uint32_t t : tenants)
            checkers.push_back(&shadow.checker(t));
        std::vector<std::vector<uint8_t>> snaps(tenants.size());
        r.encodeUs = nsPerCall(tenants.size(), [&] {
            for (size_t i = 0; i < tenants.size(); ++i)
                snaps[i] = lifecycle::encodeSnapshot(
                    inputs.tenants[tenants[i]].name, *checkers[i], 1);
        }) / 1e3;
        double bytes = 0.0;
        for (const auto &snap : snaps)
            bytes += snap.size();
        r.snapshotBytes = tenants.empty() ? 0.0 : bytes / tenants.size();

        // Restore into fresh checkers, built outside the timed loop.
        std::vector<double> us;
        for (int rep = 0; rep < kRepeats && !tenants.empty(); ++rep) {
            std::vector<std::unique_ptr<core::DracoSoftwareChecker>> fresh;
            for (uint32_t t : tenants)
                fresh.push_back(std::make_unique<core::DracoSoftwareChecker>(
                    shadow.policyOf(t)));
            const double t0 = nowSeconds();
            for (size_t i = 0; i < tenants.size(); ++i) {
                std::string error;
                if (!lifecycle::restoreSnapshot(
                        snaps[i], inputs.tenants[tenants[i]].name,
                        shadow.policyOf(tenants[i])->programKey, 1,
                        *fresh[i], &error))
                    ++r.shadowRestoreFailures;
            }
            us.push_back((nowSeconds() - t0) * 1e6 / tenants.size());
        }
        std::sort(us.begin(), us.end());
        r.restoreUs = us.empty() ? 0.0 : us[us.size() / 2];
    }

    const std::vector<CensusRequest> all = sample(log);

    // ---- seccomp: the fallback filter on the census requests ----
    {
        std::vector<std::pair<const seccomp::FilterChain *,
                              const os::SyscallRequest *>> runs;
        uint64_t insns = 0;
        for (const CensusRequest &c : all) {
            const auto &filter = shadow.policyOf(c.tenant)->filter;
            runs.emplace_back(&filter, c.req);
            insns += filter.run(c.req->toSeccompData()).insnsExecuted;
        }
        r.insnsPerRun = runs.empty() ? 0.0
                                     : static_cast<double>(insns) / runs.size();
        r.filterRunNs = nsPerCall(runs.size(), [&] {
            for (const auto &[filter, req] : runs)
                keep(filter->run(req->toSeccompData()).action);
        });
    }

    // ---- core + hash: the VAT-hit path, one layer at a time ----
    {
        // Per app, a checker on its own profile that has validated
        // every sampled VAT-hit request once.
        std::vector<std::unique_ptr<core::DracoSoftwareChecker>> perApp;
        for (const AppInputs &app : inputs.apps)
            perApp.push_back(
                std::make_unique<core::DracoSoftwareChecker>(app.compiled[0]));
        struct Hit {
            uint32_t app;
            core::DracoSoftwareChecker *checker;
            const os::SyscallRequest *req;
            seccomp::ArgVector args;
            uint64_t bitmask;
            core::ArgKey key;
        };
        std::vector<Hit> hitsOnly;
        for (const CensusRequest &c : all) {
            if (c.path != core::SwPath::VatHit)
                continue;
            const uint32_t app = inputs.tenants[c.tenant].app;
            core::DracoSoftwareChecker *checker = perApp[app].get();
            checker->check(*c.req);
            Hit h{app, checker, c.req, {},
                  checker->vat().bitmask(c.req->sid), {}};
            std::copy(c.req->args.begin(), c.req->args.end(), h.args.begin());
            h.key = core::ArgKey(h.bitmask, h.args);
            hitsOnly.push_back(h);
        }
        // Keep only requests that now hit (a request validated under
        // a swap target may be denied by the app's own profile).
        std::erase_if(hitsOnly, [](const Hit &h) {
            return h.bitmask == 0 ||
                   h.checker->check(*h.req).path != core::SwPath::VatHit;
        });
        double keyBytes = 0.0;
        for (const Hit &h : hitsOnly)
            keyBytes += h.key.size();
        const size_t n = hitsOnly.size();
        r.keyBytes = n ? keyBytes / n : 0.0;
        r.checkNsVatHit = nsPerCall(n, [&] {
            for (const Hit &h : hitsOnly)
                keep(h.checker->check(*h.req).allowed);
        });
        r.keyExtractNs = nsPerCall(n, [&] {
            for (const Hit &h : hitsOnly) {
                core::ArgKey key(h.bitmask, h.args);
                keep(key);
            }
        });
        r.vatHashNs = nsPerCall(n, [&] {
            for (const Hit &h : hitsOnly)
                keep(core::vatHash(CuckooWay::H1, h.key));
        });
        r.vatLookupNs = nsPerCall(n, [&] {
            for (const Hit &h : hitsOnly)
                keep(h.checker->vat().lookup(h.req->sid, h.key).has_value());
        });

        // Inserts: every distinct key once, into freshly sized VATs.
        std::vector<const Hit *> distinct;
        std::set<std::tuple<uint32_t, uint16_t, std::string>> seen;
        for (const Hit &h : hitsOnly) {
            std::string bytes(reinterpret_cast<const char *>(h.key.data()),
                              h.key.size());
            if (seen.emplace(h.app, h.req->sid, std::move(bytes)).second)
                distinct.push_back(&h);
        }
        std::vector<std::unique_ptr<core::Vat>> vats;
        auto freshVats = [&] {
            vats.clear();
            for (const AppInputs &app : inputs.apps) {
                vats.push_back(std::make_unique<core::Vat>());
                for (const auto &[sid, spec] : app.compiled[0]->specs)
                    if (spec.checksArguments())
                        vats.back()->configure(sid, spec.bitmask,
                                               spec.estimatedSets);
            }
        };
        std::vector<double> insertNs;
        for (int rep = 0; rep < kRepeats && !distinct.empty(); ++rep) {
            freshVats();
            const double t0 = nowSeconds();
            for (const Hit *h : distinct)
                keep(vats[h->app]->insert(h->req->sid, h->key));
            insertNs.push_back((nowSeconds() - t0) * 1e9 / distinct.size());
        }
        std::sort(insertNs.begin(), insertNs.end());
        r.vatInsertNs = insertNs.empty() ? 0.0 : insertNs[insertNs.size() / 2];
    }

    // ---- serve.wire: one CheckBatch and its reply per census batch ----
    {
        std::vector<serve::wire::CheckBatch> batches;
        std::vector<serve::wire::CheckBatchReply> replies;
        size_t logPos = 0;
        for (const Step &step : census) {
            if (step.kind != Step::Kind::Check)
                continue;
            const BatchRef &b = step.batch;
            const os::SyscallRequest *reqs =
                &inputs.apps[inputs.tenants[b.tenant].app].stream[b.pos];
            serve::wire::CheckBatch msg;
            msg.batchId = batches.size() + 1;
            msg.tenantId = b.tenant + 1;
            msg.reqs.assign(reqs, reqs + b.count);
            serve::wire::CheckBatchReply reply;
            reply.batchId = msg.batchId;
            for (uint32_t i = 0; i < b.count; ++i, ++logPos) {
                serve::CheckResponse resp;
                resp.path = static_cast<uint8_t>(log[logPos].path);
                resp.status = log[logPos].path == core::SwPath::FilterDenied
                                  ? serve::CheckStatus::Denied
                                  : serve::CheckStatus::Allowed;
                resp.epoch = 1;
                reply.resps.push_back(resp);
            }
            batches.push_back(std::move(msg));
            replies.push_back(std::move(reply));
            if (batches.size() * kBatch >= kSampleRequests)
                break;
        }
        std::vector<std::vector<uint8_t>> reqBytes(batches.size()),
            replyBytes(batches.size());
        size_t requests = 0, bytes = 0;
        for (size_t i = 0; i < batches.size(); ++i)
            requests += batches[i].reqs.size();
        r.wireEncodeNsPerReq = nsPerCall(requests, [&] {
            for (size_t i = 0; i < batches.size(); ++i) {
                reqBytes[i].clear();
                replyBytes[i].clear();
                serve::wire::encode(reqBytes[i], batches[i]);
                serve::wire::encode(replyBytes[i], replies[i]);
            }
        });
        for (size_t i = 0; i < batches.size(); ++i)
            bytes += reqBytes[i].size() + replyBytes[i].size() + 8;
        r.wireBytesPerReq =
            requests ? static_cast<double>(bytes) / requests : 0.0;
        serve::wire::CheckBatch msg;
        serve::wire::CheckBatchReply reply;
        bool decoded = true;
        r.wireDecodeNsPerReq = nsPerCall(requests, [&] {
            for (size_t i = 0; i < batches.size(); ++i) {
                decoded &= serve::wire::decode(reqBytes[i], msg);
                decoded &= serve::wire::decode(replyBytes[i], reply);
            }
        });
        if (!decoded)
            fatal("dracobench: wire round trip failed to decode");
    }
    return r;
}

} // namespace dracobench
