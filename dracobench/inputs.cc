#include "inputs.hh"

#include "seccomp/filter_builder.hh"
#include "sim/machine.hh"
#include "support/logging.hh"
#include "workload/generator.hh"

namespace dracobench {

using namespace draco;

namespace {

constexpr uint32_t kWarmTenants = 64;
constexpr uint32_t kChurnTenants = 20000;
constexpr uint32_t kChurnHotTenants = 16;
constexpr double kChurnZipf = 0.99;

/** Warm-up batch size: one tenant's in-flight cap worth of requests. */
constexpr uint32_t kWarmupBatch = 1024;

constexpr uint32_t kChurnWarmupBatches = 8192;
constexpr uint32_t kWarmCensusBatches = 8192;
constexpr uint32_t kChurnCensusBatches = 16384;

static_assert(kStreamLen % kWarmupBatch == 0);
static_assert(kWarmupBatch % kBatch == 0);

std::vector<os::SyscallRequest>
appStream(const workload::AppModel &model, uint64_t seed)
{
    workload::TraceGenerator gen(model, seed);
    workload::Trace trace = gen.generate(kStreamLen);
    std::vector<os::SyscallRequest> out;
    out.reserve(kStreamLen);
    for (size_t i = 0; i < kStreamLen; ++i)
        out.push_back(trace[i].req);
    return out;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::WarmInproc, Workload::WarmUnix,
                       Workload::Churn}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload workload)
{
    switch (workload) {
      case Workload::WarmInproc: return "warm_inproc";
      case Workload::WarmUnix: return "warm_unix";
      case Workload::Churn: return "churn";
    }
    return "?";
}

Inputs
makeInputs(Workload workload, uint64_t seed, bool corruptReference)
{
    Inputs in;
    in.workload = workload;
    const auto &models = workload::allWorkloads();
    const bool churn = workload == Workload::Churn;

    // Streams first: churn mixes other apps' requests into each one.
    std::vector<std::vector<os::SyscallRequest>> raw;
    for (size_t a = 0; a < models.size(); ++a)
        raw.push_back(appStream(models[a], splitSeed(seed, a)));

    Rng mixRng(splitSeed(seed, "foreign"));
    in.apps.resize(models.size());
    for (size_t a = 0; a < models.size(); ++a) {
        AppInputs &app = in.apps[a];
        // The complete profile is recorded from the same trace seed as
        // the stream, so it allows every request of the app's own.
        app.profiles.push_back(
            sim::makeAppProfiles(models[a], splitSeed(seed, a),
                                 kProfilingCalls).complete);
        app.profiles.push_back(
            sim::makeAppProfiles(models[a],
                                 splitSeed(splitSeed(seed, "alt"), a),
                                 kAltProfilingCalls).complete);
        app.stream = raw[a];
        if (churn) {
            for (uint32_t i = 0; i < kStreamLen; ++i) {
                if (!mixRng.chance(kForeignShare))
                    continue;
                size_t other = (a + 1 + mixRng.nextBelow(models.size() - 1)) %
                               models.size();
                app.stream[i] = raw[other][i];
            }
        }
        for (int side = 0; side < 2; ++side) {
            app.compiled[side] =
                core::CompiledPolicy::compile(app.profiles[side]);
            app.allow[side].resize(kStreamLen);
            for (uint32_t i = 0; i < kStreamLen; ++i) {
                seccomp::BpfResult r = app.compiled[side]->filter.run(
                    app.stream[i].toSeccompData());
                bool allowed = os::rawActionAllows(r.action);
                app.allow[side][i] = allowed ^ (corruptReference && a == 0);
            }
        }
    }

    const uint32_t tenants = churn ? kChurnTenants : kWarmTenants;
    Rng offsetRng(splitSeed(seed, "offsets"));
    // Offsets of warm tenants sit on warm-up batch boundaries so the
    // warm-up never wraps a stream mid-batch.
    const uint32_t align = churn ? kBatch : kWarmupBatch;
    in.tenants.resize(tenants);
    for (uint32_t t = 0; t < tenants; ++t) {
        TenantInput &tenant = in.tenants[t];
        tenant.name = std::string(churn ? "c" : "w");
        tenant.name += std::to_string(t);
        // By index, so the apps of the most popular tenants (and their
        // shards, id mod shards) are the same at every seed.
        tenant.app = t % static_cast<uint32_t>(models.size());
        tenant.offset = static_cast<uint32_t>(
                            offsetRng.nextBelow(kStreamLen / align)) *
                        align;
    }
    in.traffic = tenants;
    if (churn) {
        for (uint32_t t = 0; t < kChurnHotTenants; ++t)
            in.hot.push_back(t);
    } else {
        TenantInput probe;
        probe.name = "w-probe";
        in.tenants.push_back(probe);
        in.hot.push_back(tenants);
    }
    return in;
}

Schedule::Schedule(const Inputs &inputs, uint64_t seed)
    : _inputs(inputs), _rng(splitSeed(seed, "schedule")),
      _cursor(inputs.traffic, 0)
{
    if (inputs.workload == Workload::Churn)
        _zipf.emplace(inputs.traffic, kChurnZipf);
}

BatchRef
Schedule::next()
{
    BatchRef b;
    // Popularity rank is the tenant index: rank r lives on shard
    // r mod shards at every seed.
    b.tenant = _zipf ? static_cast<uint32_t>(_zipf->sample(_rng))
                     : static_cast<uint32_t>(_issued % _inputs.traffic);
    ++_issued;
    uint32_t &cursor = _cursor[b.tenant];
    b.pos = (_inputs.tenants[b.tenant].offset + cursor) % kStreamLen;
    cursor = (cursor + kBatch) % kStreamLen;
    return b;
}

std::vector<Step>
warmupScript(const Inputs &inputs, Schedule &schedule)
{
    std::vector<Step> steps;
    if (inputs.workload == Workload::Churn) {
        for (uint32_t i = 0; i < kChurnWarmupBatches; ++i)
            steps.push_back({Step::Kind::Check, schedule.next()});
        return steps;
    }
    for (uint32_t chunk = 0; chunk < kStreamLen / kWarmupBatch; ++chunk) {
        for (uint32_t t = 0; t < inputs.traffic; ++t) {
            BatchRef b;
            b.tenant = t;
            b.pos = (inputs.tenants[t].offset + chunk * kWarmupBatch) %
                    kStreamLen;
            b.count = kWarmupBatch;
            steps.push_back({Step::Kind::Check, b});
        }
    }
    return steps;
}

std::vector<Step>
censusScript(const Inputs &inputs, Schedule &schedule)
{
    const bool churn = inputs.workload == Workload::Churn;
    const uint32_t batches = churn ? kChurnCensusBatches
                                   : kWarmCensusBatches;
    std::vector<Step> steps;
    size_t nextHot = 0;
    for (uint32_t i = 1; i <= batches; ++i) {
        steps.push_back({Step::Kind::Check, schedule.next()});
        if (churn && i % kCensusSwapEvery == 0) {
            Step swap;
            swap.kind = Step::Kind::Swap;
            swap.batch.tenant = inputs.hot[nextHot++ % inputs.hot.size()];
            steps.push_back(swap);
        }
    }
    return steps;
}

} // namespace dracobench
