#include "load.hh"

#include <poll.h>
#include <time.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>

#include "support/logging.hh"

namespace dracobench {

using namespace draco;

namespace {

/** A batch not answered this long after its phase ended is lost. */
constexpr int kLostAfterMs = 10'000;

uint64_t
fnv1a(uint64_t h, uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/**
 * A fixed unit of CPU work the client runs between polls: a dependent
 * walk over a 256 KiB random ring, hashing as it goes.
 */
class Pacer
{
  public:
    static constexpr uint32_t kSteps = 256;

    Pacer() : _next(1u << 16)
    {
        Rng rng(0x5eed);
        for (uint32_t i = 0; i < _next.size(); ++i)
            _next[i] = i;
        for (uint32_t i = static_cast<uint32_t>(_next.size()) - 1; i > 0; --i)
            std::swap(_next[i], _next[rng.nextBelow(i)]);
    }

    /** Run kSteps steps. */
    void
    chunk()
    {
        uint32_t p = _p;
        uint64_t h = _h;
        for (uint32_t k = 0; k < kSteps; ++k) {
            p = _next[p];
            h = (h ^ p) * 0x100000001b3ULL;
            h ^= h >> 29;
        }
        _p = p;
        _h = h;
        // The walk's result is never read; keep the compiler from
        // dropping it.
        asm volatile("" : : "r"(h) : "memory");
    }

  private:
    std::vector<uint32_t> _next;
    uint32_t _p = 0;
    uint64_t _h = kFnvBasis;
};

} // namespace

std::vector<int>
processThreads()
{
    std::vector<int> tids;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task"))
        tids.push_back(std::atoi(entry.path().filename().c_str()));
    std::sort(tids.begin(), tids.end());
    return tids;
}

double
processCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

double
threadCpuSeconds(int tid)
{
    std::ifstream in("/proc/self/task/" + std::to_string(tid) +
                     "/schedstat");
    double runNs = 0.0;
    in >> runNs;
    return runNs / 1e9;
}

namespace {

/** @return The threads in @p after that are not in @p before. */
std::vector<int>
newThreads(const std::vector<int> &before, const std::vector<int> &after)
{
    std::vector<int> out;
    std::set_difference(after.begin(), after.end(), before.begin(),
                        before.end(), std::back_inserter(out));
    return out;
}

} // namespace

// ---- Gate ----

Gate::Gate(const Inputs &inputs)
    : _inputs(inputs),
      _issued(new std::atomic<uint64_t>[inputs.tenants.size()]),
      _published(new std::atomic<uint64_t>[inputs.tenants.size()])
{
    resetEpochs();
}

void
Gate::resetEpochs()
{
    for (size_t t = 0; t < _inputs.tenants.size(); ++t) {
        _issued[t].store(1);
        _published[t].store(1);
    }
}

void
Gate::check(const BatchRef &batch, const serve::CheckResponse *resps,
            uint64_t epochLo)
{
    const TenantInput &tenant = _inputs.tenants[batch.tenant];
    const AppInputs &app = _inputs.apps[tenant.app];
    const uint64_t epochHi =
        _issued[batch.tenant].load(std::memory_order_acquire);
    _attempted += batch.count;
    for (uint32_t i = 0; i < batch.count; ++i) {
        const serve::CheckResponse &r = resps[i];
        if (r.status != serve::CheckStatus::Allowed &&
            r.status != serve::CheckStatus::Denied) {
            ++_refused;
            continue;
        }
        if (r.epoch < epochLo || r.epoch > epochHi) {
            ++_wrong;
            continue;
        }
        const auto side = sideOfEpoch(r.epoch);
        const bool expect = app.allow[side][batch.pos + i] != 0;
        if ((r.status == serve::CheckStatus::Allowed) != expect)
            ++_wrong;
    }
}

void
Gate::lost(uint64_t n)
{
    _attempted += n;
    _lost += n;
}

// ---- set-up and lock-step scripts ----

Rig
setUp(const Inputs &inputs, const std::vector<Step> &warmup, Gate &gate)
{
    const auto t0 = std::chrono::steady_clock::now();
    const double cpu0 = processCpuSeconds();
    Rig rig;
    serve::ServiceOptions options;
    options.shards = kShards;
    // Admission control is not under test: queues and per-tenant caps
    // are sized so that no workload here ever sheds.
    options.queueCapacity = 1u << 20;
    options.maxTenants = static_cast<uint32_t>(inputs.tenants.size());
    if (inputs.workload == Workload::Churn)
        options.maxResidentTenants = kChurnResidentCap;
    const std::vector<int> before = processThreads();
    rig.service = std::make_unique<serve::CheckService>(options);
    rig.threads = newThreads(before, processThreads());

    serve::TenantOptions tenantOptions;
    tenantOptions.maxInFlight = 1u << 20;
    rig.ids.reserve(inputs.tenants.size());
    for (const TenantInput &t : inputs.tenants) {
        serve::TenantId id = rig.service->createTenant(
            t.name, inputs.apps[t.app].profiles[0], tenantOptions);
        if (id == serve::kInvalidTenant)
            fatal("dracobench: createTenant(%s) failed", t.name.c_str());
        rig.ids.push_back(id);
    }
    gate.resetEpochs();
    runScript(inputs, rig, warmup, gate);
    rig.setupSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    rig.setupCpuSeconds = processCpuSeconds() - cpu0;
    return rig;
}

uint64_t
Census::digest() const
{
    uint64_t h = kFnvBasis;
    for (uint64_t f : fingerprint)
        h = fnv1a(h, f);
    return h;
}

void
runScript(const Inputs &inputs, Rig &rig, const std::vector<Step> &steps,
          Gate &gate, Census *census)
{
    std::vector<serve::CheckResponse> resps;
    if (census) {
        census->fingerprint.assign(inputs.tenants.size(), kFnvBasis);
        rig.service->serviceStats(census->before);
    }
    for (const Step &step : steps) {
        const uint32_t t = step.batch.tenant;
        const TenantInput &tenant = inputs.tenants[t];
        if (step.kind == Step::Kind::Swap) {
            const uint64_t next = gate.beginSwap(t);
            const auto side = sideOfEpoch(next);
            uint64_t epoch = 0;
            if (!rig.service->swapProfile(
                    rig.ids[t], inputs.apps[tenant.app].profiles[side],
                    &epoch))
                fatal("dracobench: swapProfile(%s) refused",
                      tenant.name.c_str());
            gate.endSwap(t, epoch);
            continue;
        }
        const BatchRef &b = step.batch;
        resps.resize(b.count);
        serve::Batch done;
        const uint64_t epochLo = gate.published(t);
        rig.service->submitBatch(
            rig.ids[t], &inputs.apps[tenant.app].stream[b.pos], b.count,
            resps.data(), done);
        done.wait();
        gate.check(b, resps.data(), epochLo);
        if (!census)
            continue;
        uint64_t &f = census->fingerprint[t];
        for (const serve::CheckResponse &r : resps) {
            f = fnv1a(f, static_cast<uint64_t>(r.status) |
                             (static_cast<uint64_t>(r.path) << 8) |
                             (r.epoch << 16));
            ++census->paths[r.path & 3];
            census->pathLog.push_back(r.path);
        }
        census->checks += b.count;
    }
    if (census)
        rig.service->serviceStats(census->after);
}

// ---- slots and transports ----

Slot *
SlotPool::acquire()
{
    if (_free.empty()) {
        _slots.emplace_back();
        _slots.back().index = static_cast<uint32_t>(_slots.size() - 1);
        return &_slots.back();
    }
    Slot *s = _free.back();
    _free.pop_back();
    return s;
}

bool
InprocTransport::submit(Slot &slot)
{
    const TenantInput &tenant = _inputs.tenants[slot.batch.tenant];
    Slot *s = &slot;
    slot.done.onComplete([this, s] {
        s->doneNs = nowNs();
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _completed.push_back(s);
            _any.store(true, std::memory_order_release);
        }
        _cv.notify_one();
    });
    if (slot.traced)
        slot.rec = obs::StageRecord{};
    _rig.service->submitBatch(
        _rig.ids[slot.batch.tenant],
        &_inputs.apps[tenant.app].stream[slot.batch.pos], slot.batch.count,
        slot.resps, slot.done, slot.traced ? &slot.rec : nullptr);
    return true;
}

bool
InprocTransport::reap(bool block, int timeoutMs, std::vector<Slot *> &out)
{
    // The open loop polls between sends: skip the lock while nothing
    // has completed, so polling does not contend with the workers.
    if (!block && !_any.load(std::memory_order_acquire))
        return true;
    std::unique_lock<std::mutex> lock(_mutex);
    if (block)
        _cv.wait_for(lock, std::chrono::milliseconds(timeoutMs),
                     [this] { return !_completed.empty(); });
    out.insert(out.end(), _completed.begin(), _completed.end());
    _completed.clear();
    _any.store(false, std::memory_order_relaxed);
    return true;
}

bool
UnixTransport::submit(Slot &slot)
{
    const TenantInput &tenant = _inputs.tenants[slot.batch.tenant];
    const os::SyscallRequest *reqs =
        &_inputs.apps[tenant.app].stream[slot.batch.pos];
    _msg.batchId = slot.index;
    _msg.tenantId = _rig.ids[slot.batch.tenant];
    _msg.reqs.assign(reqs, reqs + slot.batch.count);
    _payload.clear();
    serve::wire::encode(_payload, _msg);
    return serve::wire::appendFrame(_out, _payload);
}

bool
UnixTransport::flush()
{
    size_t pos = 0;
    while (pos < _out.size()) {
        ssize_t n = ::send(_fd, _out.data() + pos, _out.size() - pos,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        pos += static_cast<size_t>(n);
    }
    _out.clear();
    return true;
}

bool
UnixTransport::reap(bool block, int timeoutMs, std::vector<Slot *> &out)
{
    const size_t before = out.size();
    for (;;) {
        for (;;) {
            auto r = _parser.next(_frame);
            if (r == serve::wire::FrameParser::Result::Corrupt)
                return false;
            if (r == serve::wire::FrameParser::Result::Need)
                break;
            if (!serve::wire::decode(_frame, _reply))
                return false;
            Slot *s = _pool.at(static_cast<uint32_t>(_reply.batchId));
            if (!s || _reply.resps.size() != s->batch.count)
                return false;
            s->doneNs = nowNs();
            std::copy(_reply.resps.begin(), _reply.resps.end(), s->resps);
            out.push_back(s);
        }
        if (out.size() > before)
            return true;
        if (block) {
            pollfd p{_fd, POLLIN, 0};
            int rc = ::poll(&p, 1, timeoutMs);
            if (rc < 0 && errno != EINTR)
                return false;
            if (rc == 0)
                return true;
        }
        ssize_t n = ::recv(_fd, _chunk.data(), _chunk.size(), MSG_DONTWAIT);
        if (n == 0)
            return false;
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
                if (!block)
                    return true;
                continue;
            }
            return false;
        }
        _parser.append(_chunk.data(), static_cast<size_t>(n));
    }
}

Frontend
startFrontend(const Inputs &inputs, Rig &rig, const std::string &socketPath,
              bool traced)
{
    Frontend f;
    serve::ServerOptions options;
    options.socketPath = socketPath;
    options.eventThreads = 1;
    if (traced) {
        options.metricsAddress = "127.0.0.1:0";
        // Capture every batch's StageRecord in the slow ring.
        options.slowUs = 1;
        options.slowCapacity = 1u << 18;
    }
    f.server = std::make_unique<serve::SocketServer>(*rig.service, options);
    const std::vector<int> before = processThreads();
    if (!f.server->start())
        return f;
    f.threads = newThreads(before, processThreads());
    f.client = serve::SocketClient::connect(socketPath);
    if (!f.client)
        return f;
    for (size_t t = 0; t < inputs.tenants.size(); ++t) {
        // Idempotent by name: the tenant exists, so the catalog profile
        // named here is ignored and the existing id comes back.
        serve::TenantId id =
            f.client->createTenant(inputs.tenants[t].name, "docker-default");
        if (id != rig.ids[t]) {
            warn("dracobench: create-by-name of %s returned %u, not %u",
                 inputs.tenants[t].name.c_str(), id, rig.ids[t]);
            f.client.reset();
            return f;
        }
    }
    return f;
}

// ---- load loops ----

namespace {

void
fill(Slot &slot, const BatchRef &batch, const Gate &gate, bool traced)
{
    slot.batch = batch;
    slot.epochLo = gate.published(batch.tenant);
    slot.traced = traced;
}

/** Wait for every outstanding slot; count the unanswered as lost. */
bool
drain(Transport &transport, SlotPool &pool, Gate &gate, uint64_t &outstanding,
      const std::function<void(Slot &)> &onDone)
{
    std::vector<Slot *> done;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kLostAfterMs);
    while (outstanding > 0) {
        if (std::chrono::steady_clock::now() > deadline) {
            gate.lost(outstanding * kBatch);
            return false;
        }
        done.clear();
        if (!transport.reap(true, 100, done)) {
            gate.lost(outstanding * kBatch);
            return false;
        }
        for (Slot *s : done) {
            --outstanding;
            gate.check(s->batch, s->resps, s->epochLo);
            onDone(*s);
            pool.release(s);
        }
    }
    return true;
}

/**
 * Poll until at least one batch completes, running a pacer chunk
 * between polls. The client never sleeps: on a VM a sleeping thread's
 * idle vCPU halts, and waking it costs a trip through the host
 * scheduler that would be measured as dracod's. The chunk keeps the
 * client from contending with the service for the socket or the
 * completion lock in a tight loop.
 *
 * @return false on transport failure or when nothing completes
 *         within kLostAfterMs.
 */
bool
pollUntilDone(Transport &transport, std::vector<Slot *> &done,
              Pacer &pacer)
{
    done.clear();
    const uint64_t deadline = nowNs() + kLostAfterMs * 1'000'000ull;
    while (done.empty()) {
        if (!transport.reap(false, 0, done))
            return false;
        if (done.empty()) {
            if (nowNs() > deadline)
                return false;
            pacer.chunk();
        }
    }
    return true;
}

} // namespace

PhaseResult
closedLoop(Transport &transport, SlotPool &pool, Schedule &schedule,
           Gate &gate, double seconds, unsigned window, bool traced,
           const Stages &pipeline)
{
    PhaseResult result;
    std::vector<int> tids;
    for (const std::vector<int> &stage : pipeline)
        tids.insert(tids.end(), stage.begin(), stage.end());
    auto sampleCpu = [&] {
        std::vector<double> cpu;
        for (int tid : tids)
            cpu.push_back(threadCpuSeconds(tid));
        return cpu;
    };
    // cpuAt[w]: the CPU times of tids when window w began.
    std::vector<std::vector<double>> cpuAt;
    const uint64_t start = nowNs();
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    const size_t windows = static_cast<size_t>((end - start) / kWindowNs);
    std::vector<uint64_t> perWindow(windows, 0);

    auto onDone = [&](Slot &s) {
        if (s.doneNs < end) {
            result.verdicts += s.batch.count;
            size_t w = static_cast<size_t>((s.doneNs - start) / kWindowNs);
            if (w < windows)
                perWindow[w] += s.batch.count;
        }
    };

    uint64_t outstanding = 0;
    for (unsigned i = 0; i < window; ++i) {
        Slot *s = pool.acquire();
        fill(*s, schedule.next(), gate, traced);
        if (!transport.submit(*s)) {
            result.ok = false;
            break;
        }
        ++outstanding;
    }
    if (!transport.flush())
        result.ok = false;
    std::vector<Slot *> done;
    Pacer pacer;
    cpuAt.push_back(sampleCpu());
    while (result.ok && nowNs() < end) {
        // Sample at the first completion of each window: the window's
        // CPU time then spans the same completions its count does.
        const size_t w = static_cast<size_t>((nowNs() - start) / kWindowNs);
        if (w >= cpuAt.size() && w <= windows)
            cpuAt.resize(w + 1, sampleCpu());
        if (!pollUntilDone(transport, done, pacer)) {
            result.ok = false;
            break;
        }
        for (Slot *s : done) {
            gate.check(s->batch, s->resps, s->epochLo);
            onDone(*s);
            fill(*s, schedule.next(), gate, traced);
            if (!transport.submit(*s)) {
                result.ok = false;
                pool.release(s);
                --outstanding;
            }
        }
        if (!transport.flush())
            result.ok = false;
    }
    result.startNs = start;
    result.endNs = end;
    if (!drain(transport, pool, gate, outstanding, onDone))
        result.ok = false;
    struct WindowCpu {
        double busiest; ///< CPU seconds of the busiest service thread.
        double rate;    ///< The bottleneck stage's verdicts per CPU second.
    };
    std::vector<WindowCpu> byShare;
    for (size_t w = 0; w < windows; ++w) {
        result.windowRates.push_back(perWindow[w] * 1e9 / kWindowNs);
        if (w + 1 >= cpuAt.size())
            continue;
        double busiest = 0.0;
        double rate = std::numeric_limits<double>::infinity();
        size_t i = 0;
        for (const std::vector<int> &stage : pipeline) {
            // A stage's threads share its work, so its capacity is
            // their count over its CPU seconds per verdict, however
            // unevenly the work fell among them in this window.
            double stageCpu = 0.0;
            for (size_t k = 0; k < stage.size(); ++k, ++i) {
                const double cpu = cpuAt[w + 1][i] - cpuAt[w][i];
                busiest = std::max(busiest, cpu);
                stageCpu += cpu;
            }
            if (stageCpu > 0.0)
                rate = std::min(rate, stage.size() * perWindow[w] / stageCpu);
        }
        if (busiest > 0.0 && std::isfinite(rate))
            byShare.push_back({busiest, rate});
    }
    // Keep the half of the windows in which the busiest thread ran
    // longest: the host stole least from them, and the pipeline ran in
    // its steady state (a preempted thread returns to a backlog, which
    // changes how work batches up).
    std::sort(byShare.begin(), byShare.end(),
              [](const WindowCpu &a, const WindowCpu &b) {
                  return a.busiest > b.busiest;
              });
    byShare.resize((byShare.size() + 1) / 2);
    for (const WindowCpu &wc : byShare)
        result.windowCpuRates.push_back(wc.rate);
    return result;
}

PhaseResult
openLoop(Transport &transport, SlotPool &pool, Schedule &schedule,
         Gate &gate, double seconds, double rate, bool traced)
{
    PhaseResult result;
    const double intervalNs = kBatch * 1e9 / rate;
    const uint64_t start = nowNs();
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    const size_t windows = static_cast<size_t>((end - start) / kWindowNs);
    std::vector<QuantileSketch> perWindow(windows);
    if (traced)
        result.records.reserve(static_cast<size_t>(seconds * rate / kBatch) +
                               1024);

    auto onDone = [&](Slot &s) {
        const double us = (s.doneNs - s.dueNs) / 1e3;
        size_t w = static_cast<size_t>((s.dueNs - start) / kWindowNs);
        if (w < windows)
            perWindow[w].add(us);
        result.verdicts += s.batch.count;
        ++result.latencySamples;
        if (traced)
            result.records.push_back(s.rec);
    };

    uint64_t outstanding = 0;
    std::vector<Slot *> done;
    auto reapSome = [&](bool block) {
        done.clear();
        if (!transport.reap(block, 1, done))
            return false;
        for (Slot *s : done) {
            --outstanding;
            gate.check(s->batch, s->resps, s->epochLo);
            onDone(*s);
            pool.release(s);
        }
        return true;
    };

    for (uint64_t k = 0;; ++k) {
        const uint64_t due =
            start + static_cast<uint64_t>(static_cast<double>(k) * intervalNs);
        if (due >= end)
            break;
        // Spin until the batch is due, collecting replies meanwhile.
        uint64_t now = nowNs();
        while (now < due) {
            if (!reapSome(false)) {
                result.ok = false;
                break;
            }
            now = nowNs();
        }
        if (!result.ok)
            break;
        result.latenessUs.add((now - due) / 1e3);
        Slot *s = pool.acquire();
        fill(*s, schedule.next(), gate, traced);
        s->dueNs = due;
        if (!transport.submit(*s) || !transport.flush()) {
            pool.release(s);
            result.ok = false;
            break;
        }
        ++outstanding;
    }
    result.startNs = start;
    result.endNs = end;
    if (!drain(transport, pool, gate, outstanding, onDone))
        result.ok = false;
    for (const QuantileSketch &w : perWindow) {
        if (w.count() == 0)
            continue;
        result.windowP50.push_back(w.quantile(0.5));
        result.windowP99.push_back(w.quantile(0.99));
    }
    return result;
}

// ---- swaps ----

Swapper::Swapper(const Inputs &inputs, Rig &rig, Gate &gate,
                 unsigned periodUs)
    : _inputs(inputs), _rig(rig), _gate(gate), _periodUs(periodUs),
      _thread([this] { run(); })
{
}

Swapper::~Swapper()
{
    stop();
}

std::vector<SwapSample>
Swapper::stop()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stop = true;
    }
    _cv.notify_all();
    if (_thread.joinable())
        _thread.join();
    return _swaps;
}

void
Swapper::run()
{
    auto next = std::chrono::steady_clock::now();
    for (size_t i = 0;; ++i) {
        next += std::chrono::microseconds(_periodUs);
        {
            std::unique_lock<std::mutex> lock(_mutex);
            if (_cv.wait_until(lock, next, [this] { return _stop; }))
                return;
        }
        const uint32_t t = _inputs.hot[i % _inputs.hot.size()];
        const TenantInput &tenant = _inputs.tenants[t];
        const uint64_t epochNext = _gate.beginSwap(t);
        const auto side = sideOfEpoch(epochNext);
        uint64_t epoch = 0;
        SwapSample sample;
        sample.startNs = nowNs();
        if (!_rig.service->swapProfile(
                _rig.ids[t], _inputs.apps[tenant.app].profiles[side],
                &epoch)) {
            _failed.store(true);
            return;
        }
        sample.us = (nowNs() - sample.startNs) / 1e3;
        _swaps.push_back(sample);
        _gate.endSwap(t, epoch);
    }
}

double
windowedTail(const std::vector<SwapSample> &samples, uint64_t startNs,
             uint64_t endNs, double q, double across)
{
    std::map<uint64_t, QuantileSketch> windows;
    for (const SwapSample &s : samples) {
        if (s.startNs >= startNs && s.startNs < endNs)
            windows[(s.startNs - startNs) / kWindowNs].add(s.us);
    }
    QuantileSketch tails;
    for (const auto &[w, sketch] : windows)
        tails.add(sketch.quantile(q));
    return tails.quantile(across);
}

} // namespace dracobench
