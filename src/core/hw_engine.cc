#include "core/hw_engine.hh"

#include <algorithm>
#include <atomic>

#include "support/logging.hh"

namespace draco::core {

namespace {

/** Distinct software-SPT shadow region per process (cache-model only). */
uint64_t
allocateSoftSptBase()
{
    static std::atomic<uint64_t> next{0x500000000000ULL};
    return next.fetch_add(0x10000, std::memory_order_relaxed);
}

} // namespace

HwProcessContext::HwProcessContext(const seccomp::Profile &profile,
                                   unsigned filter_copies)
    : HwProcessContext(CompiledPolicy::compile(profile), filter_copies)
{
}

HwProcessContext::HwProcessContext(
    std::shared_ptr<const CompiledPolicy> policy, unsigned filter_copies)
    : _policy(std::move(policy)), _filterCopies(filter_copies),
      _softSptBase(allocateSoftSptBase())
{
    if (!_policy)
        fatal("HwProcessContext: null compiled policy");
    if (filter_copies == 0)
        fatal("HwProcessContext: need at least one filter copy");
    _policy->configureVat(_vat);
}

uint64_t
HwProcessContext::softSptAddress(uint16_t sid) const
{
    return _softSptBase + static_cast<uint64_t>(sid) * 16;
}

DracoHardwareEngine::DracoHardwareEngine(bool preload_enabled)
    : _preloadEnabled(preload_enabled)
{
}

DracoHardwareEngine::DracoHardwareEngine(
    bool preload_enabled,
    const std::array<TableGeometry, Slb::kMaxArgc> &slb_geometry)
    : _preloadEnabled(preload_enabled), _slb(slb_geometry)
{
}

DracoHardwareEngine::DracoHardwareEngine(bool preload_enabled,
                                         const EngineGeometry &geometry)
    : _preloadEnabled(preload_enabled), _spt(geometry.sptEntries),
      _slb(geometry.slb), _stb(geometry.stbEntries, geometry.stbWays)
{
}

EngineGeometry
EngineGeometry::smtPartition(unsigned contexts)
{
    if (contexts == 0)
        fatal("EngineGeometry::smtPartition: need at least one context");
    EngineGeometry geom;
    for (auto &sub : geom.slb) {
        unsigned ways = std::max(1u, sub.ways / contexts);
        unsigned sets = sub.sets();
        sub = TableGeometry{sets * ways, ways};
    }
    unsigned stbWays = std::max(1u, geom.stbWays / contexts);
    unsigned stbEntries = std::max(
        stbWays, geom.stbEntries / contexts / stbWays * stbWays);
    geom.stbEntries = stbEntries;
    geom.stbWays = stbWays;
    geom.sptEntries = std::max(1u, geom.sptEntries / contexts);
    return geom;
}

void
DracoHardwareEngine::setTracer(obs::Tracer *tracer)
{
    _tracer = tracer;
    if (_proc)
        _proc->vat().setTracer(tracer);
}

void
DracoHardwareEngine::switchTo(HwProcessContext *proc, bool spt_save_restore)
{
    if (proc == _proc)
        return; // Same process rescheduled: state is retained (§VII-B).

    // Scheduling the very first process onto an idle core is not a
    // context switch; the structures are already empty.
    if (_proc) {
        ++_stats.contextSwitches;
        if (_tracer)
            _tracer->record(obs::EventKind::ContextSwitch);
    }

    if (_proc && spt_save_restore) {
        _proc->savedSpt = _spt.accessedEntries();
        _stats.sptSavedEntries += _proc->savedSpt.size();
        if (_tracer) {
            _tracer->record(obs::EventKind::SptSave, 0, 0, 0,
                            _proc->savedSpt.size());
        }
    }
    if (_proc)
        _proc->vat().setTracer(nullptr);

    // Isolation: a different process must never observe cached state.
    _spt.invalidateAll();
    _slb.invalidateAll();
    _stb.invalidateAll();
    _temp.clear();
    _pending = Pending{};

    _proc = proc;
    if (_proc)
        _proc->vat().setTracer(_tracer);
    if (_proc && spt_save_restore) {
        for (const auto &entry : _proc->savedSpt)
            _spt.fill(entry.sid, entry.bitmask);
        _stats.sptRestoredEntries += _proc->savedSpt.size();
        if (_tracer) {
            _tracer->record(obs::EventKind::SptRestore, 0, 0, 0,
                            _proc->savedSpt.size());
        }
    }
}

void
DracoHardwareEngine::onDispatch(uint64_t pc)
{
    _pending = Pending{};
    _pending.valid = true;
    _pending.pc = pc;
    if (!_proc || !_preloadEnabled)
        return;

    auto prediction = _stb.lookup(pc);
    if (!prediction) {
        if (_tracer)
            _tracer->record(obs::EventKind::StbMiss, 0, pc);
        return;
    }
    _pending.stbHit = true;

    uint16_t sid = prediction->sid;
    if (_tracer)
        _tracer->record(obs::EventKind::StbHit, sid, pc);
    const SptEntry &entry = _proc->policy().sptEntry(sid);
    if (!entry.valid)
        return;

    // Hardware SPT provides the bitmask/argument count; fill from the
    // in-memory software SPT on a miss (a hidden, speculative read).
    if (!_spt.lookup(sid)) {
        _pending.memAddrs.push_back(_proc->softSptAddress(sid));
        _spt.fill(sid, entry.bitmask);
        _spt.lookup(sid); // read the filled entry
    }

    if (entry.bitmask == 0)
        return; // ID-only: nothing to preload.

    unsigned argc = argCount(entry.bitmask);
    if (_slb.preloadProbe(argc, sid, prediction->token)) {
        _pending.preloadHit = true;
        if (_tracer)
            _tracer->record(obs::EventKind::SlbPreloadHit, sid, pc);
        return;
    }

    // SLB preload miss: fetch the predicted VAT location and stage it
    // in the Temporary Buffer — never directly into the SLB (§IX).
    if (_tracer)
        _tracer->record(obs::EventKind::SlbPreloadMiss, sid, pc);
    _pending.memAddrs.push_back(
        _proc->vat().entryAddress(sid, prediction->token));
    auto contents = _proc->vat().slotContents(sid, prediction->token);
    if (contents) {
        _temp.stage(TemporaryBuffer::Staged{sid, argc, prediction->token,
                                            *contents});
    }
}

void
DracoHardwareEngine::onSquash()
{
    ++_stats.squashes;
    if (_tracer) {
        _tracer->record(obs::EventKind::TempSquash, 0, _pending.pc, 0,
                        _temp.size());
    }
    _temp.clear();
    _pending = Pending{};
}

HwSyscallResult
DracoHardwareEngine::onRobHead(const os::SyscallRequest &req)
{
    if (!_proc)
        panic("DracoHardwareEngine: no process scheduled");

    ++_stats.syscalls;
    HwSyscallResult result;

    bool pendingMatches = _pending.valid && _pending.pc == req.pc;
    result.stbHit = pendingMatches && _pending.stbHit;
    result.preloadHit = pendingMatches && _pending.preloadHit;
    if (pendingMatches) {
        result.preloadMemAddrs = std::move(_pending.memAddrs);
    } else {
        // The Temporary Buffer holds entries staged by a *different*
        // PC's prediction (or by a dispatch that never reached the
        // head). Committing them would let stale speculative preloads
        // fill the SLB, so they are dropped like a squash (§IX).
        if (_tracer && _temp.size() != 0) {
            _tracer->record(obs::EventKind::TempStaleDrop, req.sid,
                            req.pc, 0, _temp.size());
        }
        _temp.clear();
    }
    _pending = Pending{};

    const SptEntry &entry = _proc->policy().sptEntry(req.sid);
    if (!entry.valid) {
        // SPT Valid bit clear: the OS runs the Seccomp filter, which
        // (for whitelist profiles) rejects the call.
        result.flow = runFilter(req, result) ? HwFlow::F6 : HwFlow::Denied;
        ++_stats.flows[static_cast<size_t>(result.flow)];
        return result;
    }

    if (!_spt.lookup(req.sid)) {
        // Fill from the software SPT; this read stalls at the head.
        result.headMemAddrs.push_back(_proc->softSptAddress(req.sid));
        _spt.fill(req.sid, entry.bitmask);
    }

    if (entry.bitmask == 0) {
        result.allowed = true;
        result.flow = HwFlow::IdOnly;
        // Keep the STB warm so the SID predicts on the next visit.
        _stb.update(req.pc, req.sid, VatToken{});
        ++_stats.flows[static_cast<size_t>(HwFlow::IdOnly)];
        return result;
    }

    ArgKey key(entry.bitmask, req.args);
    unsigned argc = argCount(entry.bitmask);

    // Commit any staged preload for this syscall: the non-speculative
    // access is what moves Temporary Buffer contents into the SLB.
    if (auto staged = _temp.take(req.sid)) {
        _slb.fill(staged->argc, staged->sid, staged->token, staged->key);
        if (_tracer)
            _tracer->record(obs::EventKind::TempCommit, req.sid, req.pc);
    }

    auto accessToken = _slb.accessLookup(argc, req.sid, key);
    if (_tracer) {
        _tracer->record(accessToken ? obs::EventKind::SlbAccessHit
                                    : obs::EventKind::SlbAccessMiss,
                        req.sid, req.pc);
    }
    if (accessToken) {
        result.accessHit = true;
        result.allowed = true;
        result.flow = !result.stbHit ? HwFlow::F5
            : result.preloadHit      ? HwFlow::F1
                                     : HwFlow::F3;
        // Flows 3 and 5 (re)fill the STB with the correct SID and hash.
        _stb.update(req.pc, req.sid, *accessToken);
        ++_stats.flows[static_cast<size_t>(result.flow)];
        return result;
    }

    // SLB access miss: probe the VAT's two ways at the ROB head.
    Vat &vat = _proc->vat();
    result.headMemAddrs.push_back(vat.entryAddress(
        req.sid, VatToken{CuckooWay::H1, vatHash(CuckooWay::H1, key)}));
    result.headMemAddrs.push_back(vat.entryAddress(
        req.sid, VatToken{CuckooWay::H2, vatHash(CuckooWay::H2, key)}));

    auto vatHit = vat.lookup(req.sid, key);
    if (!vatHit) {
        // Not validated yet: the OS runs the filter (SWCheckNeeded path,
        // §VII-B) and, on success, updates the VAT.
        if (!runFilter(req, result)) {
            result.flow = HwFlow::Denied;
            ++_stats.flows[static_cast<size_t>(HwFlow::Denied)];
            return result;
        }
        vat.insert(req.sid, key);
        result.vatInserted = true;
        // Under extreme pressure the displacement chain can circle back
        // and evict the entry just inserted; the call is still allowed,
        // it just stays uncached this time.
        vatHit = vat.lookup(req.sid, key);
    } else {
        result.allowed = true;
    }

    result.flow = !result.stbHit ? HwFlow::F6
        : result.preloadHit      ? HwFlow::F2
                                 : HwFlow::F4;
    if (vatHit) {
        _slb.fill(argc, req.sid, vatHit->token, key);
        _stb.update(req.pc, req.sid, vatHit->token);
    }
    ++_stats.flows[static_cast<size_t>(result.flow)];
    return result;
}

bool
DracoHardwareEngine::runFilter(const os::SyscallRequest &req,
                               HwSyscallResult &result)
{
    seccomp::BpfResult r =
        _proc->policy().runFilter(req, _proc->filterCopies());
    if (_tracer) {
        _tracer->record(obs::EventKind::FilterRun, req.sid, req.pc, 0,
                        r.insnsExecuted);
    }
    result.filterRun = true;
    result.filterInsns = r.insnsExecuted;
    result.allowed =
        os::actionAllows(static_cast<os::SeccompAction>(r.action));
    return result.allowed;
}

HwSyscallResult
DracoHardwareEngine::onSyscall(const os::SyscallRequest &req)
{
    onDispatch(req.pc);
    return onRobHead(req);
}

const char *
hwFlowMetricName(HwFlow flow)
{
    switch (flow) {
      case HwFlow::IdOnly: return "id_only";
      case HwFlow::F1: return "f1";
      case HwFlow::F2: return "f2";
      case HwFlow::F3: return "f3";
      case HwFlow::F4: return "f4";
      case HwFlow::F5: return "f5";
      case HwFlow::F6: return "f6";
      case HwFlow::Denied: return "denied";
    }
    return "?";
}

void
exportStats(const HwEngineStats &stats, MetricRegistry &registry,
            const std::string &prefix)
{
    auto name = [&](const std::string &metric) {
        return MetricRegistry::join(prefix, metric);
    };
    registry.setCounter(name("syscalls"), stats.syscalls);
    registry.setCounter(name("context_switches"),
                        stats.contextSwitches);
    registry.setCounter(name("spt_saved_entries"),
                        stats.sptSavedEntries);
    registry.setCounter(name("spt_restored_entries"),
                        stats.sptRestoredEntries);
    registry.setCounter(name("squashes"), stats.squashes);

    uint64_t fast = 0;
    for (size_t i = 0; i < stats.flows.size(); ++i) {
        HwFlow flow = static_cast<HwFlow>(i);
        registry.setCounter(
            name(std::string("flows.") + hwFlowMetricName(flow)),
            stats.flows[i]);
        HwSyscallResult probe;
        probe.flow = flow;
        if (probe.fast())
            fast += stats.flows[i];
    }
    uint64_t denied =
        stats.flows[static_cast<size_t>(HwFlow::Denied)];
    registry.setCounter(name("flows.fast"), fast);
    registry.setCounter(name("flows.slow"),
                        stats.syscalls - fast - denied);
    registry.setGauge(name("flows.fast_fraction"),
                      stats.syscalls
                          ? static_cast<double>(fast) /
                              static_cast<double>(stats.syscalls)
                          : 0.0);
}

void
HwProcessContext::exportMetrics(MetricRegistry &registry,
                                const std::string &prefix) const
{
    _vat.exportMetrics(registry,
                       MetricRegistry::join(prefix, "vat"));
}

void
DracoHardwareEngine::exportMetrics(MetricRegistry &registry,
                                   const std::string &prefix) const
{
    exportStats(_stats, registry, prefix);
    _slb.exportMetrics(registry, MetricRegistry::join(prefix, "slb"));
    _stb.exportMetrics(registry, MetricRegistry::join(prefix, "stb"));
    _spt.exportMetrics(registry, MetricRegistry::join(prefix, "spt"));
    if (_proc)
        _proc->exportMetrics(registry, prefix);
}

} // namespace draco::core
