#include "sim/pricer.hh"

#include <algorithm>

#include "support/logging.hh"

namespace draco::sim {

namespace {

/** Core clock assumed by the ROB hiding model (Table II: 2 GHz). */
constexpr double kCycleNs = 0.5;

/** ROB capacity (Table II). */
constexpr unsigned kRobEntries = 128;

/** Average dispatch IPC assumed when estimating dispatch→head time. */
constexpr double kAvgIpc = 2.0;

/**
 * Time between a syscall's dispatch into the ROB and its arrival at the
 * head: the instructions ahead of it must retire first. Sampled
 * uniformly over ROB occupancy.
 */
double
dispatchToHeadNs(Rng &rng)
{
    uint64_t ahead = rng.nextRange(16, kRobEntries - 1);
    return static_cast<double>(ahead) / kAvgIpc * kCycleNs;
}

/**
 * Price one software-Draco check (§V-C): the SPT indexed lookup, two
 * CRC-64 hashes plus the cuckoo-way probes when arguments were hashed,
 * and the Seccomp entry (once per attached filter copy) plus
 * per-instruction cost when the fallback filter ran.
 */
double
swCheckCostNs(const core::SwCheckOutcome &outcome,
              const os::KernelCosts &costs, unsigned filterCopies)
{
    double ns = costs.dracoSptLookupNs;
    if (outcome.hashedBytes > 0) {
        ns += 2 * (costs.dracoHashFixedNs +
                   costs.dracoHashPerByteNs * outcome.hashedBytes);
        ns += outcome.vatProbes * costs.dracoVatProbeNs;
    }
    if (outcome.filterInsns > 0) {
        ns += filterCopies * costs.seccompEntryNs +
              outcome.filterInsns * costs.bpfInsnNs;
    }
    if (outcome.vatInserted)
        ns += costs.dracoVatInsertNs;
    return ns;
}

} // namespace

double
hwCheckCostNs(core::DracoHardwareEngine &engine, CacheHierarchy &cache,
              Rng &robRng, const os::SyscallRequest &req,
              const os::KernelCosts &costs, unsigned filterCopies,
              core::HwSyscallResult &out)
{
    engine.onDispatch(req.pc);
    out = engine.onRobHead(req);

    double ns = 0.0;
    // Preload fetches overlap with dispatch→head time.
    if (!out.preloadMemAddrs.empty()) {
        double window = dispatchToHeadNs(robRng);
        double fetchNs = 0.0;
        for (uint64_t addr : out.preloadMemAddrs)
            fetchNs = std::max(fetchNs, cache.access(addr).second);
        ns += std::max(0.0, fetchNs - window);
    }

    // Head-of-ROB reads stall retirement; the two cuckoo-way probes are
    // issued in parallel (§V-B).
    double headNs = 0.0;
    for (uint64_t addr : out.headMemAddrs)
        headNs = std::max(headNs, cache.access(addr).second);
    ns += headNs;

    if (out.filterRun) {
        ns += filterCopies * costs.seccompEntryNs +
              out.filterInsns * costs.bpfInsnNs;
        if (out.vatInserted)
            ns += costs.dracoVatInsertNs;
    }
    return ns;
}

MechanismPricer::MechanismPricer(Mechanism mechanism,
                                 const seccomp::Profile &profile,
                                 const PricerConfig &config,
                                 uint64_t auxSeed)
    : _mechanism(mechanism), _filterCopies(config.filterCopies),
      _costs(*config.costs), _robRng(splitSeed(auxSeed, "rob")),
      _tracer(config.tracer)
{
    if (mechanism != Mechanism::Insecure)
        _policy = core::CompiledPolicy::compile(profile, config.shape);
    switch (mechanism) {
      case Mechanism::Insecure:
      case Mechanism::Seccomp:
        break;
      case Mechanism::DracoSW:
        _sw = std::make_unique<core::DracoSoftwareChecker>(
            _policy, config.filterCopies);
        break;
      case Mechanism::DracoHW:
        _hwProc = std::make_unique<core::HwProcessContext>(
            _policy, config.filterCopies);
        _hwEngine = config.slbGeometry
            ? std::make_unique<core::DracoHardwareEngine>(
                  config.hwPreload, *config.slbGeometry)
            : std::make_unique<core::DracoHardwareEngine>(
                  config.hwPreload);
        _hwEngine->switchTo(_hwProc.get());
        _cache = std::make_unique<CacheHierarchy>(
            splitSeed(auxSeed, "cache"));
        break;
    }

    if (!_tracer)
        return;
    if (_sw) {
        _sw->setTracer(_tracer);
        auto *sw = _sw.get();
        _tracer->addChannel("vat_hit_rate", [sw] {
            const core::SwCheckStats &s = sw->stats();
            return s.checks ? static_cast<double>(s.vatHits) /
                                  static_cast<double>(s.checks)
                            : 0.0;
        });
        _tracer->addChannel("filter_insns", [sw] {
            return static_cast<double>(sw->stats().filterInsns);
        });
    }
    if (_hwEngine) {
        _hwEngine->setTracer(_tracer);
        auto *engine = _hwEngine.get();
        _tracer->addChannel("fast_fraction", [engine] {
            const core::HwEngineStats &s = engine->stats();
            uint64_t fast = 0;
            for (size_t i = 0; i < s.flows.size(); ++i) {
                core::HwSyscallResult probe;
                probe.flow = static_cast<core::HwFlow>(i);
                if (probe.fast())
                    fast += s.flows[i];
            }
            return s.syscalls ? static_cast<double>(fast) /
                                    static_cast<double>(s.syscalls)
                              : 0.0;
        });
        _tracer->addChannel("stb_hit_rate", [engine] {
            const core::StbStats &s = engine->stbStats();
            return s.lookups ? static_cast<double>(s.hits) /
                                   static_cast<double>(s.lookups)
                             : 0.0;
        });
        _tracer->addChannel("slb_preload_hit_rate", [engine] {
            const core::SlbStats &s = engine->slbStats();
            return s.preloadProbes
                ? static_cast<double>(s.preloadHits) /
                      static_cast<double>(s.preloadProbes)
                : 0.0;
        });
        _tracer->addChannel("slb_access_hit_rate", [engine] {
            const core::SlbStats &s = engine->slbStats();
            return s.accesses ? static_cast<double>(s.accessHits) /
                                    static_cast<double>(s.accesses)
                              : 0.0;
        });
        auto *proc = _hwProc.get();
        _tracer->addChannel("vat_footprint_bytes", [proc] {
            return static_cast<double>(proc->vat().footprintBytes());
        });
    }
    if (_cache)
        _cache->setTracer(_tracer);
}

EventPrice
MechanismPricer::price(const workload::TraceEvent &event,
                       const std::vector<uint64_t> &neighbourL3Bytes)
{
    EventPrice price;
    switch (_mechanism) {
      case Mechanism::Insecure:
        price.flow = obs::FlowCode::Unchecked;
        break;

      case Mechanism::Seccomp: {
        os::SeccompData data = event.req.toSeccompData();
        price.flow = obs::FlowCode::Seccomp;
        for (unsigned copy = 0; copy < _filterCopies; ++copy) {
            seccomp::BpfResult r = _policy->filter.run(data);
            price.checkNs +=
                _costs.seccompEntryNs + r.insnsExecuted * _costs.bpfInsnNs;
            price.filterInsns += r.insnsExecuted;
            if (!os::actionAllows(
                    static_cast<os::SeccompAction>(r.action)))
                price.flow = obs::FlowCode::Denied;
        }
        break;
      }

      case Mechanism::DracoSW: {
        core::SwCheckOutcome out = _sw->check(event.req);
        switch (out.path) {
          case core::SwPath::SptAllowAll:
            price.flow = obs::FlowCode::SptAllowAll;
            break;
          case core::SwPath::VatHit:
            price.flow = obs::FlowCode::VatHit;
            break;
          case core::SwPath::FilterAllowed:
            price.flow = obs::FlowCode::FilterAllowed;
            break;
          case core::SwPath::FilterDenied:
            price.flow = obs::FlowCode::Denied;
            break;
        }
        price.checkNs += swCheckCostNs(out, _costs, _filterCopies);
        price.filterInsns += out.filterInsns;
        break;
      }

      case Mechanism::DracoHW: {
        _cache->appPressure(event.bytesTouched);
        // Shared L3: neighbours' gap traffic evicts our lines.
        for (uint64_t bytes : neighbourL3Bytes)
            _cache->externalL3Pressure(bytes);

        core::HwSyscallResult out;
        price.checkNs += hwCheckCostNs(*_hwEngine, *_cache, _robRng,
                                       event.req, _costs, _filterCopies,
                                       out);
        // HwFlow values 0–7 coincide with the first FlowCode values.
        price.flow = static_cast<obs::FlowCode>(out.flow);
        if (out.filterRun)
            price.filterInsns += out.filterInsns;
        break;
      }
    }
    return price;
}

void
MechanismPricer::periodicAccessedClear()
{
    if (_hwEngine)
        _hwEngine->periodicAccessedClear();
}

} // namespace draco::sim
