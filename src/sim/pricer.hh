/**
 * @file
 * Per-event pricing of one checking mechanism.
 *
 * MechanismPricer owns the state one simulated core needs to check and
 * price syscalls under one mechanism — the compiled filter chain, the
 * software SPT/VAT checker, or the hardware engine with its cache
 * hierarchy — and turns one TraceEvent into the nanoseconds its check
 * costs. It is the shared kernel of every replay path: the single-core
 * ExperimentRunner (generated and streamed traces alike) and each core
 * of the multicore consolidation simulator drive the same pricing code,
 * so a trace replayed anywhere is priced identically.
 */

#ifndef DRACO_SIM_PRICER_HH
#define DRACO_SIM_PRICER_HH

#include <memory>
#include <vector>

#include "core/hw_engine.hh"
#include "core/software.hh"
#include "obs/tracer.hh"
#include "os/kernelcosts.hh"
#include "seccomp/filter_builder.hh"
#include "seccomp/profile.hh"
#include "sim/cache.hh"
#include "sim/machine.hh"
#include "support/random.hh"
#include "workload/trace.hh"

namespace draco::sim {

/** Configuration of one pricer (the mechanism-relevant run knobs). */
struct PricerConfig {
    unsigned filterCopies = 1;
    seccomp::DispatchShape shape = seccomp::DispatchShape::Linear;
    const os::KernelCosts *costs = nullptr; ///< Required.
    bool hwPreload = true;
    std::optional<std::array<core::TableGeometry, core::Slb::kMaxArgc>>
        slbGeometry;

    /**
     * Event tracer of the core this pricer models, or nullptr. The
     * pricer attaches it to its checker/engine/cache and registers the
     * mechanism's telemetry channels (hit-rate curves, VAT occupancy).
     */
    obs::Tracer *tracer = nullptr;
};

/** What one event cost. */
struct EventPrice {
    double checkNs = 0.0;      ///< Time attributed to checking.
    uint64_t filterInsns = 0;  ///< BPF instructions executed (all copies).
    obs::FlowCode flow = obs::FlowCode::Unchecked; ///< Span classification.
};

/**
 * Run one syscall through the Draco hardware engine and price its
 * check: preload fetches not hidden by the dispatch→head window, the
 * head-of-ROB table reads, and — on an SLB/STB miss — the Seccomp
 * filter run plus the VAT insert. The caller applies any cache
 * pressure first.
 *
 * @param robRng Samples the ROB occupancy ahead of the syscall.
 * @param out Receives the engine's result for the syscall.
 */
double hwCheckCostNs(core::DracoHardwareEngine &engine,
                     CacheHierarchy &cache, Rng &robRng,
                     const os::SyscallRequest &req,
                     const os::KernelCosts &costs, unsigned filterCopies,
                     core::HwSyscallResult &out);

/**
 * One core's checking mechanism, priced event by event.
 */
class MechanismPricer
{
  public:
    /**
     * @param mechanism Mechanism under test.
     * @param profile Attached seccomp profile.
     * @param config Mechanism knobs; config.costs must be set.
     * @param auxSeed Seed of the auxiliary timing randomness (ROB
     *        occupancy, cache placement); "rob" and "cache" child
     *        streams are split from it.
     */
    MechanismPricer(Mechanism mechanism, const seccomp::Profile &profile,
                    const PricerConfig &config, uint64_t auxSeed);

    /**
     * Check and price one event.
     *
     * @param event The syscall plus its compute gap.
     * @param neighbourL3Bytes Per-neighbour gap footprints applied as
     *        shared-L3 pressure before the check (multicore coupling);
     *        empty for a solo core.
     */
    EventPrice price(const workload::TraceEvent &event,
                     const std::vector<uint64_t> &neighbourL3Bytes = {});

    /** Run the periodic SPT Accessed-bit sweep (hardware runs). */
    void periodicAccessedClear();

    /** @return The software checker, or nullptr. */
    const core::DracoSoftwareChecker *swChecker() const
    {
        return _sw.get();
    }

    /** @return The hardware engine, or nullptr. */
    core::DracoHardwareEngine *hwEngine() { return _hwEngine.get(); }

    /** @return The hardware process context, or nullptr. */
    const core::HwProcessContext *hwProcess() const
    {
        return _hwProc.get();
    }

  private:
    Mechanism _mechanism;
    unsigned _filterCopies;
    const os::KernelCosts &_costs;
    std::unique_ptr<seccomp::FilterChain> _filter;
    std::unique_ptr<core::DracoSoftwareChecker> _sw;
    std::unique_ptr<core::HwProcessContext> _hwProc;
    std::unique_ptr<core::DracoHardwareEngine> _hwEngine;
    std::unique_ptr<CacheHierarchy> _cache;
    Rng _robRng;
    obs::Tracer *_tracer = nullptr;
};

} // namespace draco::sim

#endif // DRACO_SIM_PRICER_HH
