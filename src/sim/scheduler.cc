#include "sim/scheduler.hh"

#include "sim/pricer.hh"
#include "support/logging.hh"

namespace draco::sim {

SchedResult
MultiProcessSimulator::run(
    const std::vector<const workload::AppModel *> &apps,
    const SchedOptions &options)
{
    if (apps.empty())
        fatal("MultiProcessSimulator: need at least one process");

    struct Process {
        std::unique_ptr<workload::TraceGenerator> gen;
        std::unique_ptr<core::HwProcessContext> ctx;
        workload::Trace prologue;
        size_t prologuePos = 0;
    };

    const os::KernelCosts &costs = *options.costs;
    SchedResult result;

    std::vector<Process> procs;
    for (size_t i = 0; i < apps.size(); ++i) {
        // SplitMix64 child stream per process (see sim/multicore.cc).
        uint64_t seed = splitSeed(options.seed, i);
        AppProfiles profiles = makeAppProfiles(*apps[i], seed, 200000);
        Process p;
        p.gen = std::make_unique<workload::TraceGenerator>(
            *apps[i], seed);
        p.ctx = std::make_unique<core::HwProcessContext>(
            profiles.complete, options.filterCopies);
        p.prologue = p.gen->prologue();
        procs.push_back(std::move(p));
    }

    core::DracoHardwareEngine engine;
    CacheHierarchy cache(splitSeed(options.seed, "cache"));
    Rng robRng(splitSeed(options.seed, "rob"));

    size_t current = 0;
    engine.switchTo(procs[current].ctx.get(), options.sptSaveRestore);
    double quantumUsedNs = 0.0;

    while (result.syscalls < options.totalCalls) {
        Process &proc = procs[current];
        workload::TraceEvent event;
        if (proc.prologuePos < proc.prologue.size())
            event = proc.prologue[proc.prologuePos++];
        else
            event = proc.gen->next();

        ++result.syscalls;
        double baseNs = event.userWorkNs + costs.syscallBaseNs;
        result.insecureNs += baseNs;
        result.totalNs += baseNs;

        cache.appPressure(event.bytesTouched);
        core::HwSyscallResult out;
        double checkNs = hwCheckCostNs(engine, cache, robRng, event.req,
                                       costs, options.filterCopies, out);

        result.totalNs += checkNs;
        quantumUsedNs += baseNs + checkNs;

        if (quantumUsedNs >= options.quantumNs) {
            quantumUsedNs = 0.0;
            // Direct switch cost hits secure and insecure runs alike.
            result.totalNs += costs.ctxSwitchNs;
            result.insecureNs += costs.ctxSwitchNs;
            current = (current + 1) % procs.size();
            engine.switchTo(procs[current].ctx.get(),
                            options.sptSaveRestore);
            // The incoming process's traffic quickly repopulates the
            // caches with its own data; Draco lines rarely survive.
            cache.appPressure(1 << 22);
            ++result.contextSwitches;
        }
    }

    result.hw = engine.stats();
    result.slb = engine.slbStats();
    result.stb = engine.stbStats();
    return result;
}

} // namespace draco::sim
