/**
 * @file
 * Inputs of the dracobench workloads, all derived from one seed.
 *
 * Every workload draws on the fifteen paper workload models
 * (workload::allWorkloads()). Per app the benchmark records a
 * `syscall-complete` profile (sim::makeAppProfiles, the strace step of
 * §X-B), a second complete profile re-profiled from a different trace
 * (the target of live swaps), and one request stream replayed from
 * workload::TraceGenerator. The reference verdicts of the verdict gate
 * come from seccomp::FilterChain::run on both profiles' compiled
 * filters, computed here, before anything is timed.
 *
 * Tenants run one app each and read the app's stream from their own
 * offset. Schedule and the warm-up and census scripts turn tenants into
 * the batch sequences the load loops submit; all are pure functions of
 * the seed.
 */

#ifndef DRACOBENCH_INPUTS_HH
#define DRACOBENCH_INPUTS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/software.hh"
#include "os/seccomp_abi.hh"
#include "seccomp/profile.hh"
#include "support/random.hh"
#include "workload/appmodel.hh"

namespace dracobench {

enum class Workload { WarmInproc, WarmUnix, Churn };

/** @return false when @p name is not a workload. */
bool parseWorkload(const std::string &name, Workload &out);
const char *workloadName(Workload workload);

/** Requests per batch in every timed phase. */
inline constexpr uint32_t kBatch = 32;

/** Requests per app stream; a multiple of every batch size used. */
inline constexpr uint32_t kStreamLen = 16384;

/** Profiling-trace length of the complete profile (covers the stream). */
inline constexpr size_t kProfilingCalls = 100000;

/** Profiling-trace length of the swap-target profile. */
inline constexpr size_t kAltProfilingCalls = 20000;

/** Share of a churn stream taken from another app's trace. */
inline constexpr double kForeignShare = 0.05;

/**
 * @return Which of a tenant's two profiles (0: its own, 1: the swap
 *         target) epoch @p epoch runs. Epoch 1 is the creation profile
 *         and every swap alternates.
 */
inline size_t
sideOfEpoch(uint64_t epoch)
{
    return epoch % 2 == 1 ? 0 : 1;
}

struct AppInputs {
    std::vector<draco::seccomp::Profile> profiles; ///< By sideOfEpoch().
    std::shared_ptr<const draco::core::CompiledPolicy> compiled[2];
    std::vector<draco::os::SyscallRequest> stream; ///< kStreamLen.
    /** allow[side][i]: FilterChain::run allows stream[i] under side. */
    std::vector<uint8_t> allow[2];
};

struct TenantInput {
    std::string name;
    uint32_t app = 0;
    uint32_t offset = 0; ///< Stream start, a multiple of kBatch.
};

struct Inputs {
    Workload workload = Workload::WarmInproc;
    std::vector<AppInputs> apps;
    std::vector<TenantInput> tenants;
    /** Tenants [0, traffic) receive requests; the rest only swaps. */
    uint32_t traffic = 0;
    /**
     * Tenants whose profile is swapped while load runs: the most
     * popular ones in churn; in the warm workloads one probe tenant
     * that receives no requests, so swaps never cool a warm VAT.
     */
    std::vector<uint32_t> hot;
};

/**
 * Build every input of @p workload from @p seed.
 *
 * @param corruptReference Flip app 0's reference verdicts, so that a
 *        correct service must fail the verdict gate (self-test).
 */
Inputs makeInputs(Workload workload, uint64_t seed, bool corruptReference);

/** One batch: @p count requests of a tenant's stream from @p pos. */
struct BatchRef {
    uint32_t tenant = 0;
    uint32_t pos = 0;
    uint32_t count = kBatch;
};

/** A step of a deterministic script: a batch or a profile swap. */
struct Step {
    enum class Kind : uint8_t { Check, Swap };
    Kind kind = Kind::Check;
    BatchRef batch; ///< Check: the batch. Swap: batch.tenant only.
};

/**
 * The endless batch sequence of the timed phases: round-robin over the
 * tenants (warm workloads) or Zipf-popular tenants (churn), each
 * tenant advancing through its stream one batch at a time.
 */
class Schedule
{
  public:
    Schedule(const Inputs &inputs, uint64_t seed);

    BatchRef next();

  private:
    const Inputs &_inputs;
    draco::Rng _rng;
    std::optional<draco::ZipfSampler> _zipf;
    std::vector<uint32_t> _cursor;
    uint64_t _issued = 0;
};

/**
 * The warm-up script, part of set-up: for warm workloads every
 * tenant's whole stream once (so every argument set is validated);
 * for churn the first batches of @p schedule, which fills the resident
 * set and warms the popular tenants.
 */
std::vector<Step> warmupScript(const Inputs &inputs, Schedule &schedule);

/**
 * The census script: a fixed-length continuation of @p schedule, with
 * a swap of the next hot tenant after every kCensusSwapEvery batches
 * in churn. Run lock-step it gives counts that repeat exactly.
 */
std::vector<Step> censusScript(const Inputs &inputs, Schedule &schedule);

/** Census swap cadence (batches per swap) in churn. */
inline constexpr uint32_t kCensusSwapEvery = 16;

} // namespace dracobench

#endif // DRACOBENCH_INPUTS_HH
