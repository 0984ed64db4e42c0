/**
 * @file
 * Per-layer measurements, taken from the benchmark's own code by
 * timing calls into each module's public functions.
 *
 * A shadow replays the warm-up and census scripts through private
 * core::DracoSoftwareChecker instances, one per tenant, that follow the
 * service's state changes: swaps rebuild a tenant cold, and past the
 * resident cap the least recently used tenant is kept as a `.dtss`
 * snapshot and restored on its next batch. Restores are exact, so the
 * shadow takes the same path as the service on every census request —
 * which the benchmark checks. The shadow's census checks give the
 * mean check cost over the workload's real path mix; the remaining
 * layers are timed in loops over the census requests.
 */

#ifndef DRACOBENCH_LAYERS_HH
#define DRACOBENCH_LAYERS_HH

#include <cstdint>
#include <vector>

#include "inputs.hh"

namespace dracobench {

struct LayerResults {
    // core
    double checkNs = 0.0;       ///< Mean check(), census path mix.
    double checkNsVatHit = 0.0; ///< Mean check() that hits the VAT.
    double vatHitRate = 0.0;    ///< VAT hits / VAT lookups.
    double keyExtractNs = 0.0;  ///< ArgKey construction.
    double vatLookupNs = 0.0;   ///< Vat::lookup of a validated key.
    double vatInsertNs = 0.0;   ///< Vat::insert of a new key.
    uint64_t pathMismatches = 0; ///< Census requests off the service path.
    // hash
    double vatHashNs = 0.0; ///< One CRC-64 way over a key.
    double keyBytes = 0.0;  ///< Mean key length.
    // seccomp
    double filterRunNs = 0.0; ///< FilterChain::run on census requests.
    double insnsPerRun = 0.0;
    // lifecycle
    double encodeUs = 0.0;
    double restoreUs = 0.0;
    double snapshotBytes = 0.0;
    uint64_t shadowRestoreFailures = 0;
    // policy
    double compileMs = 0.0; ///< CompiledPolicy::compile per profile.
    // serve.wire
    double wireEncodeNsPerReq = 0.0; ///< Request + reply encode.
    double wireDecodeNsPerReq = 0.0; ///< Request + reply decode.
    double wireBytesPerReq = 0.0;    ///< Both frames, length prefixes too.
};

/**
 * Replay @p warmup then @p census through the shadow and time every
 * layer.
 *
 * @param servicePaths The path of every census request as the service
 *        reported it, in script order.
 */
LayerResults measureLayers(const Inputs &inputs,
                           const std::vector<Step> &warmup,
                           const std::vector<Step> &census,
                           const std::vector<uint8_t> &servicePaths);

} // namespace dracobench

#endif // DRACOBENCH_LAYERS_HH
