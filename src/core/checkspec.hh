/**
 * @file
 * Derivation of Draco per-syscall check specifications from a Profile.
 *
 * The OS populates Draco's SPT from the process's Seccomp profile
 * (§VII-A): each allowed syscall gets a Valid bit, the Argument Bitmask
 * selecting which argument bytes are checked, and a VAT table sized from
 * the estimated number of argument sets. CheckSpec is that derivation:
 * it decides, per syscall, whether checking is ID-only (bitmask 0) or
 * argument-based, and enumerates the whitelisted tuples the VAT will
 * hold once validated.
 */

#ifndef DRACO_CORE_CHECKSPEC_HH
#define DRACO_CORE_CHECKSPEC_HH

#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

#include "seccomp/profile.hh"

namespace draco::core {

/** Per-syscall checking recipe derived from a profile rule. */
struct CheckSpec {
    uint16_t sid = 0;

    /**
     * Argument Bitmask: bit (arg*8 + byte) selects a checked byte. Zero
     * means the syscall is whitelisted by ID alone — an SPT Valid-bit
     * check with no VAT involvement.
     */
    uint64_t bitmask = 0;

    /** Estimated distinct argument sets (VAT sizing input). */
    size_t estimatedSets = 0;

    /** @return true when the rule requires argument checking. */
    bool checksArguments() const { return bitmask != 0; }

    /** @return Number of arguments with at least one selected byte. */
    unsigned argCount() const;
};

/**
 * Derive the check specification for every syscall a profile allows.
 *
 * AllowAll rules (and rules on syscalls with no checkable arguments)
 * become ID-only specs. AllowTuples rules check the full non-pointer
 * bitmask. PerArgValues rules restrict the bitmask to the constrained
 * arguments and enumerate the cross product of their value sets (capped;
 * real rules are single-argument, so the product stays tiny).
 *
 * @param profile Source policy.
 * @return sid → CheckSpec for every allowed syscall.
 */
std::map<uint16_t, CheckSpec> deriveCheckSpecs(
    const seccomp::Profile &profile);

/**
 * Extract the bitmask-selected bytes of an argument vector, in argument
 * order — the byte string both Draco implementations hash and compare.
 */
class ArgKey
{
  public:
    /** Maximum selected bytes (6 args × 8 bytes). */
    static constexpr unsigned kMaxBytes = 48;

    ArgKey() = default;

    /**
     * Build a key by selecting @p bitmask bytes from @p args.
     */
    ArgKey(uint64_t bitmask, const seccomp::ArgVector &args);

    /**
     * Rebuild a key from a previously-extracted byte string — the
     * snapshot decoder's inverse of data()/size(). @p len beyond
     * kMaxBytes is rejected with an empty key.
     */
    static ArgKey fromBytes(const uint8_t *bytes, unsigned len);

    /** @return Selected byte string. */
    const uint8_t *data() const { return _bytes; }

    /** @return Number of selected bytes. */
    unsigned size() const { return _len; }

    /** A fixed-width compare: bytes past size() are zero in every key. */
    bool
    operator==(const ArgKey &other) const
    {
        return _len == other._len &&
            std::memcmp(_bytes, other._bytes, kMaxBytes) == 0;
    }

  private:
    uint8_t _bytes[kMaxBytes] = {}; ///< Zero past _len.
    uint8_t _len = 0;
};

} // namespace draco::core

#endif // DRACO_CORE_CHECKSPEC_HH
