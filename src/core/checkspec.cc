#include "core/checkspec.hh"

#include <bit>
#include <cstring>

#include "support/logging.hh"

namespace draco::core {

unsigned
argCount(uint64_t bitmask)
{
    unsigned count = 0;
    for (unsigned arg = 0; arg < os::kMaxSyscallArgs; ++arg)
        if ((bitmask >> (arg * 8)) & 0xff)
            ++count;
    return count;
}

std::map<uint16_t, CheckSpec>
deriveCheckSpecs(const seccomp::Profile &profile)
{
    std::map<uint16_t, CheckSpec> specs;
    for (const auto &[sid, rule] : profile.rules()) {
        const auto *desc = os::syscallById(sid);
        if (!desc)
            continue;

        CheckSpec spec;
        spec.sid = sid;

        switch (rule.kind) {
          case seccomp::RuleKind::AllowAll:
            spec.bitmask = 0;
            spec.estimatedSets = 0;
            break;

          case seccomp::RuleKind::AllowTuples:
            if (desc->checkedArgCount() == 0 || rule.tuples.empty()) {
                spec.bitmask = 0;
                spec.estimatedSets = 0;
            } else {
                spec.bitmask = desc->argumentBitmask();
                spec.estimatedSets = rule.tuples.size();
            }
            break;

          case seccomp::RuleKind::PerArgValues: {
            if (rule.perArg.empty()) {
                spec.bitmask = 0;
                spec.estimatedSets = 0;
                break;
            }
            uint64_t mask = 0;
            size_t product = 1;
            for (const auto &[arg, values] : rule.perArg) {
                // Full 64-bit comparison of each constrained argument.
                mask |= 0xffULL << (arg * 8);
                product *= std::max<size_t>(1, values.size());
            }
            spec.bitmask = mask;
            spec.estimatedSets = product;
            break;
          }
        }
        specs.emplace(sid, spec);
    }
    return specs;
}

ArgKey::ArgKey(uint64_t bitmask, const seccomp::ArgVector &args)
{
    for (unsigned arg = 0; arg < os::kMaxSyscallArgs; ++arg) {
        uint8_t byteMask = (bitmask >> (arg * 8)) & 0xff;
        if (!byteMask)
            continue;
        uint64_t value = args[arg];
        if (byteMask == 0xff && std::endian::native == std::endian::little) {
            // A whole argument (every mask deriveCheckSpecs emits):
            // its little-endian bytes in one copy. At most 8 bytes per
            // earlier argument precede it, so it always fits.
            std::memcpy(_bytes + _len, &value, 8);
            _len += 8;
            continue;
        }
        for (unsigned b = 0; b < 8; ++b) {
            if (byteMask & (1u << b)) {
                if (_len >= kMaxBytes)
                    panic("ArgKey overflow");
                _bytes[_len++] =
                    static_cast<uint8_t>((value >> (b * 8)) & 0xff);
            }
        }
    }
}

ArgKey
ArgKey::fromBytes(const uint8_t *bytes, unsigned len)
{
    ArgKey key;
    if (len > kMaxBytes)
        return key;
    std::memcpy(key._bytes, bytes, len);
    key._len = static_cast<uint8_t>(len);
    return key;
}

} // namespace draco::core
