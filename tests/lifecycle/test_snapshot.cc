/**
 * @file
 * `.dtss` codec tests: bit-exact restore (the checker continues as if
 * never snapshotted), total decoding of corrupt input (truncation, CRC
 * flips, bad magic, version skew), restore-contract mismatches, and
 * the inspect/compact paths lifecycletool builds on.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/software.hh"
#include "hash/crc64.hh"
#include "lifecycle/snapshot.hh"
#include "os/syscalls.hh"
#include "seccomp/profile.hh"
#include "sim/machine.hh"
#include "support/random.hh"
#include "workload/generator.hh"

namespace draco::lifecycle {
namespace {

seccomp::Profile
testProfile()
{
    seccomp::Profile profile("dtss-test");
    profile.allow(os::sc::read);
    profile.allowTuple(os::sc::write, {1, 0, 0, 0, 0, 0});
    profile.allowTuple(os::sc::write, {2, 0, 0, 0, 0, 0});
    profile.allowTuple(os::sc::ioctl, {3, 0x5401, 0, 0, 0, 0});
    return profile;
}

os::SyscallRequest
request(uint16_t sid, uint64_t arg0 = 0, uint64_t arg1 = 0)
{
    os::SyscallRequest req;
    req.sid = sid;
    req.pc = 0x1000;
    req.args[0] = arg0;
    req.args[1] = arg1;
    return req;
}

/** Traffic that fills VAT tables (and re-hits them). */
std::vector<os::SyscallRequest>
warmup(size_t n)
{
    std::vector<os::SyscallRequest> reqs;
    for (size_t i = 0; i < n; ++i) {
        reqs.push_back(request(os::sc::read));
        reqs.push_back(request(os::sc::write, 1 + i % 2));
        reqs.push_back(request(os::sc::ioctl, 3, 0x5401));
        reqs.push_back(request(os::sc::write, 7)); // denied
    }
    return reqs;
}

/** A warmed-up checker plus its snapshot bytes. */
struct Snapshotted {
    std::shared_ptr<const core::CompiledPolicy> policy;
    std::unique_ptr<core::DracoSoftwareChecker> checker;
    std::vector<uint8_t> bytes;
};

Snapshotted
makeSnapshot(unsigned filterCopies = 1)
{
    Snapshotted s;
    s.policy = core::CompiledPolicy::compile(testProfile());
    s.checker = std::make_unique<core::DracoSoftwareChecker>(
        s.policy, filterCopies);
    for (const os::SyscallRequest &req : warmup(16))
        s.checker->check(req);
    s.bytes = encodeSnapshot("tenant-a", *s.checker, filterCopies);
    return s;
}

TEST(Snapshot, RestoreContinuesBitExactly)
{
    Snapshotted s = makeSnapshot();

    core::DracoSoftwareChecker restored(s.policy, 1);
    std::string error;
    ASSERT_TRUE(restoreSnapshot(s.bytes, "tenant-a",
                                s.policy->programKey, 1, restored,
                                &error))
        << error;

    // Stats picked up where they left off.
    EXPECT_EQ(restored.stats().checks, s.checker->stats().checks);
    EXPECT_EQ(restored.stats().vatHits, s.checker->stats().vatHits);
    EXPECT_EQ(restored.stats().vatInsertions,
              s.checker->stats().vatInsertions);
    EXPECT_EQ(restored.vat().evictions(), s.checker->vat().evictions());

    // Continuation traffic takes identical paths on both checkers —
    // including VAT hits, which prove the cached sets survived.
    for (const os::SyscallRequest &req : warmup(8)) {
        core::SwCheckOutcome a = s.checker->check(req);
        core::SwCheckOutcome b = restored.check(req);
        EXPECT_EQ(a.allowed, b.allowed);
        EXPECT_EQ(static_cast<int>(a.path), static_cast<int>(b.path));
    }
    EXPECT_EQ(restored.stats().checks, s.checker->stats().checks);
    EXPECT_EQ(restored.stats().vatHits, s.checker->stats().vatHits);
}

TEST(Snapshot, EncodeIsDeterministic)
{
    Snapshotted s = makeSnapshot();
    EXPECT_EQ(s.bytes, encodeSnapshot("tenant-a", *s.checker, 1));
}

TEST(Snapshot, TruncationIsRejectedAtEveryLength)
{
    Snapshotted s = makeSnapshot();
    std::string error;
    std::vector<RawBlock> blocks;
    // Every proper prefix must fail: either mid-header, mid-block, or
    // (on a block boundary) at the missing End terminator.
    for (size_t len = 0; len < s.bytes.size(); ++len) {
        std::vector<uint8_t> cut(s.bytes.begin(),
                                 s.bytes.begin() +
                                     static_cast<ptrdiff_t>(len));
        EXPECT_FALSE(parseSnapshotBlocks(cut, blocks, &error))
            << "prefix of " << len << " bytes parsed";
    }
}

TEST(Snapshot, EveryFlippedBitIsCaught)
{
    Snapshotted s = makeSnapshot();
    std::string error;
    // Walk a stride of bit positions over the whole file (every bit
    // would be slow); each flip must fail parse or restore.
    for (size_t bit = 0; bit < s.bytes.size() * 8; bit += 7) {
        std::vector<uint8_t> mutated = s.bytes;
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        core::DracoSoftwareChecker restored(s.policy, 1);
        EXPECT_FALSE(restoreSnapshot(mutated, "tenant-a",
                                     s.policy->programKey, 1, restored,
                                     &error))
            << "flipped bit " << bit << " survived restore";
    }
}

TEST(Snapshot, BadMagicIsRejected)
{
    Snapshotted s = makeSnapshot();
    s.bytes[0] = 'x';
    std::vector<RawBlock> blocks;
    std::string error;
    EXPECT_FALSE(parseSnapshotBlocks(s.bytes, blocks, &error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(Snapshot, VersionSkewIsRejected)
{
    Snapshotted s = makeSnapshot();
    s.bytes[8] = static_cast<uint8_t>(kSnapshotVersion + 1);
    std::vector<RawBlock> blocks;
    std::string error;
    EXPECT_FALSE(parseSnapshotBlocks(s.bytes, blocks, &error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(Snapshot, TrailingGarbageIsRejected)
{
    Snapshotted s = makeSnapshot();
    s.bytes.push_back(0);
    std::vector<RawBlock> blocks;
    std::string error;
    EXPECT_FALSE(parseSnapshotBlocks(s.bytes, blocks, &error));
}

TEST(Snapshot, RestoreContractMismatchesFail)
{
    Snapshotted s = makeSnapshot();
    std::string error;
    {
        core::DracoSoftwareChecker restored(s.policy, 1);
        EXPECT_FALSE(restoreSnapshot(s.bytes, "tenant-b",
                                     s.policy->programKey, 1, restored,
                                     &error));
    }
    {
        core::DracoSoftwareChecker restored(s.policy, 1);
        EXPECT_FALSE(restoreSnapshot(s.bytes, "tenant-a",
                                     s.policy->programKey ^ 1, 1,
                                     restored, &error));
    }
    {
        core::DracoSoftwareChecker restored(s.policy, 2);
        EXPECT_FALSE(restoreSnapshot(s.bytes, "tenant-a",
                                     s.policy->programKey, 2, restored,
                                     &error));
    }
    {
        // A checker compiled from a different profile has different
        // tables; even with a forged key the table shapes must trip.
        seccomp::Profile other("other");
        other.allow(os::sc::read);
        auto otherPolicy = core::CompiledPolicy::compile(other);
        core::DracoSoftwareChecker restored(otherPolicy, 1);
        EXPECT_FALSE(restoreSnapshot(s.bytes, "tenant-a",
                                     s.policy->programKey, 1, restored,
                                     &error));
    }
}

TEST(Snapshot, InspectReportsTheTenant)
{
    Snapshotted s = makeSnapshot();
    SnapshotInfo info;
    std::string error;
    ASSERT_TRUE(inspectSnapshot(s.bytes, info, &error)) << error;
    EXPECT_EQ(info.tenant, "tenant-a");
    EXPECT_EQ(info.policyKey, s.policy->programKey);
    EXPECT_EQ(info.version, kSnapshotVersion);
    EXPECT_EQ(info.filterCopies, 1u);
    EXPECT_EQ(info.stats.checks, s.checker->stats().checks);
    EXPECT_EQ(info.bytes, s.bytes.size());
    // write and ioctl check arguments; read is ID-only (no table).
    EXPECT_EQ(info.tables.size(), 2u);
    uint64_t sets = 0;
    for (const SnapshotTableInfo &table : info.tables)
        sets += table.sets;
    EXPECT_EQ(sets, s.checker->stats().vatInsertions -
                        s.checker->vat().evictions());
}

TEST(Snapshot, PeekPolicyKeyReadsTheMetaBlock)
{
    Snapshotted s = makeSnapshot();
    uint64_t key = 0;
    std::string error;
    ASSERT_TRUE(peekSnapshotPolicyKey(s.bytes, key, &error)) << error;
    EXPECT_EQ(key, s.policy->programKey);
}

TEST(Snapshot, PeekPolicyKeyRejectsCorruptHeaders)
{
    Snapshotted s = makeSnapshot();
    uint64_t key = 0;
    std::string error;
    {
        std::vector<uint8_t> bad = s.bytes;
        bad[0] = 'x'; // magic
        EXPECT_FALSE(peekSnapshotPolicyKey(bad, key, &error));
    }
    {
        std::vector<uint8_t> bad = s.bytes;
        bad[8] = static_cast<uint8_t>(kSnapshotVersion + 1);
        EXPECT_FALSE(peekSnapshotPolicyKey(bad, key, &error));
    }
    {
        // A CRC flip inside the Meta block must be caught even though
        // the peek never parses the later (larger) table blocks.
        std::vector<uint8_t> bad = s.bytes;
        bad[16] ^= 0x01;
        EXPECT_FALSE(peekSnapshotPolicyKey(bad, key, &error));
    }
    // Truncations anywhere inside the Meta block fail; the peek never
    // needs bytes past it, so only prefixes up to the block matter.
    for (size_t len = 0; len < 32; ++len) {
        std::vector<uint8_t> cut(s.bytes.begin(),
                                 s.bytes.begin() +
                                     static_cast<ptrdiff_t>(len));
        EXPECT_FALSE(peekSnapshotPolicyKey(cut, key, &error))
            << "prefix of " << len << " bytes peeked";
    }
}

TEST(Snapshot, CompactRoundTripIsIdentity)
{
    Snapshotted s = makeSnapshot();
    std::vector<RawBlock> blocks;
    std::string error;
    ASSERT_TRUE(parseSnapshotBlocks(s.bytes, blocks, &error)) << error;
    EXPECT_EQ(serializeSnapshotBlocks(blocks), s.bytes);
}

/**
 * Golden VAT layout: the `.dtss` bytes of a checker warmed on an
 * app-derived complete profile carry every table's sid order, bucket
 * count, slot placement and counters. The constant is the CRC-64 of the
 * bytes the std::map-keyed VAT produced, so any change to hashing,
 * indexing, table order or counting moves it.
 */
TEST(Snapshot, GoldenVatLayoutIsPinned)
{
    const auto *app = workload::workloadByName("redis");
    ASSERT_NE(app, nullptr);
    auto policy = core::CompiledPolicy::compile(
        sim::makeAppProfiles(*app, 21, 20000).complete);
    core::DracoSoftwareChecker checker(policy);
    workload::TraceGenerator gen(*app, 22);
    for (int i = 0; i < 20000; ++i)
        checker.check(gen.next().req);
    ASSERT_GT(checker.vat().tableCount(), 1u);
    ASSERT_GT(checker.stats().vatHits, 0u);

    // Overfill the first table so displacement chains and evictions
    // are pinned too.
    uint16_t sid = 0;
    uint64_t mask = 0;
    checker.vat().forEachTable([&](uint16_t s, uint64_t m, const auto &) {
        if (mask == 0) {
            sid = s;
            mask = m;
        }
    });
    Rng rng(23);
    for (int i = 0; i < 256; ++i) {
        seccomp::ArgVector args{};
        for (uint64_t &arg : args)
            arg = rng.next();
        checker.mutableVat().insert(sid, core::ArgKey(mask, args));
    }
    ASSERT_GT(checker.vat().evictions(), 0u);

    const std::vector<uint8_t> bytes =
        encodeSnapshot("golden", checker, 1);
    EXPECT_EQ(crc64Ecma().compute(bytes.data(), bytes.size()),
              0xd222184b9a301c3bULL);
}

} // namespace
} // namespace draco::lifecycle
