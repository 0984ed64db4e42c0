/**
 * @file
 * Tests for the Validated Argument Table.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/vat.hh"
#include "hash/crc64.hh"
#include "support/random.hh"

namespace draco::core {
namespace {

ArgKey
keyOf(uint64_t bitmask, uint64_t a0, uint64_t a2 = 0)
{
    seccomp::ArgVector args{};
    args[0] = a0;
    args[2] = a2;
    return ArgKey(bitmask, args);
}

constexpr uint64_t kReadMask = 0xffULL << 16 | 0xfULL; // fd + count

TEST(Vat, ConfigureAndLookupMiss)
{
    Vat vat;
    vat.configure(0, kReadMask, 4);
    EXPECT_TRUE(vat.configured(0));
    EXPECT_FALSE(vat.configured(1));
    EXPECT_EQ(vat.bitmask(0), kReadMask);
    EXPECT_FALSE(vat.lookup(0, keyOf(kReadMask, 3, 64)).has_value());
}

TEST(Vat, InsertThenHit)
{
    Vat vat;
    vat.configure(0, kReadMask, 4);
    ArgKey key = keyOf(kReadMask, 3, 64);
    vat.insert(0, key);
    auto hit = vat.lookup(0, key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(vat.setCount(0), 1u);
}

TEST(Vat, HitTokenHashMatchesCrc)
{
    Vat vat;
    vat.configure(0, kReadMask, 4);
    ArgKey key = keyOf(kReadMask, 3, 64);
    vat.insert(0, key);
    auto hit = vat.lookup(0, key);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->token.hash, vatHash(hit->token.way, key));
    // The token is the diffused CRC of the key's way (see vatHash).
    uint64_t ecma = crc64Ecma().compute(key.data(), key.size());
    uint64_t notEcma = crc64NotEcma().compute(key.data(), key.size());
    if (hit->token.way == CuckooWay::H1)
        EXPECT_EQ(hit->token.hash, mix64(ecma));
    else
        EXPECT_EQ(hit->token.hash, mix64(notEcma));
}

TEST(Vat, SlotContentsReadsByLocation)
{
    Vat vat;
    vat.configure(0, kReadMask, 4);
    ArgKey key = keyOf(kReadMask, 5, 128);
    vat.insert(0, key);
    auto hit = vat.lookup(0, key);
    ASSERT_TRUE(hit);
    auto contents = vat.slotContents(0, hit->token);
    ASSERT_TRUE(contents.has_value());
    EXPECT_EQ(*contents, key);
}

TEST(Vat, SlotContentsEmptyWhenUnoccupied)
{
    Vat vat;
    vat.configure(0, kReadMask, 4);
    EXPECT_FALSE(
        vat.slotContents(0, VatToken{CuckooWay::H1, 12345}).has_value());
}

TEST(Vat, EntryAddressesDistinctAndAligned)
{
    Vat vat;
    vat.configure(0, kReadMask, 8);
    uint64_t a1 = vat.entryAddress(0, VatToken{CuckooWay::H1, 0});
    uint64_t a2 = vat.entryAddress(0, VatToken{CuckooWay::H1, 1});
    uint64_t a3 = vat.entryAddress(0, VatToken{CuckooWay::H2, 0});
    EXPECT_NE(a1, a2);
    EXPECT_NE(a1, a3);
    EXPECT_NE(a2, a3);
}

TEST(Vat, AddressStableForSameToken)
{
    Vat vat;
    vat.configure(7, kReadMask, 8);
    VatToken token{CuckooWay::H2, 98765};
    EXPECT_EQ(vat.entryAddress(7, token), vat.entryAddress(7, token));
}

TEST(Vat, TablesHaveDistinctAddressRegions)
{
    Vat vat;
    vat.configure(0, kReadMask, 64);
    vat.configure(1, kReadMask, 64);
    uint64_t last0 = vat.entryAddress(0, VatToken{CuckooWay::H2, 63});
    uint64_t first1 = vat.entryAddress(1, VatToken{CuckooWay::H1, 0});
    EXPECT_NE(last0 / 4096, first1 / 4096);
}

TEST(Vat, EraseRemovesEntry)
{
    Vat vat;
    vat.configure(0, kReadMask, 4);
    ArgKey key = keyOf(kReadMask, 3, 64);
    vat.insert(0, key);
    EXPECT_TRUE(vat.erase(0, key));
    EXPECT_FALSE(vat.lookup(0, key).has_value());
    EXPECT_FALSE(vat.erase(0, key));
}

TEST(Vat, OverProvisionedTwoX)
{
    // §VII-A: table capacity is at least twice the estimated set count,
    // so inserting all estimated sets keeps the table at or below the
    // cuckoo threshold — insert-pressure evictions stay (near) zero.
    Vat vat;
    vat.configure(0, kReadMask, 100);
    for (uint64_t i = 0; i < 100; ++i)
        vat.insert(0, keyOf(kReadMask, i, i * 8));
    EXPECT_LE(vat.evictions(), 1u);
    EXPECT_GE(vat.setCount(0), 99u);
}

TEST(Vat, PressureEvictsExactlyOneAtATime)
{
    Vat vat;
    vat.configure(0, kReadMask, 2); // tiny: capacity 4
    uint64_t inserted = 0;
    for (uint64_t i = 0; i < 200; ++i) {
        vat.insert(0, keyOf(kReadMask, i, 1));
        ++inserted;
        EXPECT_EQ(vat.setCount(0), inserted - vat.evictions());
    }
    EXPECT_GT(vat.evictions(), 0u);
    EXPECT_LE(vat.setCount(0), 4u);
}

TEST(Vat, FootprintBytesReasonable)
{
    Vat vat;
    // read-like: 12 checked bytes -> 16B key + 8B metadata = 24B/entry.
    vat.configure(0, kReadMask, 8);
    // buckets = 8 per way, 16 entries total.
    EXPECT_EQ(vat.footprintBytes(), 16u * 24u);
}

TEST(Vat, FootprintScalesWithTables)
{
    Vat vat;
    vat.configure(0, kReadMask, 8);
    size_t one = vat.footprintBytes();
    vat.configure(1, kReadMask, 8);
    EXPECT_EQ(vat.footprintBytes(), 2 * one);
    EXPECT_EQ(vat.tableCount(), 2u);
}

TEST(Vat, DistinctSidsIsolated)
{
    Vat vat;
    vat.configure(0, kReadMask, 4);
    vat.configure(1, kReadMask, 4);
    ArgKey key = keyOf(kReadMask, 3, 64);
    vat.insert(0, key);
    EXPECT_TRUE(vat.lookup(0, key));
    EXPECT_FALSE(vat.lookup(1, key));
}

TEST(Vat, RandomizedInsertLookupProperty)
{
    // Inserting only up to half the estimated capacity: everything
    // must be findable (no threshold effects at 25% load).
    Vat vat;
    vat.configure(0, kReadMask, 256);
    Rng rng(77);
    std::vector<ArgKey> keys;
    for (int i = 0; i < 128; ++i) {
        ArgKey key = keyOf(kReadMask, rng.nextBelow(1 << 20),
                           rng.nextBelow(1 << 16));
        vat.insert(0, key);
        keys.push_back(key);
    }
    EXPECT_EQ(vat.evictions(), 0u);
    for (const auto &key : keys)
        EXPECT_TRUE(vat.lookup(0, key).has_value());
}

TEST(Vat, ProbeSlotAgreesWithLookupAndCountsTheSame)
{
    // RandomizedInsertLookupProperty's inputs plus as many misses: the
    // software check's slot probe must answer what lookup() answers
    // and leave identical cuckoo counters.
    Vat byLookup;
    Vat byProbe;
    byLookup.configure(0, kReadMask, 256);
    byProbe.configure(0, kReadMask, 256);
    Rng rng(77);
    std::vector<ArgKey> keys;
    for (int i = 0; i < 128; ++i) {
        ArgKey key = keyOf(kReadMask, rng.nextBelow(1 << 20),
                           rng.nextBelow(1 << 16));
        byLookup.insert(0, key);
        byProbe.insertSlot(0, key);
        keys.push_back(key);
    }
    for (int i = 0; i < 128; ++i)
        keys.push_back(keyOf(kReadMask, (1 << 20) + rng.nextBelow(1 << 20),
                             rng.nextBelow(1 << 16)));
    size_t hits = 0;
    for (const auto &key : keys) {
        bool hit = byLookup.lookup(0, key).has_value();
        EXPECT_EQ(byProbe.probeSlot(0, key), hit);
        hits += hit;
    }
    EXPECT_EQ(hits, 128u);

    std::vector<CuckooStats> stats;
    for (const Vat *vat : {&byLookup, &byProbe})
        vat->forEachTable([&](uint16_t, uint64_t, const VatCuckoo &t) {
            stats.push_back(t.stats());
        });
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].lookups, 256u);
    EXPECT_EQ(stats[0].hits, 128u);
    EXPECT_EQ(stats[1].lookups, stats[0].lookups);
    EXPECT_EQ(stats[1].hits, stats[0].hits);
    EXPECT_EQ(stats[1].insertions, stats[0].insertions);
    EXPECT_EQ(stats[1].displacements, stats[0].displacements);
}

TEST(Vat, SlotsFollowAscendingSid)
{
    // Configured out of order, the tables still take dense slots in
    // ascending sid order; the sid-keyed API finds each one.
    Vat vat;
    vat.configure(9, kReadMask, 4);
    vat.configure(2, kReadMask, 4);
    vat.configure(5, kReadMask, 4);
    std::vector<uint16_t> order;
    vat.forEachTable([&](uint16_t sid, uint64_t, const VatCuckoo &) {
        order.push_back(sid);
    });
    EXPECT_EQ(order, (std::vector<uint16_t>{2, 5, 9}));

    ArgKey key = keyOf(kReadMask, 3, 64);
    vat.insert(5, key);
    EXPECT_TRUE(vat.probeSlot(1, key));
    EXPECT_FALSE(vat.probeSlot(0, key));
    EXPECT_FALSE(vat.probeSlot(2, key));
    vat.insertSlot(2, key);
    EXPECT_TRUE(vat.lookup(9, key).has_value());
    EXPECT_EQ(vat.setCount(2), 0u);
}

/**
 * The VAT's stateless hasher and the std::function form of the same
 * hashes must drive a table identically: same layout, counters and
 * eviction victims over a seeded insert/lookup/erase sequence that
 * overfills the table.
 */
TEST(Vat, StaticAndFunctionHashersAgree)
{
    VatCuckoo fast(16, VatHasher{}, 8);
    CuckooTable<ArgKey> slow(
        16,
        {[](const ArgKey &k) { return vatHash(CuckooWay::H1, k); },
         [](const ArgKey &k) { return vatHash(CuckooWay::H2, k); }},
        8);
    Rng rng(41);
    for (int op = 0; op < 4000; ++op) {
        ArgKey key = keyOf(kReadMask, rng.nextBelow(64), rng.nextBelow(4));
        switch (rng.nextBelow(3)) {
          case 0: {
            ArgKey fastVictim, slowVictim;
            ASSERT_EQ(fast.insert(key, &fastVictim),
                      slow.insert(key, &slowVictim));
            ASSERT_EQ(fastVictim, slowVictim);
            break;
          }
          case 1: {
            auto a = fast.lookup(key);
            auto b = slow.lookup(key);
            ASSERT_EQ(a.has_value(), b.has_value());
            if (a) {
                EXPECT_EQ(a->way, b->way);
                EXPECT_EQ(a->hash, b->hash);
                EXPECT_EQ(a->index, b->index);
            }
            break;
          }
          default:
            ASSERT_EQ(fast.erase(key), slow.erase(key));
            break;
        }
    }
    EXPECT_GT(fast.stats().evictions, 0u);
    EXPECT_EQ(fast.stats().lookups, slow.stats().lookups);
    EXPECT_EQ(fast.stats().hits, slow.stats().hits);
    EXPECT_EQ(fast.stats().insertions, slow.stats().insertions);
    EXPECT_EQ(fast.stats().displacements, slow.stats().displacements);
    EXPECT_EQ(fast.stats().evictions, slow.stats().evictions);
    EXPECT_EQ(fast.size(), slow.size());

    using Placed = std::tuple<CuckooWay, uint64_t, std::string>;
    auto layout = [](const auto &table) {
        std::vector<Placed> out;
        table.forEachSlot([&](CuckooWay way, uint64_t index,
                              const ArgKey &key) {
            out.emplace_back(way, index,
                             std::string(reinterpret_cast<const char *>(
                                             key.data()),
                                         key.size()));
        });
        return out;
    };
    EXPECT_EQ(layout(fast), layout(slow));
}

TEST(VatDeathTest, ConfigureWithoutBitmaskIsFatal)
{
    Vat vat;
    EXPECT_EXIT(vat.configure(0, 0, 4), testing::ExitedWithCode(1), "");
}

TEST(VatDeathTest, InsertUnconfiguredPanics)
{
    Vat vat;
    EXPECT_DEATH(vat.insert(3, keyOf(kReadMask, 1, 2)), "");
}

} // namespace
} // namespace draco::core
