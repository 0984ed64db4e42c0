/**
 * @file
 * Tests for CheckSpec derivation and ArgKey byte selection.
 */

#include <gtest/gtest.h>

#include "core/checkspec.hh"

namespace draco::core {
namespace {

TEST(CheckSpec, AllowAllHasEmptyBitmask)
{
    seccomp::Profile p("p");
    p.allow(os::sc::read);
    auto specs = deriveCheckSpecs(p);
    ASSERT_TRUE(specs.count(os::sc::read));
    EXPECT_EQ(specs[os::sc::read].bitmask, 0u);
    EXPECT_FALSE(specs[os::sc::read].checksArguments());
}

TEST(CheckSpec, TupleRuleUsesFullBitmask)
{
    seccomp::Profile p("p");
    p.allowTuple(os::sc::read, {3, 0, 64, 0, 0, 0});
    auto specs = deriveCheckSpecs(p);
    const auto *desc = os::syscallById(os::sc::read);
    EXPECT_EQ(specs[os::sc::read].bitmask, desc->argumentBitmask());
    EXPECT_EQ(specs[os::sc::read].estimatedSets, 1u);
    EXPECT_EQ(argCount(specs[os::sc::read].bitmask), 2u); // fd + count
}

TEST(CheckSpec, ZeroCheckedArgTupleRuleBecomesIdOnly)
{
    seccomp::Profile p("p");
    p.allowTuple(os::sc::getpid, {});
    auto specs = deriveCheckSpecs(p);
    EXPECT_EQ(specs[os::sc::getpid].bitmask, 0u);
}

TEST(CheckSpec, PerArgValuesRestrictsBitmaskToConstrainedArgs)
{
    seccomp::Profile p("p");
    p.allowArgValues(os::sc::socket, 0, {1, 2});
    auto specs = deriveCheckSpecs(p);
    // Constrained args select all eight register bytes.
    EXPECT_EQ(specs[os::sc::socket].bitmask, 0xffULL);
    EXPECT_EQ(argCount(specs[os::sc::socket].bitmask), 1u);
    EXPECT_EQ(specs[os::sc::socket].estimatedSets, 2u);
}

TEST(CheckSpec, PerArgCrossProductEstimatesSets)
{
    seccomp::Profile p("p");
    p.allowArgValues(os::sc::socket, 0, {1, 2, 3});
    p.allowArgValues(os::sc::socket, 1, {1, 2});
    auto specs = deriveCheckSpecs(p);
    EXPECT_EQ(specs[os::sc::socket].estimatedSets, 6u);
    EXPECT_EQ(argCount(specs[os::sc::socket].bitmask), 2u);
}

TEST(CheckSpec, DisallowedSyscallAbsent)
{
    seccomp::Profile p("p");
    p.allow(os::sc::read);
    auto specs = deriveCheckSpecs(p);
    EXPECT_FALSE(specs.count(os::sc::write));
}

TEST(ArgKey, SelectsExactlyMaskedBytes)
{
    // Bitmask selecting arg0 bytes 0..3 and arg2 bytes 0..7.
    uint64_t mask = 0xfULL | (0xffULL << 16);
    seccomp::ArgVector args{};
    args[0] = 0x11223344;
    args[1] = 0xdeadbeef; // not selected
    args[2] = 0x8877665544332211ULL;
    ArgKey key(mask, args);
    EXPECT_EQ(key.size(), 12u);
    // Little-endian byte order, arg-major.
    EXPECT_EQ(key.data()[0], 0x44);
    EXPECT_EQ(key.data()[3], 0x11);
    EXPECT_EQ(key.data()[4], 0x11);
    EXPECT_EQ(key.data()[11], 0x88);
}

TEST(ArgKey, UnselectedBytesDoNotAffectEquality)
{
    uint64_t mask = 0xfULL; // arg0 low 4 bytes only
    seccomp::ArgVector a{}, b{};
    a[0] = 0x00000000AABBCCDDULL;
    b[0] = 0x12345678AABBCCDDULL; // differs only above the mask
    b[1] = 999;
    b[5] = ~0ULL;
    EXPECT_EQ(ArgKey(mask, a), ArgKey(mask, b));
}

TEST(ArgKey, SelectedByteDifferenceBreaksEquality)
{
    uint64_t mask = 0xfULL;
    seccomp::ArgVector a{}, b{};
    a[0] = 0x01;
    b[0] = 0x02;
    EXPECT_FALSE(ArgKey(mask, a) == ArgKey(mask, b));
}

TEST(ArgKey, EmptyMaskGivesEmptyKey)
{
    seccomp::ArgVector args{};
    args[0] = 42;
    ArgKey key(0, args);
    EXPECT_EQ(key.size(), 0u);
    EXPECT_EQ(key, ArgKey());
}

TEST(ArgKey, FullMaskUsesAllFortyEightBytes)
{
    uint64_t mask = (1ULL << 48) - 1;
    seccomp::ArgVector args{};
    for (int i = 0; i < 6; ++i)
        args[i] = 0x0101010101010101ULL * (i + 1);
    ArgKey key(mask, args);
    EXPECT_EQ(key.size(), 48u);
    EXPECT_EQ(key.data()[0], 0x01);
    EXPECT_EQ(key.data()[47], 0x06);
}

TEST(ArgKey, MatchesSyscallBitmaskSemantics)
{
    // Using read's real bitmask: fd (4B) + count (8B), buf skipped.
    const auto *desc = os::syscallById(os::sc::read);
    uint64_t mask = desc->argumentBitmask();
    seccomp::ArgVector a{}, b{};
    a = {3, 0x7f0000001000ULL, 4096, 0, 0, 0};
    b = {3, 0x7f0000992000ULL, 4096, 0, 0, 0};
    EXPECT_EQ(ArgKey(mask, a), ArgKey(mask, b));
    b[2] = 4097;
    EXPECT_FALSE(ArgKey(mask, a) == ArgKey(mask, b));
}

} // namespace
} // namespace draco::core
