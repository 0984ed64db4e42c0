/**
 * @file
 * Unit tests for CliFlags: strict and lenient argv parsing, both value
 * spellings, error reporting, pass-through extras, and help rendering.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/cliflags.hh"

namespace draco::support {
namespace {

/** Build a mutable argv from string literals. */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : _args(std::move(args))
    {
        _ptrs.push_back(const_cast<char *>("prog"));
        for (std::string &arg : _args)
            _ptrs.push_back(arg.data());
    }

    int argc() const { return static_cast<int>(_ptrs.size()); }
    char **argv() { return _ptrs.data(); }

  private:
    std::vector<std::string> _args;
    std::vector<char *> _ptrs;
};

CliFlags
makeFlags()
{
    CliFlags flags("testprog", "a test program");
    flags.addString("socket", "path", "socket path");
    flags.addUint("shards", "n", "shard count", 4);
    flags.addFlag("verbose", "say more");
    return flags;
}

TEST(CliFlags, ParsesBothValueSpellings)
{
    CliFlags flags = makeFlags();
    Argv args({"--socket", "/tmp/a.sock", "--shards=8", "--verbose"});
    ASSERT_TRUE(flags.parse(args.argc(), args.argv()));
    EXPECT_EQ(flags.str("socket"), "/tmp/a.sock");
    EXPECT_EQ(flags.uintValue("shards"), 8u);
    EXPECT_TRUE(flags.flag("verbose"));
    EXPECT_TRUE(flags.given("socket"));
    EXPECT_TRUE(flags.given("shards"));
}

TEST(CliFlags, DefaultsApplyWhenNotGiven)
{
    CliFlags flags = makeFlags();
    Argv args({});
    ASSERT_TRUE(flags.parse(args.argc(), args.argv()));
    EXPECT_EQ(flags.str("socket"), "");
    EXPECT_EQ(flags.uintValue("shards"), 4u);
    EXPECT_FALSE(flags.flag("verbose"));
    EXPECT_FALSE(flags.given("shards"));
}

TEST(CliFlags, StrictRejectsUnknownFlag)
{
    CliFlags flags = makeFlags();
    Argv args({"--bogus", "1"});
    EXPECT_FALSE(flags.parse(args.argc(), args.argv()));
    EXPECT_NE(flags.error().find("--bogus"), std::string::npos);
}

TEST(CliFlags, StrictRejectsMissingValue)
{
    CliFlags flags = makeFlags();
    Argv args({"--socket"});
    EXPECT_FALSE(flags.parse(args.argc(), args.argv()));
    EXPECT_NE(flags.error().find("requires a value"),
              std::string::npos);
}

TEST(CliFlags, StrictRejectsMalformedUint)
{
    for (const char *bad : {"0", "-3", "abc", "12x", ""}) {
        CliFlags flags = makeFlags();
        Argv args({"--shards", bad});
        EXPECT_FALSE(flags.parse(args.argc(), args.argv())) << bad;
        EXPECT_FALSE(flags.error().empty()) << bad;
    }
}

TEST(CliFlags, StrictRejectsValueOnBooleanFlag)
{
    CliFlags flags = makeFlags();
    Argv args({"--verbose=yes"});
    EXPECT_FALSE(flags.parse(args.argc(), args.argv()));
    EXPECT_NE(flags.error().find("takes no value"), std::string::npos);
}

TEST(CliFlags, StrictCollectsPositionals)
{
    CliFlags flags = makeFlags();
    Argv args({"input.dtrc", "--shards", "2", "other"});
    ASSERT_TRUE(flags.parse(args.argc(), args.argv()));
    EXPECT_EQ(flags.extras(),
              (std::vector<std::string>{"input.dtrc", "other"}));
}

TEST(CliFlags, LenientPassesUnknownTokensThrough)
{
    CliFlags flags = makeFlags();
    Argv args({"--shards", "2", "--custom-flag", "value", "--other=x"});
    ASSERT_TRUE(flags.parse(args.argc(), args.argv(), true));
    EXPECT_EQ(flags.uintValue("shards"), 2u);
    // Unknown flags and their (unclaimed) values pass through untouched
    // so the binary's own parser can layer on top.
    EXPECT_EQ(flags.extras(),
              (std::vector<std::string>{"--custom-flag", "value",
                                        "--other=x"}));
}

TEST(CliFlags, LenientKeepsDefaultOnMalformedValue)
{
    CliFlags flags = makeFlags();
    Argv args({"--shards", "nope"});
    ASSERT_TRUE(flags.parse(args.argc(), args.argv(), true));
    EXPECT_EQ(flags.uintValue("shards"), 4u);
    EXPECT_FALSE(flags.given("shards"));
}

TEST(CliFlags, HelpStopsParsing)
{
    for (const char *spelling : {"--help", "-h"}) {
        CliFlags flags = makeFlags();
        Argv args({spelling, "--bogus"});
        EXPECT_TRUE(flags.parse(args.argc(), args.argv())) << spelling;
        EXPECT_TRUE(flags.helpRequested()) << spelling;
    }
}

TEST(CliFlags, HelpTextListsEveryFlag)
{
    CliFlags flags = makeFlags();
    std::string help = flags.helpText();
    EXPECT_NE(help.find("testprog"), std::string::npos);
    EXPECT_NE(help.find("a test program"), std::string::npos);
    for (const char *name :
         {"--socket <path>", "--shards <n>", "--verbose", "--help"})
        EXPECT_NE(help.find(name), std::string::npos) << name;
}

TEST(CliFlags, AddCommonRegistersTheSharedFlags)
{
    CliFlags flags("bench");
    flags.addCommon();
    Argv args({"--json=out.json", "--threads", "3",
               "--trace-out=trace.json", "--sample-every", "1000"});
    ASSERT_TRUE(flags.parse(args.argc(), args.argv()));
    EXPECT_EQ(flags.str("json"), "out.json");
    EXPECT_EQ(flags.uintValue("threads"), 3u);
    EXPECT_EQ(flags.str("trace-out"), "trace.json");
    EXPECT_EQ(flags.uintValue("sample-every"), 1000u);
}

TEST(CliFlags, AddCommonWithoutThreadsRejectsThreads)
{
    CliFlags flags("daemon");
    flags.addCommon(/*threads=*/false);
    Argv args({"--json=out.json", "--threads", "3"});
    EXPECT_FALSE(flags.parse(args.argc(), args.argv()));
    EXPECT_EQ(flags.error(), "unknown flag --threads");
    EXPECT_EQ(flags.helpText().find("--threads"), std::string::npos);
}

} // namespace
} // namespace draco::support
