/**
 * @file
 * Tests for the hardware Draco engine: Table-I flows, speculation
 * safety, context-switch isolation, and semantic equivalence.
 */

#include <gtest/gtest.h>

#include "core/hw_engine.hh"
#include "seccomp/profile_gen.hh"
#include "seccomp/profiles_builtin.hh"
#include "support/random.hh"
#include "workload/generator.hh"

namespace draco::core {
namespace {

os::SyscallRequest
request(uint16_t sid, std::array<uint64_t, 6> args = {},
        uint64_t pc = 0x400800)
{
    os::SyscallRequest req;
    req.sid = sid;
    req.args = args;
    req.pc = pc;
    return req;
}

seccomp::Profile
readProfile()
{
    seccomp::Profile p("p");
    p.allowTuple(os::sc::read, {3, 0, 64, 0, 0, 0});
    p.allowTuple(os::sc::read, {4, 0, 128, 0, 0, 0});
    p.allow(os::sc::getpid);
    return p;
}

TEST(HwEngine, IdOnlyFlow)
{
    HwProcessContext proc(readProfile());
    DracoHardwareEngine engine;
    engine.switchTo(&proc);
    auto out = engine.onSyscall(request(os::sc::getpid));
    EXPECT_TRUE(out.allowed);
    EXPECT_EQ(out.flow, HwFlow::IdOnly);
    EXPECT_TRUE(out.fast());
}

TEST(HwEngine, ColdMissIsFlow6ThenWarmsToFlow1)
{
    HwProcessContext proc(readProfile());
    DracoHardwareEngine engine;
    engine.switchTo(&proc);
    auto req = request(os::sc::read, {3, 0x1000, 64});

    // Cold: STB miss, SLB miss, VAT miss -> filter runs (flow 6).
    auto out = engine.onSyscall(req);
    EXPECT_TRUE(out.allowed);
    EXPECT_EQ(out.flow, HwFlow::F6);
    EXPECT_TRUE(out.filterRun);
    EXPECT_TRUE(out.vatInserted);
    EXPECT_FALSE(out.fast());

    // Warm: everything hits (flow 1).
    out = engine.onSyscall(req);
    EXPECT_EQ(out.flow, HwFlow::F1);
    EXPECT_TRUE(out.fast());
    EXPECT_TRUE(out.accessHit);
    EXPECT_TRUE(out.stbHit);
    EXPECT_TRUE(out.preloadHit);
    EXPECT_TRUE(out.headMemAddrs.empty());
}

TEST(HwEngine, Flow5WhenSlbWarmButStbCold)
{
    HwProcessContext proc(readProfile());
    DracoHardwareEngine engine;
    engine.switchTo(&proc);
    engine.onSyscall(request(os::sc::read, {3, 0, 64}, 0x400800));
    // Same (sid, args) from a different PC: STB misses, SLB hits.
    auto out = engine.onSyscall(request(os::sc::read, {3, 0, 64},
                                        0x990000));
    EXPECT_EQ(out.flow, HwFlow::F5);
    EXPECT_TRUE(out.fast());
}

TEST(HwEngine, Flow2WhenArgsChangeUnderSamePc)
{
    HwProcessContext proc(readProfile());
    DracoHardwareEngine engine;
    engine.switchTo(&proc);
    auto reqA = request(os::sc::read, {3, 0, 64});
    auto reqB = request(os::sc::read, {4, 0, 128});
    engine.onSyscall(reqA); // flow 6, warms everything for tuple A
    engine.onSyscall(reqB); // flow 2/4/6 depending on state; warm both
    engine.onSyscall(reqA);
    // Now SLB holds both tuples; STB hash predicts the *last* tuple.
    auto out = engine.onSyscall(reqB);
    // STB hit; preload probes with A's hash... which misses or hits
    // depending on which tuple the STB saw last. Either way the access
    // must hit (both tuples cached) and be fast.
    EXPECT_TRUE(out.fast());
    EXPECT_TRUE(out.accessHit);
    EXPECT_TRUE(out.allowed);
}

TEST(HwEngine, Flow3PreloadFetchLeadsToAccessHit)
{
    HwProcessContext proc(readProfile());
    DracoHardwareEngine engine;
    engine.switchTo(&proc);
    auto req = request(os::sc::read, {3, 0x1000, 64});
    engine.onSyscall(req); // flow 6: VAT + STB warm, SLB warm
    // Evict the SLB entry but keep STB and VAT.
    engine.slb().invalidateAll();
    auto out = engine.onSyscall(req);
    EXPECT_EQ(out.flow, HwFlow::F3);
    EXPECT_TRUE(out.fast());
    // The fetch happened during preload, not at the head.
    EXPECT_FALSE(out.preloadMemAddrs.empty());
    EXPECT_TRUE(out.headMemAddrs.empty());
}

TEST(HwEngine, DeniedCallRunsFilterAndStaysDenied)
{
    HwProcessContext proc(readProfile());
    DracoHardwareEngine engine;
    engine.switchTo(&proc);
    auto out = engine.onSyscall(request(os::sc::read, {9, 0, 9}));
    EXPECT_FALSE(out.allowed);
    EXPECT_EQ(out.flow, HwFlow::Denied);
    EXPECT_TRUE(out.filterRun);
    // Still denied (and never cached) on repeat.
    out = engine.onSyscall(request(os::sc::read, {9, 0, 9}));
    EXPECT_FALSE(out.allowed);
    EXPECT_TRUE(out.filterRun);
}

TEST(HwEngine, DisallowedSyscallDenied)
{
    HwProcessContext proc(readProfile());
    DracoHardwareEngine engine;
    engine.switchTo(&proc);
    auto out = engine.onSyscall(request(os::sc::write, {1, 0, 8}));
    EXPECT_FALSE(out.allowed);
    EXPECT_EQ(out.flow, HwFlow::Denied);
}

TEST(HwEngine, SquashLeavesNoSideEffects)
{
    // §IX: preload followed by a squash must leave the SLB (contents
    // AND replacement state) as if the preload never happened.
    HwProcessContext proc(readProfile());
    DracoHardwareEngine engine;
    engine.switchTo(&proc);
    auto req = request(os::sc::read, {3, 0x1000, 64});
    engine.onSyscall(req);          // warm VAT + STB
    engine.slb().invalidateAll();   // SLB cold, STB warm

    uint64_t preloadHitsBefore = engine.slbStats().preloadHits;
    engine.onDispatch(req.pc);      // speculative preload stages entry
    engine.onSquash();              // transient squashed

    // The SLB must still be empty: access from a *fresh* dispatch with
    // no preload (STB invalidated to prevent re-staging).
    engine.stb().invalidateAll();
    engine.onDispatch(req.pc);
    auto out = engine.onRobHead(req);
    EXPECT_EQ(out.flow, HwFlow::F6) << "squashed preload leaked into SLB";
    EXPECT_EQ(engine.slbStats().preloadHits, preloadHitsBefore);
    EXPECT_EQ(engine.stats().squashes, 1u);
}

TEST(HwEngine, SquashedPreloadStillCorrectLater)
{
    HwProcessContext proc(readProfile());
    DracoHardwareEngine engine;
    engine.switchTo(&proc);
    auto req = request(os::sc::read, {3, 0x1000, 64});
    engine.onSyscall(req);
    engine.slb().invalidateAll();
    engine.onDispatch(req.pc);
    engine.onSquash();
    // Re-executed instruction: full dispatch+head must succeed.
    auto out = engine.onSyscall(req);
    EXPECT_TRUE(out.allowed);
    EXPECT_TRUE(out.accessHit);
}

TEST(HwEngine, StalePreloadFromOtherPcIsDropped)
{
    // Regression (§IX): a dispatch at PC A stages a preload in the
    // Temporary Buffer; if the syscall that actually reaches the ROB
    // head was fetched at a different PC, the staged entries belong to
    // a prediction that never came true and must be dropped, not
    // committed into the SLB by the unrelated syscall.
    HwProcessContext proc(readProfile());
    DracoHardwareEngine engine;
    engine.switchTo(&proc);
    auto reqA = request(os::sc::read, {3, 0, 64}, 0x400800);
    engine.onSyscall(reqA);       // warm VAT + STB for PC A
    engine.slb().invalidateAll(); // SLB cold, STB warm

    // PC A's dispatch stages tuple A, but the head sees the *same sid*
    // from a different PC — exactly the case where a sid-keyed commit
    // would adopt the stale staged entry.
    engine.onDispatch(reqA.pc);
    auto reqB = request(os::sc::read, {4, 0, 128}, 0x990000);
    engine.onRobHead(reqB);

    // Tuple A must not have leaked into the SLB: a fresh access with
    // no preload of its own (STB invalidated) has to fall through to
    // the VAT.
    engine.stb().invalidateAll();
    auto out = engine.onSyscall(reqA);
    EXPECT_FALSE(out.accessHit) << "stale preload leaked into SLB";
    EXPECT_EQ(out.flow, HwFlow::F6);
    EXPECT_TRUE(out.allowed);
    EXPECT_FALSE(out.filterRun); // VAT still remembers tuple A
}

TEST(HwEngine, TableOneFlowClassification)
{
    // Drive one syscall through each Table-I flow and check both the
    // engine's flow counters and their registry export agree with the
    // per-call classification.
    HwProcessContext proc(readProfile());
    DracoHardwareEngine engine;
    engine.switchTo(&proc);
    auto reqA = request(os::sc::read, {3, 0, 64}, 0x400800);
    auto reqB = request(os::sc::read, {4, 0, 128}, 0x400800);

    // ID-only syscall: SPT says no argument checks.
    ASSERT_EQ(engine.onSyscall(request(os::sc::getpid, {}, 0x100)).flow,
              HwFlow::IdOnly);
    // Cold miss: filter validates and fills the VAT.
    ASSERT_EQ(engine.onSyscall(reqA).flow, HwFlow::F6);
    // Fully warm repeat: STB hit + preload hit + access hit.
    ASSERT_EQ(engine.onSyscall(reqA).flow, HwFlow::F1);
    // SLB evicted, STB warm: preload fetches from the VAT in time.
    engine.slb().invalidateAll();
    ASSERT_EQ(engine.onSyscall(reqA).flow, HwFlow::F3);
    // Same tuple from a new PC: no prediction, but the SLB access hits.
    ASSERT_EQ(engine.onSyscall(request(os::sc::read, {3, 0, 64},
                                       0x990000))
                  .flow,
              HwFlow::F5);
    // Same PC, different tuple: prediction hits the *old* tuple, the
    // access misses, the VAT misses -> filter revalidates.
    ASSERT_EQ(engine.onSyscall(reqB).flow, HwFlow::F2);
    // STB now predicts tuple B; evict the SLB and issue tuple A: the
    // preload fetches the wrong entry, the access misses, the VAT hits.
    engine.slb().invalidateAll();
    ASSERT_EQ(engine.onSyscall(reqA).flow, HwFlow::F4);
    // Argument set outside the profile.
    ASSERT_EQ(engine.onSyscall(request(os::sc::read, {9, 0, 9}, 0x7700))
                  .flow,
              HwFlow::Denied);

    const auto &stats = engine.stats();
    EXPECT_EQ(stats.syscalls, 8u);
    for (size_t i = 0; i < stats.flows.size(); ++i)
        EXPECT_EQ(stats.flows[i], 1u) << hwFlowMetricName(
            static_cast<HwFlow>(i));

    MetricRegistry registry;
    engine.exportMetrics(registry, "hw");
    EXPECT_EQ(registry.counterValue("hw.syscalls"), 8u);
    for (size_t i = 0; i < stats.flows.size(); ++i) {
        std::string name = MetricRegistry::join(
            "hw.flows", hwFlowMetricName(static_cast<HwFlow>(i)));
        EXPECT_EQ(registry.counterValue(name), stats.flows[i]) << name;
    }
    // Fast flows are IdOnly/F1/F3/F5 (Table I); slow excludes denials.
    EXPECT_EQ(registry.counterValue("hw.flows.fast"), 4u);
    EXPECT_EQ(registry.counterValue("hw.flows.slow"), 3u);
    EXPECT_DOUBLE_EQ(registry.gaugeValue("hw.flows.fast_fraction"), 0.5);
    // The scheduled process's VAT rides along under the same prefix.
    EXPECT_EQ(registry.counterValue("hw.vat.insertions"), 2u);
}

TEST(HwEngine, ContextSwitchIsolatesProcesses)
{
    // A process must never hit on another process's cached state.
    seccomp::Profile pa = readProfile();
    seccomp::Profile pb("pb");
    pb.allowTuple(os::sc::read, {3, 0, 64, 0, 0, 0});

    HwProcessContext procA(pa), procB(pb);
    DracoHardwareEngine engine;
    engine.switchTo(&procA);
    auto req = request(os::sc::read, {3, 0, 64});
    engine.onSyscall(req);
    EXPECT_EQ(engine.onSyscall(req).flow, HwFlow::F1);

    engine.switchTo(&procB);
    auto out = engine.onSyscall(req);
    // B's own VAT is cold: the SLB/STB must not serve A's entries.
    EXPECT_EQ(out.flow, HwFlow::F6);
    EXPECT_TRUE(out.filterRun);
}

TEST(HwEngine, SameProcessRescheduleKeepsState)
{
    HwProcessContext proc(readProfile());
    DracoHardwareEngine engine;
    engine.switchTo(&proc);
    auto req = request(os::sc::read, {3, 0, 64});
    engine.onSyscall(req);
    engine.switchTo(&proc); // same process: no invalidation (§VII-B)
    EXPECT_EQ(engine.onSyscall(req).flow, HwFlow::F1);
    EXPECT_EQ(engine.stats().contextSwitches, 0u);
}

TEST(HwEngine, SptSaveRestoreSurvivesRoundTrip)
{
    HwProcessContext procA(readProfile());
    HwProcessContext procB(seccomp::dockerDefaultProfile());
    DracoHardwareEngine engine;
    engine.switchTo(&procA);
    auto req = request(os::sc::read, {3, 0, 64});
    engine.onSyscall(req);

    uint64_t sptHitsBefore = engine.spt().hits();
    engine.switchTo(&procB);
    engine.switchTo(&procA, /*spt_save_restore=*/true);
    // SPT restored: the head lookup hits without a memory fill. SLB is
    // still cold (only the SPT is saved), so flow falls back to the
    // VAT, but no softSpt read appears in headMemAddrs.
    auto out = engine.onSyscall(req);
    EXPECT_TRUE(out.allowed);
    EXPECT_GT(engine.spt().hits(), sptHitsBefore);
    EXPECT_GT(engine.stats().sptRestoredEntries, 0u);
    for (uint64_t addr : out.headMemAddrs)
        EXPECT_NE(addr, procA.softSptAddress(req.sid));
}

TEST(HwEngine, NoSaveRestoreForcesSptRefill)
{
    HwProcessContext procA(readProfile());
    HwProcessContext procB(seccomp::dockerDefaultProfile());
    DracoHardwareEngine engine;
    engine.switchTo(&procA, false);
    auto req = request(os::sc::read, {3, 0, 64});
    engine.onSyscall(req);
    engine.switchTo(&procB, false);
    engine.switchTo(&procA, false);
    auto out = engine.onSyscall(req);
    bool sawSptFill = false;
    for (uint64_t addr : out.headMemAddrs)
        sawSptFill |= addr == procA.softSptAddress(req.sid);
    EXPECT_TRUE(sawSptFill);
    EXPECT_EQ(engine.stats().sptRestoredEntries, 0u);
}

TEST(HwEngine, PreloadDisabledNeverPreloads)
{
    HwProcessContext proc(readProfile());
    DracoHardwareEngine engine(false);
    engine.switchTo(&proc);
    auto req = request(os::sc::read, {3, 0, 64});
    engine.onSyscall(req);
    auto out = engine.onSyscall(req);
    // Without preloading the warm path is flow 5 (STB is never
    // consulted for preloads; stbHit is false in the result).
    EXPECT_EQ(out.flow, HwFlow::F5);
    EXPECT_EQ(engine.slbStats().preloadProbes, 0u);
}

TEST(HwEngine, FlowCountsAccumulate)
{
    HwProcessContext proc(readProfile());
    DracoHardwareEngine engine;
    engine.switchTo(&proc);
    auto req = request(os::sc::read, {3, 0, 64});
    engine.onSyscall(req);
    engine.onSyscall(req);
    engine.onSyscall(req);
    const auto &stats = engine.stats();
    EXPECT_EQ(stats.syscalls, 3u);
    EXPECT_EQ(stats.flows[static_cast<size_t>(HwFlow::F6)], 1u);
    EXPECT_EQ(stats.flows[static_cast<size_t>(HwFlow::F1)], 2u);
}

TEST(HwEngine, VatSharedAcrossEngineInstances)
{
    // The VAT is per-process software state: a second core (engine)
    // picking up the process sees already-validated sets (flow 5/6
    // without a filter run).
    HwProcessContext proc(readProfile());
    auto req = request(os::sc::read, {3, 0, 64});
    {
        DracoHardwareEngine engine1;
        engine1.switchTo(&proc);
        engine1.onSyscall(req);
    }
    DracoHardwareEngine engine2;
    engine2.switchTo(&proc);
    auto out = engine2.onSyscall(req);
    EXPECT_TRUE(out.allowed);
    EXPECT_FALSE(out.filterRun) << "VAT entry should have been reused";
    EXPECT_EQ(out.flow, HwFlow::F6);
}

TEST(HwEngine, GoldenFlowMixOnCompleteProfile)
{
    // Pins what one seeded stream does to the engine and its VAT, so a
    // change to how a context is compiled or read shows up as a count.
    const auto *app = workload::workloadByName("httpd");
    ASSERT_NE(app, nullptr);
    workload::TraceGenerator profGen(*app, 7);
    seccomp::ProfileRecorder recorder;
    for (int i = 0; i < 20000; ++i)
        recorder.record(profGen.next().req);

    HwProcessContext proc(recorder.makeComplete(app->name));
    DracoHardwareEngine engine;
    engine.switchTo(&proc);
    workload::TraceGenerator gen(*app, 11);
    uint64_t filterInsns = 0;
    for (int i = 0; i < 20000; ++i)
        filterInsns += engine.onSyscall(gen.next().req).filterInsns;

    // IdOnly, F1..F6, Denied.
    const std::array<uint64_t, 8> flows = {1961, 12415, 2933, 1452,
                                           1121, 6,     65,   47};
    EXPECT_EQ(engine.stats().flows, flows);
    EXPECT_EQ(filterInsns, 21887u);
    EXPECT_EQ(proc.vat().footprintBytes(), 23200u);
    EXPECT_EQ(proc.vat().evictions(), 0u);
    EXPECT_EQ(engine.slbStats().accessHits, 13873u);
    EXPECT_EQ(engine.slbStats().preloadHits, 15384u);
    EXPECT_EQ(engine.stbStats().hits, 19910u);
}

TEST(HwEngine, ContextHoldsTheSharedPolicy)
{
    auto policy = CompiledPolicy::compile(readProfile());
    HwProcessContext proc(policy);
    EXPECT_EQ(&proc.policy(), policy.get());
}

TEST(HwEngine, ContextConfiguresTheSoftwareCheckersTables)
{
    const auto *app = workload::workloadByName("redis");
    ASSERT_NE(app, nullptr);
    workload::TraceGenerator gen(*app, 3);
    seccomp::ProfileRecorder recorder;
    for (int i = 0; i < 5000; ++i)
        recorder.record(gen.next().req);
    auto policy = CompiledPolicy::compile(recorder.makeComplete("redis"));

    using Table = std::tuple<uint16_t, uint64_t, size_t>;
    auto tables = [](const Vat &vat) {
        std::vector<Table> out;
        vat.forEachTable(
            [&](uint16_t sid, uint64_t bitmask, const VatCuckoo &cuckoo) {
                out.emplace_back(sid, bitmask, cuckoo.buckets());
            });
        return out;
    };
    HwProcessContext proc(policy);
    DracoSoftwareChecker checker(policy);
    EXPECT_FALSE(tables(proc.vat()).empty());
    EXPECT_EQ(tables(proc.vat()), tables(checker.vat()));
}

TEST(HwEngine, SidPastTheSptTakesTheFilter)
{
    HwProcessContext proc(readProfile());
    DracoHardwareEngine engine;
    engine.switchTo(&proc);
    auto out = engine.onSyscall(request(0xffff));
    EXPECT_FALSE(out.allowed);
    EXPECT_EQ(out.flow, HwFlow::Denied);
    EXPECT_TRUE(out.filterRun);
    EXPECT_GT(out.filterInsns, 0u);
}

/** Hardware Draco must agree with the profile on arbitrary streams. */
class HwEquivalenceTest : public testing::TestWithParam<const char *>
{
};

TEST_P(HwEquivalenceTest, MatchesProfileOnWorkloadTraces)
{
    const auto *app = workload::workloadByName(GetParam());
    ASSERT_NE(app, nullptr);

    workload::TraceGenerator profGen(*app, 99);
    seccomp::ProfileRecorder recorder;
    for (int i = 0; i < 2000; ++i)
        recorder.record(profGen.next().req);
    seccomp::Profile profile = recorder.makeComplete(app->name);

    HwProcessContext proc(profile);
    DracoHardwareEngine engine;
    engine.switchTo(&proc);

    workload::TraceGenerator gen(*app, 4321);
    Rng rng(1);
    for (int i = 0; i < 6000; ++i) {
        os::SyscallRequest req = gen.next().req;
        // Sprinkle squashed speculation between calls.
        if (rng.chance(0.1)) {
            engine.onDispatch(req.pc);
            engine.onSquash();
        }
        auto out = engine.onSyscall(req);
        EXPECT_EQ(out.allowed, profile.allows(req)) << "sid " << req.sid;
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, HwEquivalenceTest,
                         testing::Values("httpd", "elasticsearch",
                                         "redis", "mysql", "fifo-ipc"));

} // namespace
} // namespace draco::core
