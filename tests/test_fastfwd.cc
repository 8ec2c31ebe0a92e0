/**
 * @file
 * Stall-cycle fast-forwarding must be invisible: for every preset and
 * workload, a run with the wake-cycle skip enabled must produce results,
 * stats and traces byte-identical to the naive per-cycle loop. These
 * tests flip the runtime switch both ways in-process and compare
 * everything the simulator exposes, plus check the wake-cycle contract
 * itself (no premature progress before the reported wake).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "sim/cmp.hh"
#include "sim/fastfwd.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"
#include "sim_test_util.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

using namespace sst;
using test::expectStatsEqual;
using test::expectTracesEqual;
using test::kAllPresets;
using test::kWorkloads;
using test::workloadProgram;

namespace
{

RunResult
runOnce(const std::string &preset, const Program &program, bool fastfwd,
        trace::TraceBuffer *buf)
{
    setFastForward(fastfwd);
    Machine machine(makePreset(preset), program);
    if (buf)
        machine.attachTraceBuffer(buf);
    RunResult res = machine.run();
    clearFastForwardOverride();
    return res;
}

/** Run @p preset on @p program with the skip off and on: results,
 *  every stat and every structured trace event must match. */
void
expectSkipInvisible(const std::string &preset, const Program &program)
{
    trace::TraceBuffer naiveTrace;
    trace::TraceBuffer fastTrace;
    RunResult naive = runOnce(preset, program, false, &naiveTrace);
    RunResult fast = runOnce(preset, program, true, &fastTrace);

    EXPECT_EQ(naive.cycles, fast.cycles);
    EXPECT_EQ(naive.insts, fast.insts);
    EXPECT_EQ(naive.ipc, fast.ipc);
    EXPECT_EQ(naive.finished, fast.finished);
    EXPECT_EQ(naive.degrade, fast.degrade);
    EXPECT_EQ(naive.l1dMissRate, fast.l1dMissRate);
    EXPECT_EQ(naive.meanDemandMlp, fast.meanDemandMlp);
    EXPECT_EQ(naive.mispredictRate, fast.mispredictRate);
    expectStatsEqual(naive.stats, fast.stats);
    expectTracesEqual(naiveTrace, fastTrace);
}

} // namespace

/** The headline invariant: every preset × workload, skip on == skip
 *  off, down to every stat and every structured trace event. */
TEST(FastForward, DifferentialAllPresets)
{
    for (const auto &wl : kWorkloads) {
        Program program = workloadProgram(wl);
        for (const auto &preset : kAllPresets) {
            SCOPED_TRACE(preset + " / " + wl);
            expectSkipInvisible(preset, program);
        }
    }
}

/** Dependent-miss chains, where SST epochs close on a DQ's worth of
 *  deferrals: ea's closed-epoch stall and sst2's epoch turnover must
 *  skip exactly as they tick. */
TEST(FastForward, DifferentialDependentChains)
{
    for (const char *wl : {"pointer_chase", "list_walk"}) {
        WorkloadParams wp;
        wp.lengthScale = 0.3;
        Program program = makeWorkload(wl, wp).program;
        for (const char *preset : {"ea", "sst2"}) {
            SCOPED_TRACE(std::string(preset) + " / " + wl);
            expectSkipInvisible(preset, program);
        }
    }
}

/** ...and the closed-epoch stall is a skippable wait, not a cycle the
 *  core must tick: on a chain, where nearly every cycle waits on a
 *  miss, the run loop ticks only a small fraction of them. */
TEST(FastForward, ClosedEpochStallIsSkipped)
{
    Program program = workloadProgram("pointer_chase");
    for (const char *preset : {"ea", "sst2"}) {
        SCOPED_TRACE(preset);
        Machine machine(makePreset(preset), program);
        Core &core = machine.core();
        std::uint64_t ticks = 0;
        while (!core.halted() && core.cycles() < 50'000'000) {
            std::uint64_t before = core.instsRetired();
            core.tick();
            ++ticks;
            if (core.halted() || core.instsRetired() != before)
                continue;
            Cycle wake = core.nextWakeCycle();
            if (wake != Core::kWakeNever && wake > core.cycles())
                core.advanceIdle(wake - core.cycles());
        }
        ASSERT_TRUE(core.halted());
        auto stats = core.stats().flatten();
        EXPECT_GT(stats[std::string(preset) + ".dq_full_stalls"],
                  0.5 * static_cast<double>(core.cycles()));
        EXPECT_LT(ticks, core.cycles() / 10);
    }
}

/** Same invariant for the CMP lockstep loop (shared L2/DRAM). */
TEST(FastForward, DifferentialCmp)
{
    Program program = workloadProgram("oltp_mix");
    std::vector<const Program *> programs{&program, &program};
    for (const auto &preset : {"inorder", "sst4", "ooo-large"}) {
        SCOPED_TRACE(preset);
        setFastForward(false);
        Cmp naiveCmp(makePreset(preset), programs);
        CmpResult naive = naiveCmp.run();
        setFastForward(true);
        Cmp fastCmp(makePreset(preset), programs);
        CmpResult fast = fastCmp.run();
        clearFastForwardOverride();

        EXPECT_EQ(naive.cycles, fast.cycles);
        EXPECT_EQ(naive.totalInsts, fast.totalInsts);
        EXPECT_EQ(naive.aggregateIpc, fast.aggregateIpc);
        EXPECT_EQ(naive.finished, fast.finished);
        EXPECT_EQ(naive.degrade, fast.degrade);
        EXPECT_EQ(naive.watchdogRecoveries, fast.watchdogRecoveries);
        ASSERT_EQ(naive.perCoreIpc.size(), fast.perCoreIpc.size());
        for (std::size_t i = 0; i < naive.perCoreIpc.size(); ++i)
            EXPECT_EQ(naive.perCoreIpc[i], fast.perCoreIpc[i]);
        for (unsigned i = 0; i < naive.cores; ++i)
            expectStatsEqual(naiveCmp.core(i).stats().flatten(),
                             fastCmp.core(i).stats().flatten());
    }
}

/** And for a coherent chip, where a stall on a coherence-inflated
 *  load must land in the same CPI bucket whether it is ticked or
 *  skipped (core stats include the cpi_stack group). */
TEST(FastForward, DifferentialCoherentCmp)
{
    WorkloadParams wp;
    wp.lengthScale = 0.05;
    MachineConfig mc = makePreset("rock16");
    std::vector<Workload> w =
        makeSharedWorkload("spinlock_counter", mc.cmpCores, wp);
    std::vector<const Program *> programs;
    for (const Workload &x : w)
        programs.push_back(&x.program);

    setFastForward(false);
    Cmp naiveCmp(mc, programs);
    CmpResult naive = naiveCmp.run();
    setFastForward(true);
    Cmp fastCmp(mc, programs);
    CmpResult fast = fastCmp.run();
    clearFastForwardOverride();

    EXPECT_EQ(naive.cycles, fast.cycles);
    EXPECT_EQ(naive.totalInsts, fast.totalInsts);
    EXPECT_EQ(naive.finished, fast.finished);
    for (unsigned i = 0; i < naive.cores; ++i) {
        SCOPED_TRACE("core " + std::to_string(i));
        expectStatsEqual(naiveCmp.core(i).stats().flatten(),
                         fastCmp.core(i).stats().flatten());
    }
}

/**
 * The wake-cycle contract, checked against the naive loop itself: after
 * a tick that retired nothing, no tick that starts before the reported
 * wake cycle may retire anything. (The other direction — that skipping
 * to the wake reproduces the same stats — is what the differential
 * tests above prove.)
 */
TEST(FastForward, WakeIsNeverPremature)
{
    Program program = workloadProgram("oltp_mix");
    for (const auto &preset : {"inorder", "scout", "sst4", "ooo-large"}) {
        SCOPED_TRACE(preset);
        setFastForward(false);
        Machine machine(makePreset(preset), program);
        Core &core = machine.core();
        std::uint64_t windows = 0;
        while (!core.halted() && core.cycles() < 5'000'000) {
            std::uint64_t before = core.instsRetired();
            core.tick();
            if (core.halted() || core.instsRetired() != before)
                continue;
            Cycle wake = core.nextWakeCycle();
            if (wake == Core::kWakeNever)
                break;
            if (wake <= core.cycles())
                continue;
            ++windows;
            while (!core.halted() && core.cycles() < wake) {
                std::uint64_t b = core.instsRetired();
                core.tick();
                ASSERT_EQ(core.instsRetired(), b)
                    << "retired inside a window declared idle until "
                    << wake;
            }
        }
        clearFastForwardOverride();
        EXPECT_GT(windows, 0u) << "workload never produced a skippable "
                                  "stall window";
    }
}

/** Bulk Distribution::sample(v, n) must equal n repeated samples. */
TEST(FastForward, BulkDistributionSample)
{
    Distribution loop;
    Distribution bulk;
    loop.init(128, 16);
    bulk.init(128, 16);
    const std::uint64_t values[] = {0, 1, 7, 8, 64, 127, 128, 500};
    const std::uint64_t counts[] = {1, 3, 10, 0, 2, 5, 4, 7};
    for (std::size_t i = 0; i < std::size(values); ++i) {
        for (std::uint64_t k = 0; k < counts[i]; ++k)
            loop.sample(values[i]);
        bulk.sample(values[i], counts[i]);
    }
    EXPECT_EQ(loop.toJson(), bulk.toJson());
    EXPECT_EQ(loop.count(), bulk.count());
    EXPECT_EQ(loop.mean(), bulk.mean());
    EXPECT_EQ(loop.maxSample(), bulk.maxSample());
}

/** The in-process override beats the environment in both directions. */
TEST(FastForward, OverrideSwitch)
{
    setFastForward(false);
    EXPECT_FALSE(fastForwardEnabled());
    setFastForward(true);
    EXPECT_TRUE(fastForwardEnabled());
    clearFastForwardOverride();
}
