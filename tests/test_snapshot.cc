/**
 * @file
 * Whole-machine snapshot/restore and divergence-diff tests — the
 * acceptance suite for deterministic machine snapshots.
 *
 * The headline property: for every preset × workload, interrupting a
 * run at an arbitrary cycle, serializing the machine, restoring the
 * image into a *fresh* machine and running to completion must be
 * invisible — byte-identical final stats and structured trace streams
 * versus the uninterrupted run. On top of that: state-hash semantics,
 * file round trips, restore-time validation of preset/model/workload,
 * the lockstep differ's self-check and its injected-divergence
 * pinpointing, and the CMP variants (including the per-core address
 * salt aliasing guard).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/cmp.hh"
#include "sim/fastfwd.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"
#include "sim_test_util.hh"
#include "snap/diff.hh"
#include "snap/snap.hh"
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

std::string
tmpPath(const std::string &stem)
{
    return ::testing::TempDir() + "sstsim_" + stem + ".snap";
}

} // namespace

/**
 * The headline invariant, across the full differential harness sweep:
 * snapshot at an arbitrary mid-run cycle, restore into a fresh machine
 * (fresh hierarchy, fresh trace buffer — everything rebuilt from the
 * config, as a new process would), run both to completion, and compare
 * everything the simulator exposes.
 */
TEST(Snapshot, RoundTripAllPresets)
{
    constexpr Cycle snapAt = 4096;
    for (const auto &wl : kWorkloads) {
        Program program = workloadProgram(wl);
        for (const auto &preset : kAllPresets) {
            SCOPED_TRACE(preset + " / " + wl);

            trace::TraceBuffer baseTrace;
            Machine base(makePreset(preset), program);
            base.attachTraceBuffer(&baseTrace);
            RunResult want = base.run();

            trace::TraceBuffer srcTrace;
            Machine src(makePreset(preset), program);
            src.attachTraceBuffer(&srcTrace);
            src.stepTo(snapAt);
            ASSERT_EQ(src.core().cycles(), snapAt);
            std::vector<std::uint8_t> image = src.snapshot();

            trace::TraceBuffer dstTrace;
            Machine dst(makePreset(preset), program);
            dst.attachTraceBuffer(&dstTrace);
            dst.restore(image);
            EXPECT_EQ(dst.core().cycles(), snapAt);
            EXPECT_EQ(dst.stateHash(), src.stateHash());
            RunResult got = dst.run();

            EXPECT_EQ(want.cycles, got.cycles);
            EXPECT_EQ(want.insts, got.insts);
            EXPECT_EQ(want.ipc, got.ipc);
            EXPECT_EQ(want.finished, got.finished);
            EXPECT_EQ(want.degrade, got.degrade);
            EXPECT_EQ(want.l1dMissRate, got.l1dMissRate);
            EXPECT_EQ(want.meanDemandMlp, got.meanDemandMlp);
            EXPECT_EQ(want.mispredictRate, got.mispredictRate);
            expectStatsEqual(want.stats, got.stats);
            expectTracesEqual(baseTrace, dstTrace);
        }
    }
}

/** snapshot() must not disturb the machine: the source continues to
 *  the same completion as an untouched run. */
TEST(Snapshot, SnapshotIsNonDestructive)
{
    Program program = workloadProgram("hash_join");
    Machine plain(makePreset("sst2"), program);
    RunResult want = plain.run();

    Machine probed(makePreset("sst2"), program);
    probed.stepTo(2000);
    (void)probed.snapshot();
    (void)probed.stateHash();
    RunResult got = probed.run();

    EXPECT_EQ(want.cycles, got.cycles);
    EXPECT_EQ(want.insts, got.insts);
    expectStatsEqual(want.stats, got.stats);
}

namespace
{

/** hash64 of the state payload inside a snapshot() image: the bytes
 *  from the "cmp-state" tag up to the trailing (untraced) "trace" tag
 *  and its flag. This is what stateHash() hashes without buffering. */
std::uint64_t
payloadHash(const std::vector<std::uint8_t> &image)
{
    const std::string tag = std::string("\x09\0\0\0", 4) + "cmp-state";
    auto begin = std::search(image.begin(), image.end(), tag.begin(),
                             tag.end());
    EXPECT_NE(begin, image.end());
    const std::size_t trailer = 4 + 5 + 1; // tag("trace"), b(false)
    return snap::hash64(&*begin,
                        static_cast<std::size_t>(image.end() - begin)
                            - trailer);
}

} // namespace

/** stateHash() streams the walk through a hashing Writer instead of a
 *  multi-MB buffer; it must equal the one-shot hash of the same bytes,
 *  on a one-core sst2 machine and on a coherent rock16 chip. */
TEST(Snapshot, StateHashEqualsPayloadHash)
{
    Program program = workloadProgram("hash_join");
    Machine m(makePreset("sst2"), program);
    m.stepTo(20'000);
    EXPECT_EQ(m.stateHash(), payloadHash(m.snapshot()));

    WorkloadParams wp;
    wp.lengthScale = 0.05;
    MachineConfig mc = makePreset("rock16");
    std::vector<Workload> w =
        makeSharedWorkload("shared_table", mc.cmpCores, wp);
    std::vector<const Program *> programs;
    for (const Workload &x : w)
        programs.push_back(&x.program);
    Cmp chip(mc, programs);
    chip.stepTo(5'000);
    EXPECT_EQ(chip.stateHash(), payloadHash(chip.snapshot()));
}

/** Equal state ⇒ equal hash; advancing the machine changes the hash. */
TEST(Snapshot, StateHashTracksState)
{
    Program program = workloadProgram("oltp_mix");
    Machine a(makePreset("sst4"), program);
    Machine b(makePreset("sst4"), program);
    EXPECT_EQ(a.stateHash(), b.stateHash());

    a.stepTo(1000);
    b.stepTo(1000);
    EXPECT_EQ(a.stateHash(), b.stateHash());

    std::uint64_t at1000 = a.stateHash();
    a.stepTo(1001);
    EXPECT_NE(a.stateHash(), at1000);
}

TEST(Snapshot, FileRoundTripAndResume)
{
    Program program = workloadProgram("pointer_chase");
    const std::string path = tmpPath("machine");

    // Periodic-snapshot run: the file left behind is the last periodic
    // checkpoint, from which a fresh machine must reach the same end.
    Machine writer(makePreset("scout"), program);
    SnapPolicy policy;
    policy.everyCycles = 3000;
    policy.path = path;
    RunResult want = writer.run(500'000'000, policy);

    Machine resumed(makePreset("scout"), program);
    auto res = resumed.restoreFromFile(path);
    ASSERT_TRUE(res.ok()) << res.error().message;
    EXPECT_GE(resumed.core().cycles(), policy.everyCycles);
    RunResult got = resumed.run();

    EXPECT_EQ(want.cycles, got.cycles);
    EXPECT_EQ(want.insts, got.insts);
    expectStatsEqual(want.stats, got.stats);
    std::remove(path.c_str());

    Machine other(makePreset("scout"), program);
    auto missing = other.restoreFromFile(tmpPath("does_not_exist"));
    EXPECT_FALSE(missing.ok());
}

/** Restoring against the wrong configuration or workload must fail
 *  loudly, not corrupt the machine. */
TEST(Snapshot, RestoreValidatesIdentity)
{
    Program join = workloadProgram("hash_join");
    Program chase = workloadProgram("pointer_chase");

    Machine src(makePreset("sst2"), join);
    src.stepTo(1000);
    std::vector<std::uint8_t> image = src.snapshot();

    // Wrong preset.
    {
        Machine wrong(makePreset("ooo-large"), join);
        auto res = trapFatal([&] { wrong.restore(image); });
        ASSERT_FALSE(res.ok());
        EXPECT_NE(res.error().message.find("preset"), std::string::npos);
    }
    // Wrong workload (program fingerprint mismatch).
    {
        Machine wrong(makePreset("sst2"), chase);
        auto res = trapFatal([&] { wrong.restore(image); });
        EXPECT_FALSE(res.ok());
    }
    // Truncated image.
    {
        std::vector<std::uint8_t> cut(image.begin(),
                                      image.end() - image.size() / 2);
        Machine wrong(makePreset("sst2"), join);
        auto res = trapFatal([&] { wrong.restore(cut); });
        EXPECT_FALSE(res.ok());
    }
    // The machine that produced the image still restores fine.
    Machine dst(makePreset("sst2"), join);
    dst.restore(image);
    EXPECT_EQ(dst.stateHash(), src.stateHash());
}

/**
 * Differ self-check: fast-forward on vs off over the same preset and
 * workload is the PR 4 invariant — the differ must find no divergence
 * and see both sides finish at the same cycle.
 */
TEST(SnapDiff, SelfCheckNoDivergence)
{
    Program program = workloadProgram("hash_join");
    Machine a(makePreset("sst2"), program);
    Machine b(makePreset("sst2"), program);
    snap::DiffOptions opt;
    opt.stride = 512;
    snap::DiffReport rep = snap::diffMachines(a, b, opt);

    EXPECT_FALSE(rep.diverged);
    EXPECT_TRUE(rep.finishedA);
    EXPECT_TRUE(rep.finishedB);
    EXPECT_EQ(rep.cyclesA, rep.cyclesB);
    EXPECT_EQ(rep.hashA, rep.hashB);
    EXPECT_GT(rep.comparedPoints, 0u);
}

/** The acceptance criterion for the differ: a single injected bit flip
 *  at cycle N is pinpointed to exactly cycle N, and both sides'
 *  snapshots at that cycle are dumped. */
TEST(SnapDiff, PinpointsInjectedDivergence)
{
    constexpr Cycle inject = 3333;
    Program program = workloadProgram("oltp_mix");
    Machine a(makePreset("sst4"), program);
    Machine b(makePreset("sst4"), program);
    snap::DiffOptions opt;
    opt.stride = 512;
    opt.injectCycle = inject;
    opt.injectAddr = program.segments().empty()
                         ? Addr{64}
                         : program.segments().front().base;
    opt.outPrefix = ::testing::TempDir() + "sstsim_injected";
    snap::DiffReport rep = snap::diffMachines(a, b, opt);

    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.firstDivergentCycle, inject);
    EXPECT_NE(rep.hashA, rep.hashB);
    ASSERT_FALSE(rep.snapA.empty());
    ASSERT_FALSE(rep.snapB.empty());
    auto dumpA = snap::readFile(rep.snapA);
    auto dumpB = snap::readFile(rep.snapB);
    EXPECT_TRUE(dumpA.ok());
    EXPECT_TRUE(dumpB.ok());
    std::remove(rep.snapA.c_str());
    std::remove(rep.snapB.c_str());
}

/** An injection inside the very first stride exercises the bisection's
 *  left edge (last-good snapshot is the initial state). */
TEST(SnapDiff, InjectionNearStartIsFoundAtItsCycle)
{
    constexpr Cycle inject = 17; // inside the very first stride
    Program program = workloadProgram("pointer_chase");
    Machine a(makePreset("inorder"), program);
    Machine b(makePreset("inorder"), program);
    snap::DiffOptions opt;
    opt.stride = 4096;
    opt.injectCycle = inject;
    opt.injectAddr = 64;
    snap::DiffReport rep = snap::diffMachines(a, b, opt);
    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.firstDivergentCycle, inject);
}

/** Cmp snapshot/restore: interrupt a two-core chip mid-run, restore
 *  into a fresh chip, and finish identically. */
TEST(Snapshot, CmpRoundTrip)
{
    Program program = workloadProgram("oltp_mix");
    std::vector<const Program *> programs{&program, &program};
    for (const auto &preset : {"inorder", "sst4", "ooo-large"}) {
        SCOPED_TRACE(preset);

        Cmp base(makePreset(preset), programs);
        CmpResult want = base.run();

        Cmp src(makePreset(preset), programs);
        (void)src.run(3000); // stop on the cycle budget mid-run
        ASSERT_FALSE(src.allHalted());
        std::vector<std::uint8_t> image = src.snapshot();

        Cmp dst(makePreset(preset), programs);
        dst.restore(image);
        EXPECT_EQ(dst.cycles(), src.cycles());
        CmpResult got = dst.run();

        EXPECT_EQ(want.cycles, got.cycles);
        EXPECT_EQ(want.totalInsts, got.totalInsts);
        EXPECT_EQ(want.aggregateIpc, got.aggregateIpc);
        EXPECT_EQ(want.finished, got.finished);
        EXPECT_EQ(want.degrade, got.degrade);
        ASSERT_EQ(want.perCoreIpc.size(), got.perCoreIpc.size());
        for (std::size_t i = 0; i < want.perCoreIpc.size(); ++i)
            EXPECT_EQ(want.perCoreIpc[i], got.perCoreIpc[i]);
        for (unsigned i = 0; i < want.cores; ++i)
            expectStatsEqual(base.core(i).stats().flatten(),
                             dst.core(i).stats().flatten());
    }
}

/** The address-salt aliasing guard: a program whose footprint spills
 *  past the per-core salt stride must be rejected at construction, not
 *  silently share physical addresses with its neighbour core. */
TEST(Snapshot, CmpRejectsFootprintBeyondSaltStride)
{
    Program huge("huge");
    huge.append(inst::halt());
    // One byte just past the 1 GiB salt stride makes the footprint
    // overlap core 1's physical range.
    huge.addData(Cmp::saltStride, {0xff});
    std::vector<const Program *> programs{&huge, &huge};
    EXPECT_DEATH({ Cmp cmp(makePreset("inorder"), programs); },
                 "salt stride");

    // A single-core chip cannot alias anyone and is fine.
    std::vector<const Program *> one{&huge};
    Cmp solo(makePreset("inorder"), one);
    CmpResult r = solo.run(10'000);
    EXPECT_TRUE(r.finished);
}
