/**
 * @file
 * Deterministic parallel CMP tick engine (src/sim/cmp.cc): byte-
 * equality of results, snapshots and mid-run state across worker
 * counts; chip-clock accounting in CmpResult; and the restore-path
 * write-observer regression.
 *
 * The engine's whole contract is that -j is invisible: every stat,
 * trace and snapshot byte must be identical whether the chip ticks on
 * one thread or eight. These tests run the same chips at -j {1,2,8}
 * and literally compare snapshot byte vectors.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/tickgate.hh"
#include "sim/cmp.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

using namespace sst;

namespace
{

struct RunOut
{
    CmpResult res;
    std::vector<std::uint8_t> snap;
    Cycle chipCycles = 0;
};

/** Run @p cores copies of a generator workload on a salted CMP. */
RunOut
runSalted(const std::string &preset, const std::string &workload,
          unsigned workers, unsigned cores = 4,
          std::uint64_t maxCycles = 20'000'000)
{
    WorkloadParams wp;
    wp.lengthScale = 0.05;
    Workload w = makeWorkload(workload, wp);
    std::vector<const Program *> programs(cores, &w.program);
    MachineConfig mc = makePreset(preset);
    mc.mem.coh.enabled = false; // salted even for rock16
    mc.cmpWorkers = workers;
    Cmp cmp(mc, programs);
    RunOut o;
    o.res = cmp.run(maxCycles);
    o.snap = cmp.snapshot();
    o.chipCycles = cmp.cycles();
    return o;
}

/** Run a shared-memory workload on the coherent rock16 chip. */
RunOut
runRock16(const std::string &workload, unsigned workers,
          std::uint64_t maxCycles = 100'000'000)
{
    WorkloadParams wp;
    wp.lengthScale = 0.1;
    MachineConfig mc = makePreset("rock16");
    mc.cmpWorkers = workers;
    std::vector<Workload> w =
        makeSharedWorkload(workload, mc.cmpCores, wp);
    std::vector<const Program *> programs;
    for (const Workload &x : w)
        programs.push_back(&x.program);
    Cmp cmp(mc, programs);
    RunOut o;
    o.res = cmp.run(maxCycles);
    o.snap = cmp.snapshot();
    o.chipCycles = cmp.cycles();
    return o;
}

void
expectSameRun(const RunOut &a, const RunOut &b, const std::string &what)
{
    EXPECT_EQ(a.res.cycles, b.res.cycles) << what;
    EXPECT_EQ(a.res.totalInsts, b.res.totalInsts) << what;
    EXPECT_EQ(a.res.finished, b.res.finished) << what;
    EXPECT_EQ(a.res.degrade, b.res.degrade) << what;
    EXPECT_EQ(a.res.watchdogRecoveries, b.res.watchdogRecoveries)
        << what;
    EXPECT_EQ(a.res.perCoreIpc, b.res.perCoreIpc) << what;
    // The strongest claim: the complete chip state — every register,
    // cache tag, directory entry, stat and image byte — is identical.
    EXPECT_EQ(a.snap, b.snap) << what << ": snapshot bytes differ";
}

double
statSuffix(Cmp &cmp, const std::string &suffix)
{
    double total = 0;
    for (const auto &kv : cmp.memsys().stats().flatten())
        if (kv.first.size() >= suffix.size()
            && kv.first.compare(kv.first.size() - suffix.size(),
                                suffix.size(), suffix)
                   == 0)
            total += kv.second;
    return total;
}

} // namespace

// --- synchronization primitives ------------------------------------

TEST(TickGate, EnterWaitsForLowerCoresToFinishTheCycle)
{
    TickGate gate(2);
    gate.completeThrough(0, 5);
    gate.completeThrough(1, 5);
    std::atomic<bool> entered{false};
    // Core 1 at cycle 5 needs core 0 to have *finished* 5.
    std::thread t([&] {
        gate.enter(1, 5);
        entered.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(entered.load());
    gate.completeThrough(0, 6);
    t.join();
    EXPECT_TRUE(entered.load());
    // Core 0 at cycle 5 only needs core 1 to have finished cycle 4,
    // which it has: enter must not block.
    gate.enter(0, 5);
}

TEST(SpinBarrier, LastArriverRunsTheSerialPhase)
{
    SpinBarrier barrier(4);
    std::atomic<unsigned> serial{0};
    std::atomic<unsigned> released{0};
    std::vector<std::thread> ts;
    for (unsigned w = 0; w < 4; ++w)
        ts.emplace_back([&] {
            for (int round = 0; round < 100; ++round) {
                if (barrier.arrive()) {
                    serial.fetch_add(1);
                    barrier.release();
                }
                released.fetch_add(1);
            }
        });
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(serial.load(), 100u);
    EXPECT_EQ(released.load(), 400u);
}

// --- salted differential: preset x workload x workers --------------

TEST(ParallelCmp, SaltedMatrixIsByteIdenticalAcrossWorkerCounts)
{
    const std::vector<std::string> workloads = {"hash_join", "stream",
                                                "pointer_chase"};
    for (const std::string &preset : presetNames()) {
        for (const std::string &wl : workloads) {
            const std::string what = preset + "/" + wl;
            RunOut j1 = runSalted(preset, wl, 1);
            ASSERT_TRUE(j1.res.finished || !j1.res.perCoreIpc.empty())
                << what;
            for (unsigned j : {2u, 8u}) {
                RunOut jn = runSalted(preset, wl, j);
                expectSameRun(j1, jn, what + " -j" + std::to_string(j));
            }
        }
    }
}

TEST(ParallelCmp, ValuePredAndStrandHistoryAreByteIdenticalAcrossWorkers)
{
    // The predictor frontier adds per-worker-visible state (value
    // predictor table, per-strand GHRs, per-epoch RAS copies); all of
    // it must stay inside the deterministic tick so -j remains
    // invisible. list_walk keeps the value predictor genuinely hot.
    auto run = [&](unsigned workers) {
        WorkloadParams wp;
        wp.lengthScale = 0.02;
        Workload w = makeWorkload("list_walk", wp);
        std::vector<const Program *> programs(4, &w.program);
        MachineConfig mc = makePreset("sst4");
        mc.mem.coh.enabled = false;
        mc.cmpWorkers = workers;
        mc.core.valuePred = "stride";
        mc.core.strandHistory = true;
        Cmp cmp(mc, programs);
        RunOut o;
        o.res = cmp.run(40'000'000);
        o.snap = cmp.snapshot();
        o.chipCycles = cmp.cycles();
        return o;
    };
    RunOut j1 = run(1);
    ASSERT_TRUE(j1.res.finished);
    for (unsigned j : {2u, 8u})
        expectSameRun(j1, run(j),
                      "sst4+vp/list_walk -j" + std::to_string(j));
}

// --- coherent rock16 differential ----------------------------------

TEST(ParallelCmp, Rock16SpinlockIsByteIdenticalAcrossWorkerCounts)
{
    RunOut j1 = runRock16("spinlock_counter", 1);
    ASSERT_TRUE(j1.res.finished);
    for (unsigned j : {2u, 8u})
        expectSameRun(j1, runRock16("spinlock_counter", j),
                      "rock16/spinlock -j" + std::to_string(j));
}

TEST(ParallelCmp, Rock16ProducerConsumerIsByteIdenticalAcrossWorkerCounts)
{
    RunOut j1 = runRock16("producer_consumer", 1);
    ASSERT_TRUE(j1.res.finished);
    for (unsigned j : {2u, 8u})
        expectSameRun(j1, runRock16("producer_consumer", j),
                      "rock16/producer_consumer -j" + std::to_string(j));
}

TEST(ParallelCmp, Rock16SharedTableIsByteIdenticalAcrossWorkerCounts)
{
    RunOut j1 = runRock16("shared_table", 1);
    ASSERT_TRUE(j1.res.finished);
    for (unsigned j : {2u, 8u})
        expectSameRun(j1, runRock16("shared_table", j),
                      "rock16/shared_table -j" + std::to_string(j));
}

// --- mid-run state equality ----------------------------------------

TEST(ParallelCmp, MidRunSnapshotsMatchAcrossWorkerCounts)
{
    // A budget stop lands on the same barrier at every worker count,
    // so even a snapshot taken mid-flight must be byte-equal.
    RunOut salted1 = runSalted("sst4", "hash_join", 1, 4, 10'000);
    RunOut salted8 = runSalted("sst4", "hash_join", 8, 4, 10'000);
    EXPECT_FALSE(salted1.res.finished);
    EXPECT_EQ(salted1.snap, salted8.snap);

    RunOut coh1 = runRock16("spinlock_counter", 1, 3'000);
    RunOut coh8 = runRock16("spinlock_counter", 8, 3'000);
    EXPECT_FALSE(coh1.res.finished);
    EXPECT_EQ(coh1.snap, coh8.snap);
}

// --- livelock injection is worker-count independent ----------------

TEST(ParallelCmp, InjectedLivelockDegradesIdenticallyAtAnyWorkerCount)
{
    auto run = [&](unsigned workers) {
        WorkloadParams wp;
        wp.lengthScale = 0.05;
        Workload w = makeWorkload("pointer_chase", wp);
        std::vector<const Program *> programs(4, &w.program);
        MachineConfig mc = makePreset("inorder");
        // Every fill lost for effectively ever: the watchdog's
        // escalation runs out and declares livelock. Fault injection
        // armed also exercises the gate-every-access path.
        mc.mem.fault.dropFillRate = 1.0;
        mc.mem.fault.dropTimeout = 10'000'000;
        mc.watchdog.stallCycles = 1'000;
        mc.watchdog.maxInterventions = 3;
        mc.cmpWorkers = workers;
        Cmp cmp(mc, programs);
        RunOut o;
        o.res = cmp.run(100'000'000);
        o.snap = cmp.snapshot();
        return o;
    };
    RunOut j1 = run(1);
    EXPECT_FALSE(j1.res.finished);
    EXPECT_EQ(j1.res.degrade, DegradeReason::Livelock);
    for (unsigned j : {2u, 8u}) {
        RunOut jn = run(j);
        EXPECT_EQ(jn.res.degrade, DegradeReason::Livelock);
        expectSameRun(j1, jn, "livelock -j" + std::to_string(j));
    }
}

// --- CmpResult.cycles reports the chip clock (accounting fix) ------

TEST(ParallelCmp, ResultCyclesIsTheChipClock)
{
    // Budget stop: the result must report the chip clock (== budget),
    // not the max per-core cycle counter (which could diverge from the
    // clock a snapshot resumes at).
    RunOut mid = runSalted("sst2", "hash_join", 1, 4, 10'000);
    EXPECT_FALSE(mid.res.finished);
    EXPECT_EQ(mid.res.cycles, mid.chipCycles);
    EXPECT_EQ(mid.res.cycles, 10'000u);

    // Finished run: chip clock and slowest core agree.
    RunOut done = runSalted("sst2", "hash_join", 2, 4);
    EXPECT_TRUE(done.res.finished);
    EXPECT_EQ(done.res.cycles, done.chipCycles);
}

// --- the restore path keeps the coherent write observer ------------

TEST(ParallelCmp, RemoteWritesStillSquashAfterRestore)
{
    WorkloadParams wp;
    wp.lengthScale = 0.1;
    MachineConfig mc = makePreset("rock16");
    mc.cmpCores = 4;
    std::vector<Workload> w = makeSharedWorkload("spinlock_counter",
                                                 mc.cmpCores, wp);
    std::vector<const Program *> programs;
    for (const Workload &x : w)
        programs.push_back(&x.program);

    Cmp a(mc, programs);
    CmpResult mid = a.run(5'000);
    ASSERT_FALSE(mid.finished);
    const double squashesAtSnap = statSuffix(a, "coh_squashes");
    std::vector<std::uint8_t> bytes = a.snapshot();

    // The premise: squashes keep happening after the snapshot point
    // (spinlock contention squashes speculative readers throughout).
    CmpResult fullA = a.run(100'000'000);
    ASSERT_TRUE(fullA.finished);
    const double squashesTotal = statSuffix(a, "coh_squashes");
    ASSERT_GT(squashesTotal, squashesAtSnap)
        << "test premise broken: no squashes after the snapshot point";

    // If Cmp::restore dropped (or double-installed) the image's write
    // observer, the resumed chip would squash never (or differently)
    // and diverge from the uninterrupted run.
    Cmp b(mc, programs);
    b.restore(bytes);
    EXPECT_EQ(statSuffix(b, "coh_squashes"), squashesAtSnap);
    CmpResult fullB = b.run(100'000'000);
    ASSERT_TRUE(fullB.finished);
    EXPECT_EQ(statSuffix(b, "coh_squashes"), squashesTotal);
    EXPECT_EQ(fullB.cycles, fullA.cycles);
    EXPECT_EQ(a.snapshot(), b.snapshot());
}

// --- periodic snapshots resume the chip byte-identically ----------

TEST(ParallelCmp, PeriodicSnapshotResumeIsByteIdentical)
{
    WorkloadParams wp;
    wp.lengthScale = 0.05;
    Workload join = makeWorkload("hash_join", wp);
    MachineConfig rock = makePreset("rock16");
    std::vector<Workload> lock =
        makeSharedWorkload("spinlock_counter", rock.cmpCores, wp);

    struct Chip
    {
        std::string name;
        MachineConfig mc;
        std::vector<const Program *> programs;
        std::uint64_t every;
    };
    std::vector<Chip> chips(2);
    chips[0] = {"sst4 x4 salted", makePreset("sst4"),
                std::vector<const Program *>(4, &join.program), 7'000};
    chips[1] = {"rock16 spinlock", rock, {}, 1'500};
    for (const Workload &x : lock)
        chips[1].programs.push_back(&x.program);

    for (const Chip &chip : chips) {
        Cmp plain(chip.mc, chip.programs);
        CmpResult want = plain.run();
        ASSERT_TRUE(want.finished) << chip.name;
        ASSERT_GT(want.cycles, 2 * chip.every) << chip.name;
        const std::vector<std::uint8_t> wantSnap = plain.snapshot();

        for (unsigned workers : {1u, 4u}) {
            const std::string what =
                chip.name + " -j" + std::to_string(workers);
            SCOPED_TRACE(what);
            MachineConfig mc = chip.mc;
            mc.cmpWorkers = workers;
            SnapPolicy policy;
            policy.everyCycles = chip.every;
            policy.path = ::testing::TempDir() + "sstsim_periodic_j"
                          + std::to_string(workers) + ".snap";

            // Writing snapshots must not perturb the run itself.
            Cmp writer(mc, chip.programs);
            CmpResult wrote = writer.run(500'000'000, policy);
            EXPECT_EQ(want.cycles, wrote.cycles);
            EXPECT_EQ(wantSnap, writer.snapshot());

            // The file left behind is the last periodic checkpoint.
            Cmp resumed(mc, chip.programs);
            auto res = resumed.restoreFromFile(policy.path);
            ASSERT_TRUE(res.ok()) << res.error().message;
            EXPECT_FALSE(resumed.allHalted());
            EXPECT_GE(resumed.cycles(), 2 * chip.every);
            CmpResult got = resumed.run();
            EXPECT_EQ(want.cycles, got.cycles);
            EXPECT_EQ(want.totalInsts, got.totalInsts);
            EXPECT_EQ(want.perCoreIpc, got.perCoreIpc);
            EXPECT_EQ(wantSnap, resumed.snapshot())
                << what << ": resumed chip state differs";
            std::remove(policy.path.c_str());
        }
    }
}

// --- trace attachment ----------------------------------------------

TEST(ParallelCmp, TraceBufferIsRefusedOnSeveralWorkers)
{
    WorkloadParams wp;
    wp.lengthScale = 0.05;
    Workload w = makeWorkload("stream", wp);
    std::vector<const Program *> programs(2, &w.program);
    MachineConfig mc = makePreset("sst2");
    trace::TraceBuffer buf;

    Cmp serial(mc, programs);
    serial.attachTraceBuffer(&buf);
    serial.attachTraceBuffer(nullptr);

    mc.cmpWorkers = 2;
    EXPECT_DEATH(
        {
            Cmp parallel(mc, programs);
            parallel.attachTraceBuffer(&buf);
        },
        "one worker");
}

// --- worker-count plumbing -----------------------------------------

TEST(ParallelCmp, WorkersClampToCoreCount)
{
    WorkloadParams wp;
    wp.lengthScale = 0.05;
    Workload w = makeWorkload("stream", wp);
    std::vector<const Program *> programs(2, &w.program);
    MachineConfig mc = makePreset("sst2");
    mc.cmpWorkers = 64;
    Cmp cmp(mc, programs);
    EXPECT_EQ(cmp.workers(), 2u);
}
