/** @file Mechanism-level tests for the SST and hardware-scout cores. */

#include <gtest/gtest.h>

#include "sim_test_util.hh"

using namespace sst;
using namespace sst::test;

namespace
{

double
stat(Core &core, const std::string &suffix)
{
    auto flat = core.stats().flatten();
    for (const auto &kv : flat)
        if (kv.first.size() >= suffix.size()
            && kv.first.compare(kv.first.size() - suffix.size(),
                                suffix.size(), suffix)
                   == 0)
            return kv.second;
    return 0.0;
}

/** One miss followed by dependent and independent work. */
const char *kOneMiss = R"(
    li   x1, 0x200000
    ld   x2, 0(x1)      ; trigger: cold miss
    add  x3, x2, x2     ; dependent -> deferred
    addi x4, x0, 7      ; independent -> executes ahead
    addi x5, x4, 1
    add  x6, x3, x5     ; mixes replay and ahead values
    halt
    .data 0x200000
    .word 21
)";

/** Independent misses: the MLP case SST is built for. */
std::string
independentMisses(int n)
{
    std::string src = "li x1, 0x400000\nli x9, 0\n";
    for (int i = 0; i < n; ++i) {
        src += "ld x5, " + std::to_string(i * 4096) + "(x1)\n";
        src += "add x9, x9, x5\n";
    }
    src += "halt\n.data 0x400000\n";
    // Each node needs a value; lay them out with .space hops.
    for (int i = 0; i < n; ++i) {
        src += ".word " + std::to_string(i + 1) + "\n";
        if (i != n - 1)
            src += ".space 4088\n";
    }
    return src;
}

/** A linked list of @p n nodes one page apart: every hop misses, and
 *  after the first every hop's address is NA (a dependent chain). */
std::string
dependentChain(int n)
{
    std::string src = "li x1, 0x400000\nli x7, " + std::to_string(n)
                      + "\nloop:\nld x1, 0(x1)\naddi x7, x7, -1\n"
                        "bne x7, x0, loop\nhalt\n.data 0x400000\n";
    for (int i = 0; i < n; ++i) {
        src += ".word " + std::to_string(0x400000 + (i + 1) * 4096) + "\n";
        if (i != n - 1)
            src += ".space 4088\n";
    }
    return src;
}

} // namespace

TEST(SstCore, EntersSpeculationOnMiss)
{
    CoreRun r = makeRun("sst", kOneMiss, sstParams(4));
    r.run();
    EXPECT_TRUE(r.core->halted());
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_GE(stat(*r.core, ".checkpoints_taken"), 1.0);
    EXPECT_GE(stat(*r.core, ".deferred_insts"), 2.0);
    EXPECT_GE(stat(*r.core, ".full_commits"), 1.0);
}

TEST(SstCore, DeferredValuesResolveCorrectly)
{
    CoreRun r = makeRun("sst", kOneMiss, sstParams(4));
    r.run();
    // x2=21, x3=42, x6=42+8=50.
    EXPECT_EQ(r.core->archState().reg(6), 50u);
}

TEST(SstCore, NaPropagatesThroughDataflow)
{
    const char *src = R"(
        li  x1, 0x200000
        ld  x2, 0(x1)
        add x3, x2, x1    ; NA
        add x4, x3, x3    ; NA transitively
        xor x5, x4, x2    ; NA
        addi x6, x0, 1    ; independent
        halt
        .data 0x200000
        .word 5
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_GE(stat(*r.core, ".deferred_insts"), 3.0);
}

TEST(SstCore, NaKilledByOverwrite)
{
    // The register made NA by the miss is overwritten before use: no
    // instruction should be deferred beyond the trigger itself.
    const char *src = R"(
        li  x1, 0x200000
        ld  x2, 0(x1)
        addi x2, x0, 9    ; kills the NA without reading it
        add x3, x2, x2    ; fully available
        halt
        .data 0x200000
        .word 5
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.core->archState().reg(3), 18u);
    EXPECT_LE(stat(*r.core, ".deferred_insts"), 1.0);
}

TEST(SstCore, AheadStrandOverlapsIndependentMisses)
{
    std::string src = independentMisses(8);
    CoreRun in = makeRun("inorder", src);
    CoreRun sst = makeRun("sst", src, sstParams(4));
    Cycle ci = in.run();
    Cycle cs = sst.run();
    EXPECT_TRUE(sst.archMatchesGolden());
    EXPECT_LT(cs, ci); // misses overlapped
    EXPECT_GT(stat(*sst.core, "l1_mshrs.demand_mlp.mean"), 2.0);
}

TEST(SstCore, MultipleCheckpointsOpenOnNewMisses)
{
    std::string src = independentMisses(10);
    CoreRun r = makeRun("sst", src, sstParams(4));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_GE(stat(*r.core, ".checkpoints_taken"), 4.0);
    EXPECT_GE(stat(*r.core, ".epochs_committed"), 2.0);
}

TEST(SstCore, SpeculativeStoreForwardsToSpeculativeLoad)
{
    const char *src = R"(
        li  x1, 0x200000
        li  x7, 0x300000
        ld  x2, 0(x1)      ; trigger miss
        li  x3, 1111
        st  x3, 0(x7)      ; speculative store (operands available)
        ld  x4, 0(x7)      ; must forward 1111 from the SSQ
        add x5, x4, x2     ; NA (via x2)
        halt
        .data 0x200000
        .word 5
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.core->archState().reg(5), 1116u);
}

TEST(SstCore, SsqForwardsLoadSpanningTwoStores)
{
    // An 8-byte load whose bytes come from two adjacent resolved
    // 4-byte speculative stores: specMemRead must byte-merge both.
    const char *src = R"(
        li  x1, 0x200000
        li  x7, 0x300000
        ld  x2, 0(x1)      ; trigger miss
        li  x3, 0x1111
        li  x4, 0x2222
        sw  x3, 0(x7)      ; bytes [0,4)
        sw  x4, 4(x7)      ; bytes [4,8)
        ld  x5, 0(x7)      ; spans both stores
        add x6, x5, x2
        halt
        .data 0x200000
        .word 5
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.core->archState().reg(5), 0x0000222200001111ull);
    EXPECT_EQ(stat(*r.core, ".fail_mem"), 0.0);
}

TEST(SstCore, SsqForwardsPartOfWiderStore)
{
    // A 4-byte load entirely inside an 8-byte store must extract the
    // right byte range (here the upper word) from the SSQ entry.
    const char *src = R"(
        li   x1, 0x200000
        li   x7, 0x300000
        ld   x2, 0(x1)      ; trigger miss
        li   x3, 0x1111
        slli x3, x3, 32
        ori  x3, x3, 0x2222 ; x3 = 0x00001111_00002222
        st   x3, 0(x7)      ; 8-byte store
        lw   x4, 4(x7)      ; upper word only
        add  x5, x4, x2
        halt
        .data 0x200000
        .word 5
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.core->archState().reg(4), 0x1111u);
    EXPECT_EQ(stat(*r.core, ".fail_mem"), 0.0);
}

TEST(SstCore, LoadOverlappingUnresolvedStoreDefers)
{
    // The load spans one resolved store and one whose data is still NA
    // (address known): it must park on the unresolved store instead of
    // forwarding a half-stale value — no conflict rollback afterwards.
    const char *src = R"(
        li  x1, 0x200000
        li  x7, 0x300000
        ld  x2, 0(x1)      ; trigger miss, x2 NA
        li  x3, 0x55
        sw  x3, 0(x7)      ; resolved, bytes [0,4)
        sw  x2, 4(x7)      ; NA data, known address -> unresolved slot
        ld  x4, 0(x7)      ; overlaps the unresolved store: must defer
        add x5, x4, x0
        halt
        .data 0x200000
        .word 5
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.core->archState().reg(4), 0x0000000500000055ull);
    // Deferred set: sw (NA data), ld (memory dependence), add (NA x4).
    EXPECT_GE(stat(*r.core, ".deferred_insts"), 3.0);
    EXPECT_EQ(stat(*r.core, ".fail_mem"), 0.0);
    EXPECT_GE(stat(*r.core, ".full_commits"), 1.0);
}

TEST(SstCore, StoresHeldUntilCommit)
{
    // While speculating, the memory image must not contain speculative
    // store data; it appears only after commit.
    const char *src = R"(
        li  x1, 0x200000
        ld  x2, 0(x1)      ; long miss keeps speculation open
        li  x3, 42
        st  x3, 64(x1)
        add x4, x2, x2
        halt
        .data 0x200000
        .word 5
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    // Tick a little: enough for the store to execute speculatively but
    // before the miss (~150+ cycles) returns.
    for (int i = 0; i < 30 && !r.core->halted(); ++i)
        r.core->tick();
    EXPECT_EQ(r.image.read(0x200040, 8), 0u) << "store leaked";
    r.run();
    EXPECT_EQ(r.image.read(0x200040, 8), 42u);
    EXPECT_TRUE(r.archMatchesGolden());
}

TEST(SstCore, DeferredStoreViaNaData)
{
    const char *src = R"(
        li  x1, 0x200000
        ld  x2, 0(x1)      ; miss
        st  x2, 64(x1)     ; NA data -> deferred store
        ld  x4, 64(x1)     ; memory-dependent on the deferred store
        addi x5, x4, 1
        halt
        .data 0x200000
        .word 7
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.core->archState().reg(5), 8u);
}

TEST(SstCore, DeferredBranchCorrectPredictionCommits)
{
    // Branch depends on the miss; direction is heavily biased so the
    // predictor gets it right and speculation commits.
    const char *src = R"(
        li   x1, 0x200000
        li   x7, 30
        li   x9, 0
    loop:
        ld   x2, 0(x1)     ; miss on first iteration only
        bne  x2, x0, good  ; always taken (x2 == 7)
        addi x9, x9, 100
    good:
        addi x9, x9, 1
        addi x7, x7, -1
        bne  x7, x0, loop
        halt
        .data 0x200000
        .word 7
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.core->archState().reg(9), 30u);
}

TEST(SstCore, DeferredBranchMispredictRollsBack)
{
    // First encounter of a deferred taken branch: the predictor (gshare,
    // cold counters weakly not-taken... ) may or may not fail, so use a
    // pattern that guarantees at least one mispredict: branch direction
    // flips based on loaded data the predictor has never seen.
    const char *src = R"(
        li   x1, 0x200000
        ld   x2, 0(x1)     ; miss, value 1
        beq  x2, x0, skip  ; NOT taken (x2=1); cold predictor says NT: ok
        addi x9, x9, 1
    skip:
        ld   x3, 4096(x1)  ; second miss, value 0
        bne  x3, x0, skip2 ; NOT taken; after training on 'bne taken'
        addi x9, x9, 2
    skip2:
        halt
        .data 0x200000
        .word 1
        .space 4088
        .word 0
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    // Whatever the predictor did, the final state must be correct.
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.core->archState().reg(9), 3u);
}

TEST(SstCore, GuaranteedRollbackStillCorrect)
{
    // Alternating data-dependent deferred branch: some rollbacks are
    // inevitable; architectural state must survive all of them.
    std::string src = R"(
        li   x1, 0x400000
        li   x7, 24
        li   x9, 0
        li   x10, 0x400000
    loop:
        ld   x2, 0(x10)     ; miss each iteration (new line)
        andi x3, x2, 1
        beq  x3, x0, even   ; direction depends on loaded data
        addi x9, x9, 1
        j    next
    even:
        addi x9, x9, 100
    next:
        addi x10, x10, 4096
        addi x7, x7, -1
        bne  x7, x0, loop
        halt
        .data 0x400000
)";
    Rng rng(9);
    for (int i = 0; i < 24; ++i) {
        src += ".word " + std::to_string(rng.below(1000)) + "\n";
        if (i != 23)
            src += ".space 4088\n";
    }
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.core->halted());
    EXPECT_TRUE(r.archMatchesGolden());
    double fails = stat(*r.core, ".fail_branch");
    EXPECT_GT(fails, 0.0); // at least one rollback happened
}

TEST(SstCore, MemConflictDetectedAndRolledBack)
{
    // A store whose ADDRESS depends on the miss, followed by a load
    // that speculatively reads (L1 hit) the location the store will
    // later resolve to. The load executes ahead with stale data, so the
    // store's replay must detect the conflict and roll back.
    const char *src = R"(
        li   x1, 0x200000
        li   x7, 0x300000
        ld   x6, 0(x7)     ; warm up the conflict line
        add  x8, x6, x6
        li   x9, 400       ; spin long enough for everything to settle
    spin:
        addi x9, x9, -1
        bne  x9, x0, spin
        ld   x2, 0(x1)     ; miss; value = 0x300000
        st   x1, 0(x2)     ; address NA -> deferred, addr unknown
        ld   x4, 0(x7)     ; L1 hit: executes speculatively, stale!
        add  x5, x4, x0
        halt
        .data 0x200000
        .word 0x300000
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    // x4 must observe the store's value (0x200000), not stale zero.
    EXPECT_EQ(r.core->archState().reg(5), 0x200000u);
    EXPECT_GE(stat(*r.core, ".fail_mem"), 1.0);
}

TEST(SstCore, DqExhaustionDegradesToStall)
{
    // More dependent instructions than DQ entries: the core must stall
    // (not break) and still finish correctly.
    std::string src = R"(
        li  x1, 0x200000
        ld  x2, 0(x1)
)";
    for (int i = 0; i < 40; ++i)
        src += "add x2, x2, x2\n"; // all deferred (dq of 8 overflows)
    src += "halt\n.data 0x200000\n.word 3\n";
    CoreRun r = makeRun("sst", src, sstParams(2, false, 8, 8));
    r.run();
    EXPECT_TRUE(r.core->halted());
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_GT(stat(*r.core, ".dq_full_stalls"), 0.0);
}

TEST(SstCore, SsqExhaustionStallsAhead)
{
    std::string src = R"(
        li  x1, 0x200000
        li  x7, 0x300000
        ld  x2, 0(x1)
)";
    for (int i = 0; i < 16; ++i)
        src += "st x1, " + std::to_string(i * 8) + "(x7)\n";
    src += "add x3, x2, x2\nhalt\n.data 0x200000\n.word 3\n";
    CoreRun r = makeRun("sst", src, sstParams(2, false, 64, 4));
    r.run();
    EXPECT_TRUE(r.core->halted());
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_GT(stat(*r.core, ".ssq_full_stalls"), 0.0);
}

TEST(SstCore, CommittedInstCountExact)
{
    CoreRun r = makeRun("sst", independentMisses(6), sstParams(4));
    r.run();
    EXPECT_EQ(r.core->instsRetired(), r.goldenInsts);
}

TEST(ScoutCore, DiscardsWorkButPrefetches)
{
    std::string src = independentMisses(8);
    CoreRun in = makeRun("inorder", src);
    CoreRun scout = makeRun("sst", src, sstParams(1, true));
    Cycle ci = in.run();
    Cycle cs = scout.run();
    EXPECT_TRUE(scout.archMatchesGolden());
    EXPECT_LT(cs, ci); // prefetching effect
    EXPECT_GE(stat(*scout.core, ".scout_ends"), 1.0);
    EXPECT_EQ(stat(*scout.core, ".replayed_insts"), 0.0);
    EXPECT_GT(stat(*scout.core, ".discarded_insts"), 0.0);
}

TEST(ScoutCore, StoreLeakImpossible)
{
    // Scout drops speculative stores entirely; they must never reach
    // memory, and re-execution must produce them exactly once.
    const char *src = R"(
        li  x1, 0x200000
        ld  x2, 0(x1)
        li  x3, 9
        st  x3, 64(x1)
        add x4, x2, x3
        halt
        .data 0x200000
        .word 5
    )";
    CoreRun r = makeRun("sst", src, sstParams(1, true));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.image.read(0x200040, 8), 9u);
}

TEST(ScoutCore, TrainsBranchPredictorDuringRunahead)
{
    CoreRun r = makeRun("sst", independentMisses(8), sstParams(1, true));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
}

TEST(SstCoreDeath, ScoutNeedsExactlyOneCheckpoint)
{
    CoreParams p = sstParams(2, true);
    Program prog = assemble("halt\n");
    HierarchyParams h;
    MemorySystem sys(h);
    MemoryImage img;
    CorePort &port = sys.addCore();
    EXPECT_DEATH(
        { SstCore core(p, prog, img, port); },
        "single-checkpoint");
}

TEST(SstCore, JalrReturnPredictedViaRas)
{
    // A function returns via jalr x0,x1 while its return register is
    // restored from a missing load: the RAS prediction must hold.
    const char *src = R"(
        li   x1, 0x200000
        st   x1, 8(x1)      ; will be overwritten by call linkage
        jal  x1, func
        addi x9, x9, 1
        halt
    func:
        li   x5, 0x200000
        ld   x6, 0(x5)      ; miss inside the function
        add  x7, x6, x6     ; deferred
        jalr x0, x1, 0      ; return (predictable via RAS)
        .data 0x200000
        .word 3
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.core->halted());
    EXPECT_TRUE(r.archMatchesGolden());
}

TEST(SstCore, DependentChainOpensEpochsAtNaDeferrals)
{
    // Every hop after the trigger defers with an NA address, so no hop
    // opens a checkpoint by missing. Once a DQ's worth has deferred, the
    // epoch closes and the next deferral opens a new one: the chain
    // commits epoch by epoch instead of in one region at HALT.
    std::string src = dependentChain(40);
    CoreRun in = makeRun("inorder", src);
    CoreRun sst = makeRun("sst", src, sstParams(2, false, 8));
    Cycle ci = in.run();
    Cycle cs = sst.run();
    EXPECT_TRUE(sst.core->halted());
    EXPECT_TRUE(sst.archMatchesGolden());
    EXPECT_GE(stat(*sst.core, ".epochs_committed"), 4.0);
    EXPECT_EQ(stat(*sst.core, ".fail_forced"), 0.0);
    EXPECT_LE(static_cast<double>(cs), 1.05 * static_cast<double>(ci));
}

TEST(SstCore, ExecuteAheadStallsOnClosedEpoch)
{
    // One checkpoint: with the epoch closed there is none to open, so
    // the next deferral waits (charged to dq_full) until the epoch
    // drains and commits, then normal mode re-triggers on the next hop.
    std::string src = dependentChain(40);
    CoreRun in = makeRun("inorder", src);
    CoreRun ea = makeRun("sst", src, sstParams(1, false, 8));
    Cycle ci = in.run();
    Cycle ce = ea.run();
    EXPECT_TRUE(ea.core->halted());
    EXPECT_TRUE(ea.archMatchesGolden());
    EXPECT_GE(stat(*ea.core, ".full_commits"), 4.0);
    EXPECT_GT(stat(*ea.core, ".dq_full_stalls"), 0.0);
    EXPECT_GT(stat(*ea.core, ".cpi_stack.dq_full"), 0.0);
    EXPECT_LE(static_cast<double>(ce), 1.05 * static_cast<double>(ci));
}

TEST(SstCore, EpochClosesAfterDqWorthOfDeferralsWithoutFilling)
{
    // One independent miss per iteration, summed into a running total:
    // each iteration defers the load and the add. The divide paces the
    // loop so about 45 entries are in flight, well below a 128-entry
    // DQ, and a fresh miss is always outstanding, so the one epoch of
    // an execute-ahead core would never drain before HALT. It closes
    // after a DQ's worth of deferrals instead.
    const char *src = R"(
        li   x1, 0x400000
        li   x7, 200
        li   x9, 0
        li   x20, 1000
        li   x21, 3
    loop:
        ld   x2, 0(x1)
        add  x9, x9, x2
        addi x1, x1, 4096
        div  x22, x20, x21
        addi x7, x7, -1
        bne  x7, x0, loop
        halt
    )";
    CoreRun r = makeRun("sst", src, sstParams(1, false, 128));
    r.run();
    EXPECT_TRUE(r.core->halted());
    EXPECT_TRUE(r.archMatchesGolden());
    // 400 deferrals, 128 per epoch.
    EXPECT_GE(stat(*r.core, ".full_commits"), 3.0);
}
