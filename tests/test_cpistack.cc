/** @file Tests for CPI-stack cycle attribution (src/trace/cpistack). */

#include <gtest/gtest.h>

#include "core/smt.hh"
#include "sim/cmp.hh"
#include "sim_test_util.hh"
#include "trace/cpistack.hh"

using namespace sst;
using namespace sst::test;

namespace
{

// A load miss plus a dependent chain, so every model sees both retiring
// and stalling cycles.
const char *kMissChain = R"(
    li   x1, 0x200000
    ld   x2, 0(x1)
    add  x3, x2, x2
    add  x4, x3, x3
    addi x5, x0, 7
    halt
    .data 0x200000
    .word 21
)";

void
expectSumsToCycles(const std::string &model, CoreParams params)
{
    CoreRun r = makeRun(model, kMissChain, params);
    r.run();
    EXPECT_TRUE(r.archMatchesGolden()) << model;
    EXPECT_EQ(r.core->cpiStack().total(), r.core->cycles()) << model;
    EXPECT_GT(r.core->cpiStack().value(trace::CpiCat::Base), 0u)
        << model;
}

} // namespace

TEST(CpiStack, InOrderSumsToCycles)
{
    expectSumsToCycles("inorder", CoreParams{});
}

TEST(CpiStack, OoOSumsToCycles)
{
    expectSumsToCycles("ooo", CoreParams{});
}

TEST(CpiStack, SstSumsToCycles)
{
    expectSumsToCycles("sst", sstParams(2));
}

TEST(CpiStack, ScoutSumsToCycles)
{
    expectSumsToCycles("sst", sstParams(1, true));
}

TEST(CpiStack, SstChargesSpeculationCycles)
{
    CoreRun r = makeRun("sst", kMissChain, sstParams(2));
    r.run();
    // The region committed, so speculating cycles landed in replay (or
    // the queue-pressure categories), not in rollback_discard.
    trace::CpiStack &stack = r.core->cpiStack();
    EXPECT_GT(stack.value(trace::CpiCat::Replay), 0u);
    EXPECT_EQ(stack.value(trace::CpiCat::RollbackDiscard), 0u);
}

TEST(CpiStack, ScoutChargesDiscardedWork)
{
    CoreRun r = makeRun("sst", kMissChain, sstParams(1, true));
    r.run();
    // Every scout region ends in a rollback: its speculation cycles are
    // all wasted work by construction.
    trace::CpiStack &stack = r.core->cpiStack();
    EXPECT_GT(stack.value(trace::CpiCat::RollbackDiscard), 0u);
    EXPECT_EQ(stack.value(trace::CpiCat::Replay), 0u);
}

TEST(CpiStack, SumsToCyclesAtEveryCycle)
{
    // Speculating cycles are charged provisionally, not held back, so
    // the stack is complete mid-region too: a harvest at any cycle
    // (a budget stop, a sliced run) needs no flush that could move
    // cycles between buckets. Scout rolls back every region, so its
    // provisional charges are moved as well.
    for (bool scout : {false, true}) {
        CoreRun r = makeRun("sst", kMissChain, sstParams(scout ? 1 : 2,
                                                         scout));
        while (!r.core->halted() && r.core->cycles() < 10'000) {
            r.core->tick();
            ASSERT_EQ(r.core->cpiStack().total(), r.core->cycles())
                << (scout ? "scout" : "sst") << " at cycle "
                << r.core->cycles();
        }
        EXPECT_TRUE(r.core->halted());
    }
}

TEST(CpiStack, CoherentCmpSumsToCyclesWithCoherenceBucket)
{
    // Two in-order cores contending one spinlock over a coherent
    // shared L2: the new Coherence category must receive the
    // invalidation-induced stalls and still leave every cycle charged
    // exactly once per core.
    WorkloadParams wp;
    wp.lengthScale = 0.1;
    std::vector<Workload> w =
        makeSharedWorkload("spinlock_counter", 2, wp);
    std::vector<const Program *> programs;
    for (const Workload &x : w)
        programs.push_back(&x.program);
    MachineConfig cfg;
    cfg.model = "inorder";
    cfg.core.name = "core";
    cfg.mem.coh.enabled = true;
    Cmp cmp(cfg, programs);
    CmpResult res = cmp.run(100'000'000);
    ASSERT_TRUE(res.finished);
    std::uint64_t coh = 0;
    for (unsigned c = 0; c < 2; ++c) {
        EXPECT_EQ(cmp.core(c).cpiStack().total(),
                  cmp.core(c).cycles())
            << "core " << c;
        coh += cmp.core(c).cpiStack().value(trace::CpiCat::Coherence);
    }
    EXPECT_GT(coh, 0u);
}

TEST(CpiStack, SmtSumsToCycles)
{
    Program pa = assemble(R"(
        li   x1, 0x200000
        ld   x2, 0(x1)
        add  x3, x2, x2
        halt
        .data 0x200000
        .word 5
    )",
                          "smt_a");
    Program pb = assemble(R"(
        addi x1, x0, 10
        addi x2, x1, 10
        addi x3, x2, 10
        halt
    )",
                          "smt_b");
    MemoryImage ma, mb;
    ma.loadSegments(pa);
    mb.loadSegments(pb);
    MemorySystem memsys{HierarchyParams{}};
    CorePort &port = memsys.addCore();
    SmtCore core(CoreParams{}, {&pa, &pb}, {&ma, &mb}, port);
    std::uint64_t guard = 0;
    while (!core.halted() && guard++ < 1'000'000)
        core.tick();
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.cpiStack().total(), core.cycles());
    EXPECT_GT(core.cpiStack().value(trace::CpiCat::Base), 0u);
}

/**
 * A run cut into slices harvests exactly what one run() does. The cuts
 * fall inside speculation regions that later roll back: a harvest that
 * settled those cycles as committed work would leave them in replay /
 * dq_full instead of rollback_discard.
 */
TEST(CpiStack, SlicedRunsHarvestLikeOneRun)
{
    Program program = workloadProgram("oltp_mix");
    const std::vector<std::uint64_t> cuts = {9'000, 15'000};

    Machine whole(makePreset("sst2"), program);
    RunResult want = whole.run();
    Machine sliced(makePreset("sst2"), program);
    for (std::uint64_t cut : cuts)
        (void)sliced.run(cut);
    RunResult got = sliced.run();
    ASSERT_TRUE(want.finished);
    ASSERT_GT(want.cycles, cuts.back());
    EXPECT_EQ(want.cycles, got.cycles);
    expectStatsEqual(want.stats, got.stats);
    EXPECT_TRUE(want.stats == got.stats);
    EXPECT_EQ(whole.core().stats().toJson(), sliced.core().stats().toJson());

    std::vector<const Program *> programs{&program, &program};
    Cmp wholeChip(makePreset("sst2"), programs);
    CmpResult wantChip = wholeChip.run();
    Cmp slicedChip(makePreset("sst2"), programs);
    for (std::uint64_t cut : cuts)
        (void)slicedChip.run(cut);
    CmpResult gotChip = slicedChip.run();
    ASSERT_TRUE(wantChip.finished);
    EXPECT_EQ(wantChip.cycles, gotChip.cycles);
    for (unsigned c = 0; c < 2; ++c) {
        SCOPED_TRACE("core " + std::to_string(c));
        auto wantStats = wholeChip.core(c).stats().flatten();
        auto gotStats = slicedChip.core(c).stats().flatten();
        expectStatsEqual(wantStats, gotStats);
        EXPECT_TRUE(wantStats == gotStats);
    }
    EXPECT_EQ(wholeChip.snapshot(), slicedChip.snapshot());
}
