/**
 * @file
 * In-order, stall-on-use scoreboard core — the ROCK base pipeline
 * without speculation. Loads are non-blocking (hit-under-miss via the
 * MSHRs); the pipeline stalls only when an instruction *uses* a value
 * that is not ready. Stores retire into a finite store buffer that
 * drains to the L1 in the background.
 */

#ifndef SSTSIM_CORE_INORDER_HH
#define SSTSIM_CORE_INORDER_HH

#include <array>
#include <deque>

#include "core/core.hh"

namespace sst
{

/** The baseline core every speedup in the benches is normalised to. */
class InOrderCore : public Core
{
  public:
    InOrderCore(const CoreParams &params, const Program &program,
                MemoryImage &memory, CorePort &port);

    const char *model() const override { return "inorder"; }

    Cycle nextWakeCycle() const override;

  protected:
    void cycle() override;
    void idleAdvance(Cycle n) override;
    void ioExtra(snap::Archive &ar) override;

  private:
    /** Try to issue the instruction at arch_.pc. @return true on issue. */
    bool issueOne();
    void drainStoreBuffer();

    /** Mirror issueOne()'s first-failing condition for the wake-cycle
     *  protocol (see Core::nextWakeCycle). */
    IdleClass classifyIdle() const;

    /** Cycle at which each architectural register's value is ready. */
    std::array<Cycle, numArchRegs> regReady_{};

    /** True when the register's pending value comes from a load whose
     *  latency includes coherence traffic (invalidation/intervention or
     *  a line lost to a remote write) — use-stalls on it are charged to
     *  the Coherence CPI bucket instead of UseStall. */
    std::array<bool, numArchRegs> regCoh_{};

    /** Pending stores: architecturally applied, timing queued. */
    std::deque<PendingStore> storeBuffer_;

    /** Unpipelined divider busy-until. */
    Cycle divBusyUntil_ = 0;
    /** Front-end redirect stall (mispredict/branch resolution). */
    Cycle frontEndReadyAt_ = 0;

    Executor exec_;

    /** Last classification, cached by nextWakeCycle() for the paired
     *  advanceIdle() call. */
    mutable IdleClass idle_;

    Scalar &stallUseCycles_;
    Scalar &stallStoreBufCycles_;
    Scalar &stallFetchCycles_;
};

} // namespace sst

#endif // SSTSIM_CORE_INORDER_HH
