/**
 * @file
 * Out-of-order core — the comparator the paper claims SST beats on
 * commercial workloads while spending far less area and power.
 *
 * Classic rename/ROB/issue-queue/LSQ machine. Deliberately *generous*
 * modelling choices (perfect memory disambiguation with store-to-load
 * forwarding, no wrong-path resource pollution) bias results in the
 * OoO core's favour, making the headline SST comparison conservative.
 */

#ifndef SSTSIM_CORE_OOO_HH
#define SSTSIM_CORE_OOO_HH

#include <array>
#include <deque>

#include "core/core.hh"

namespace sst
{

/** ROB-window out-of-order model. */
class OoOCore : public Core
{
  public:
    OoOCore(const CoreParams &params, const Program &program,
            MemoryImage &memory, CorePort &port);

    const char *model() const override { return "ooo"; }

    Cycle nextWakeCycle() const override;

  protected:
    void cycle() override;
    void idleAdvance(Cycle n) override;
    void ioExtra(snap::Archive &ar) override;

  private:
    enum class State
    {
        Waiting,  ///< in issue queue, operands possibly outstanding
        Issued,   ///< executing; completes at doneCycle
        Done,     ///< result available, waiting to commit
        NumStates ///< count of states, not a state
    };

    struct RobEntry
    {
        SeqNum seq = 0;
        std::uint64_t pc = 0;
        Inst inst;
        StepInfo step;
        State state = State::Waiting;
        Cycle doneCycle = invalidCycle;
        Cycle retryAt = 0;         ///< load MSHR-reject backoff
        SeqNum src1Producer = 0;   ///< 0 = value already committed
        SeqNum src2Producer = 0;
        bool isLd = false;
        bool isSt = false;
        bool mispredicted = false;
    };

    void commitStage();
    unsigned issueStage();
    unsigned dispatchStage();

    RobEntry *entryFor(SeqNum seq);
    const RobEntry *entryFor(SeqNum seq) const
    {
        return const_cast<OoOCore *>(this)->entryFor(seq);
    }
    bool producerDone(SeqNum seq, Cycle &readyAt);
    /** Oldest overlapping in-flight store older than @p seq, if any. */
    RobEntry *olderStoreFor(const RobEntry &load);
    const RobEntry *olderStoreFor(const RobEntry &load) const
    {
        return const_cast<OoOCore *>(this)->olderStoreFor(load);
    }

    /** Wake-cycle analysis across commit/issue/dispatch stages. */
    IdleClass classifyIdle() const;

    std::deque<RobEntry> rob_;
    std::array<SeqNum, numArchRegs> lastProducer_{};
    SeqNum nextSeq_ = 1;

    unsigned iqOccupancy_ = 0;
    unsigned lsqOccupancy_ = 0;
    Cycle divBusyUntil_ = 0;
    Cycle frontEndReadyAt_ = 0;
    SeqNum redirectBlockedOn_ = 0; ///< unresolved mispredicted branch
    bool fetchHalted_ = false;     ///< HALT dispatched; drain only
    /** Last tick issued or dispatched something: the pipeline is
     *  working, so classifyIdle() can answer "act now" without the
     *  (ROB-scanning) stall analysis. */
    bool pipeActive_ = false;

    Executor exec_;

    /** Cached by nextWakeCycle() for the paired advanceIdle() call. */
    mutable IdleClass idle_;

    Scalar &robFullCycles_;
    Scalar &iqFullCycles_;
    Scalar &lsqFullCycles_;
    Distribution &robOccupancy_;
};

} // namespace sst

#endif // SSTSIM_CORE_OOO_HH
