#include "core/inorder.hh"

#include <algorithm>

#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst
{

InOrderCore::InOrderCore(const CoreParams &params, const Program &program,
                         MemoryImage &memory, CorePort &port)
    : Core(params, program, memory, port),
      exec_(program, memory),
      stallUseCycles_(stats_.addScalar("stall_use_cycles",
                                       "cycles stalled on operand use")),
      stallStoreBufCycles_(stats_.addScalar(
          "stall_storebuf_cycles", "cycles stalled on full store buffer")),
      stallFetchCycles_(stats_.addScalar("stall_fetch_cycles",
                                         "cycles stalled on I-fetch"))
{
}

Cycle
InOrderCore::nextWakeCycle() const
{
    idle_ = classifyIdle();
    return idle_.wake;
}

void
InOrderCore::idleAdvance(Cycle n)
{
    // Each skipped cycle would have failed issueOne() at the same
    // condition: one stall-scalar bump and one CPI-stack charge apiece.
    if (idle_.counter)
        *idle_.counter += n;
    cpiStack_.add(idle_.cat, n);
}

Core::IdleClass
InOrderCore::classifyIdle() const
{
    IdleClass ic;
    if (arch_.halted) {
        ic.wake = kWakeNever;
        return ic;
    }
    Cycle wake = kWakeNever;

    // Store-buffer drain: a front entry due now does a port access (a
    // real event, possibly rejected); one due later bounds the skip.
    if (!storeBuffer_.empty()) {
        if (storeBuffer_.front().issuableAt <= now_)
            return ic; // kWakeNow
        wake = std::min(wake, storeBuffer_.front().issuableAt);
    }

    // Mirror issueOne()'s first-failing condition: it decides which
    // stall scalar and CPI category every cycle in the window repeats.
    if (frontEndReadyAt_ > now_) {
        ic.wake = std::min(wake, frontEndReadyAt_);
        ic.cat = trace::CpiCat::Fetch;
        ic.counter = &stallFetchCycles_;
        return ic;
    }
    std::uint64_t pc = arch_.pc;
    Addr line = port_.l1i().lineAddr(program_.instAddr(pc));
    if (line != lastFetchLine_)
        return ic; // new-line fetch probes the port: act now
    if (fetchLineReady_ > now_) {
        ic.wake = std::min(wake, fetchLineReady_);
        ic.cat = trace::CpiCat::Fetch;
        ic.counter = &stallFetchCycles_;
        return ic;
    }

    const Inst &inst = program_.at(pc);
    const OpInfo &info = opInfo(inst.op);
    Cycle op_ready = 0;
    if (info.readsRs1 && inst.rs1 != 0)
        op_ready = std::max(op_ready, regReady_[inst.rs1]);
    if (info.readsRs2 && inst.rs2 != 0)
        op_ready = std::max(op_ready, regReady_[inst.rs2]);
    if (op_ready > now_) {
        bool coh = (info.readsRs1 && inst.rs1 != 0
                    && regReady_[inst.rs1] > now_ && regCoh_[inst.rs1])
                   || (info.readsRs2 && inst.rs2 != 0
                       && regReady_[inst.rs2] > now_ && regCoh_[inst.rs2]);
        ic.wake = std::min(wake, op_ready);
        ic.cat = coh ? trace::CpiCat::Coherence : trace::CpiCat::UseStall;
        ic.counter = &stallUseCycles_;
        return ic;
    }
    if ((info.cls == OpClass::IntDiv || info.cls == OpClass::FpDiv)
        && divBusyUntil_ > now_) {
        ic.wake = std::min(wake, divBusyUntil_);
        ic.cat = trace::CpiCat::UseStall;
        ic.counter = &stallUseCycles_;
        return ic;
    }
    if (isStore(inst.op)
        && storeBuffer_.size() >= params_.storeBufferEntries) {
        // Releases when the buffer drains; wake already bounds the
        // skip at the front entry's drain attempt.
        ic.wake = wake;
        ic.cat = trace::CpiCat::StoreBuf;
        ic.counter = &stallStoreBufCycles_;
        return ic;
    }
    // A load re-probes the port every attempt (rejected or not), and
    // anything else would issue: both are this-cycle actions.
    return ic;
}

void
InOrderCore::cycle()
{
    drainStoreBuffer();
    if (arch_.halted)
        return;
    for (unsigned slot = 0; slot < params_.fetchWidth; ++slot) {
        if (arch_.halted || !issueOne())
            break;
    }
}

void
InOrderCore::drainStoreBuffer()
{
    // One store per cycle leaves the buffer when the L1 can take it.
    if (storeBuffer_.empty())
        return;
    PendingStore &st = storeBuffer_.front();
    if (st.issuableAt > now_)
        return;
    auto res = port_.access(AccessType::Store, st.addr, now_);
    if (res.rejected) {
        st.issuableAt = res.retryCycle;
        return;
    }
    storeBuffer_.pop_front();
}

bool
InOrderCore::issueOne()
{
    if (frontEndReadyAt_ > now_) {
        ++stallFetchCycles_;
        noteStall(trace::CpiCat::Fetch);
        return false;
    }
    std::uint64_t pc = arch_.pc;
    Cycle fetchAt = fetchReady(pc);
    if (fetchAt > now_) {
        frontEndReadyAt_ = fetchAt;
        ++stallFetchCycles_;
        noteStall(trace::CpiCat::Fetch);
        return false;
    }

    const Inst &inst = program_.at(pc);
    const OpInfo &info = opInfo(inst.op);

    // Scoreboard: every source must be ready this cycle (x0 always is).
    auto ready = [&](RegId r) { return r == 0 || regReady_[r] <= now_; };
    if ((info.readsRs1 && !ready(inst.rs1))
        || (info.readsRs2 && !ready(inst.rs2))) {
        bool coh = (info.readsRs1 && !ready(inst.rs1) && regCoh_[inst.rs1])
                   || (info.readsRs2 && !ready(inst.rs2)
                       && regCoh_[inst.rs2]);
        ++stallUseCycles_;
        noteStall(coh ? trace::CpiCat::Coherence : trace::CpiCat::UseStall);
        return false;
    }

    // Structural hazards before committing to execute.
    if (info.cls == OpClass::IntDiv || info.cls == OpClass::FpDiv) {
        if (divBusyUntil_ > now_) {
            ++stallUseCycles_;
            noteStall(trace::CpiCat::UseStall);
            return false;
        }
    }
    if (isStore(inst.op)
        && storeBuffer_.size() >= params_.storeBufferEntries) {
        ++stallStoreBufCycles_;
        noteStall(trace::CpiCat::StoreBuf);
        return false;
    }
    if (isLoad(inst.op)) {
        // Probe without committing: a rejected load (no MSHR) must retry.
        // Atomics go through this path too but access as a Store (the
        // directory must treat them as writers); their memory update
        // happens at execute time, bypassing the store buffer — an
        // acceptable approximation since the atomicity comes from the
        // sequential CMP tick, not the buffer.
        Addr addr = semantics::effectiveAddr(inst, arch_.reg(inst.rs1));
        AccessType type =
            isAtomic(inst.op) ? AccessType::Store : AccessType::Load;
        auto res = port_.access(type, addr, now_);
        if (res.rejected) {
            ++stallUseCycles_;
            noteStall(trace::CpiCat::UseStall);
            return false;
        }
        exec_.step(arch_);
        ++loadsExecuted_;
        if (isAtomic(inst.op))
            ++storesExecuted_;
        regReady_[inst.rd] = res.readyCycle;
        regCoh_[inst.rd] = res.coh;
        ++committed_;
        record(trace::TraceKind::Commit, trace::TraceStrand::Main, pc);
        return true;
    }

    StepInfo step = exec_.step(arch_);
    ++committed_;
    record(trace::TraceKind::Commit, trace::TraceStrand::Main, pc);

    if (info.writesRd)
        regCoh_[inst.rd] = false; // non-load producers are never coherence
    switch (info.cls) {
      case OpClass::Store:
        ++storesExecuted_;
        storeBuffer_.push_back(
            PendingStore{step.effAddr, step.memSize, now_});
        break;
      case OpClass::Branch:
      case OpClass::Jump: {
        if (info.writesRd)
            regReady_[inst.rd] = now_ + 1;
        bool correct =
            resolveControl(inst, pc, step.nextPc, step.taken);
        if (!correct)
            frontEndReadyAt_ = now_ + params_.pipelineDepth;
        else if (step.taken)
            frontEndReadyAt_ = now_ + 1; // taken-branch fetch bubble
        break;
      }
      case OpClass::IntDiv:
      case OpClass::FpDiv:
        divBusyUntil_ = now_ + info.latency;
        regReady_[inst.rd] = now_ + info.latency;
        break;
      case OpClass::Other:
        break;
      default:
        if (info.writesRd)
            regReady_[inst.rd] = now_ + info.latency;
        break;
    }
    return true;
}

void
InOrderCore::ioExtra(snap::Archive &ar)
{
    for (Cycle &rdy : regReady_)
        ar.u64(rdy);
    for (bool &coh : regCoh_)
        ar.b(coh);
    storeBufferIo(ar, storeBuffer_);
    ar.u64(divBusyUntil_);
    ar.u64(frontEndReadyAt_);
}

} // namespace sst
