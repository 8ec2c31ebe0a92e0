#include "core/ooo.hh"

#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst
{

OoOCore::OoOCore(const CoreParams &params, const Program &program,
                 MemoryImage &memory, CorePort &port)
    : Core(params, program, memory, port),
      exec_(program, memory),
      robFullCycles_(stats_.addScalar("rob_full_cycles",
                                      "dispatch stalls on full ROB")),
      iqFullCycles_(stats_.addScalar("iq_full_cycles",
                                     "dispatch stalls on full issue Q")),
      lsqFullCycles_(stats_.addScalar("lsq_full_cycles",
                                      "dispatch stalls on full LSQ")),
      robOccupancy_(stats_.addDist("rob_occupancy",
                                   "ROB entries in use per cycle",
                                   params.robEntries + 1, 16))
{
}

void
OoOCore::cycle()
{
    robOccupancy_.sample(rob_.size());
    commitStage();
    if (arch_.halted)
        return;
    unsigned issued = issueStage();
    unsigned dispatched = dispatchStage();
    pipeActive_ = issued > 0 || dispatched > 0;
}

Cycle
OoOCore::nextWakeCycle() const
{
    idle_ = classifyIdle();
    return idle_.wake;
}

void
OoOCore::idleAdvance(Cycle n)
{
    // Every skipped cycle re-samples the frozen ROB occupancy, bumps at
    // most one dispatch full-queue counter, and charges the commit
    // stage's stall category. (Issued->Done flips are left unapplied:
    // every consumer treats Issued-with-elapsed-doneCycle as Done.)
    robOccupancy_.sample(rob_.size(), n);
    if (idle_.counter)
        *idle_.counter += n;
    cpiStack_.add(idle_.cat, n);
}

Core::IdleClass
OoOCore::classifyIdle() const
{
    IdleClass ic;
    if (arch_.halted) {
        ic.wake = kWakeNever;
        return ic;
    }
    // An issue or dispatch last tick means in-flight work is advancing:
    // answer "act now" without walking the ROB. (A window can only
    // begin on a tick where nothing moved, and that tick reaches the
    // analysis below.)
    if (pipeActive_)
        return ic;
    Cycle wake = kWakeNever;

    // Commit stage decides the window's CPI category; a committable
    // head acts this cycle (a store head even re-probes the port).
    if (rob_.empty()) {
        ic.cat = trace::CpiCat::Fetch;
    } else {
        const RobEntry &head = rob_.front();
        ic.cat = trace::CpiCat::UseStall;
        if (head.state != State::Waiting) {
            if (head.doneCycle <= now_)
                return ic; // commit or store-retry: act now
            wake = std::min(wake, head.doneCycle);
        }
        // A Waiting head wakes through the issue scan below.
    }

    // Dispatch stage (cheap; mirrors the stalled slot-0 iteration). The
    // full-queue counters release via commit/issue events the other
    // stages already bound; the fetch timers add their own candidates.
    if (!fetchHalted_ && redirectBlockedOn_ == 0) {
        if (frontEndReadyAt_ > now_) {
            wake = std::min(wake, frontEndReadyAt_);
        } else if (rob_.size() >= params_.robEntries) {
            ic.counter = &robFullCycles_;
        } else if (iqOccupancy_ >= params_.issueQueueEntries) {
            ic.counter = &iqFullCycles_;
        } else if (isMem(program_.at(arch_.pc).op)
                   && lsqOccupancy_ >= params_.lsqEntries) {
            ic.counter = &lsqFullCycles_;
        } else {
            Addr line =
                port_.l1i().lineAddr(program_.instAddr(arch_.pc));
            if (line != lastFetchLine_)
                return ic; // new-line fetch probes the port: act now
            if (fetchLineReady_ <= now_)
                return ic; // dispatch proceeds this cycle
            wake = std::min(wake, fetchLineReady_);
        }
    }

    // Issue stage: earliest cycle any Waiting entry could issue. An
    // entry whose producer is itself Waiting wakes via that producer's
    // issue, which the scan already bounds.
    for (const RobEntry &e : rob_) {
        if (e.state != State::Waiting)
            continue;
        Cycle t = e.retryAt;
        bool producer_waiting = false;
        auto producer = [&](SeqNum seq) {
            if (seq == 0)
                return;
            const RobEntry *p = entryFor(seq);
            if (!p)
                return; // already committed
            if (p->state == State::Waiting)
                producer_waiting = true;
            else
                t = std::max(t, p->doneCycle);
        };
        producer(e.src1Producer);
        producer(e.src2Producer);
        if (producer_waiting)
            continue;
        const OpInfo &info = opInfo(e.inst.op);
        if (info.cls == OpClass::IntDiv || info.cls == OpClass::FpDiv)
            t = std::max(t, divBusyUntil_);
        if (e.isLd) {
            const RobEntry *st = olderStoreFor(e);
            if (st && st->state == State::Waiting)
                continue; // forwards once the store issues
        }
        if (t <= now_) {
            ic.wake = kWakeNow;
            return ic; // issues this cycle
        }
        wake = std::min(wake, t);
    }

    ic.wake = wake;
    return ic;
}

OoOCore::RobEntry *
OoOCore::entryFor(SeqNum seq)
{
    if (rob_.empty() || seq < rob_.front().seq
        || seq > rob_.back().seq)
        return nullptr;
    return &rob_[seq - rob_.front().seq];
}

bool
OoOCore::producerDone(SeqNum seq, Cycle &readyAt)
{
    if (seq == 0)
        return true;
    RobEntry *prod = entryFor(seq);
    if (!prod)
        return true; // already committed
    if (prod->state == State::Waiting)
        return false;
    readyAt = std::max(readyAt, prod->doneCycle);
    return prod->doneCycle <= now_;
}

OoOCore::RobEntry *
OoOCore::olderStoreFor(const RobEntry &load)
{
    RobEntry *best = nullptr;
    for (auto &e : rob_) {
        if (e.seq >= load.seq)
            break;
        if (!e.isSt)
            continue;
        Addr lo = std::max(e.step.effAddr, load.step.effAddr);
        Addr hi = std::min(e.step.effAddr + e.step.memSize,
                           load.step.effAddr + load.step.memSize);
        if (lo < hi)
            best = &e; // youngest older overlapping store wins
    }
    return best;
}

void
OoOCore::commitStage()
{
    unsigned width = params_.fetchWidth;
    if (rob_.empty())
        noteStall(trace::CpiCat::Fetch);
    while (width-- > 0 && !rob_.empty()) {
        RobEntry &head = rob_.front();
        if (head.state == State::Waiting || head.doneCycle > now_) {
            noteStall(trace::CpiCat::UseStall);
            break;
        }
        if (head.isSt) {
            // Retire the store into the cache; a rejected access stalls
            // commit (finite write resources).
            auto res =
                port_.access(AccessType::Store, head.step.effAddr, now_);
            if (res.rejected) {
                noteStall(trace::CpiCat::StoreBuf);
                break;
            }
            ++storesExecuted_;
        }
        if (head.inst.op == Opcode::HALT)
            arch_.halted = true;
        if (lastProducer_[head.inst.rd] == head.seq)
            lastProducer_[head.inst.rd] = 0;
        ++committed_;
        record(trace::TraceKind::Commit, trace::TraceStrand::Main,
               head.pc, head.seq);
        rob_.pop_front();
        if (arch_.halted)
            return;
    }
}

unsigned
OoOCore::issueStage()
{
    unsigned slots = params_.issueWidth;
    unsigned issued = 0;
    for (auto &e : rob_) {
        if (slots == 0)
            break;
        if (e.state == State::Issued && e.doneCycle <= now_)
            e.state = State::Done;
        if (e.state != State::Waiting)
            continue;
        if (e.retryAt > now_)
            continue;

        Cycle readyAt = 0;
        bool r1 = producerDone(e.src1Producer, readyAt);
        bool r2 = producerDone(e.src2Producer, readyAt);
        if (!r1 || !r2)
            continue;

        const OpInfo &info = opInfo(e.inst.op);
        if ((info.cls == OpClass::IntDiv || info.cls == OpClass::FpDiv)
            && divBusyUntil_ > now_)
            continue;

        if (e.isLd) {
            if (RobEntry *st = olderStoreFor(e)) {
                if (st->state == State::Waiting)
                    continue; // store data not ready; try later
                // Forward from the in-flight store.
                e.doneCycle = std::max(now_, st->doneCycle) + 1;
            } else {
                auto res = port_.access(AccessType::Load,
                                        e.step.effAddr, now_);
                if (res.rejected) {
                    e.retryAt = res.retryCycle;
                    continue;
                }
                e.doneCycle = res.readyCycle;
                ++loadsExecuted_;
            }
        } else if (e.isSt) {
            e.doneCycle = now_ + 1; // address+data captured
        } else {
            e.doneCycle = now_ + info.latency;
            if (info.cls == OpClass::IntDiv || info.cls == OpClass::FpDiv)
                divBusyUntil_ = e.doneCycle;
        }

        e.state = State::Issued;
        --slots;
        ++issued;
        --iqOccupancy_;

        // A mispredicted control instruction redirects fetch when it
        // resolves.
        if (e.mispredicted && redirectBlockedOn_ == e.seq) {
            frontEndReadyAt_ =
                std::max(frontEndReadyAt_,
                         e.doneCycle + params_.pipelineDepth);
            redirectBlockedOn_ = 0;
        }
    }

    // LSQ entries free at commit; model occupancy from ROB contents.
    lsqOccupancy_ = 0;
    for (auto &e : rob_)
        if (e.isLd || e.isSt)
            ++lsqOccupancy_;
    return issued;
}

unsigned
OoOCore::dispatchStage()
{
    unsigned dispatched = 0;
    if (fetchHalted_ || redirectBlockedOn_ != 0
        || frontEndReadyAt_ > now_)
        return dispatched;

    for (unsigned slot = 0; slot < params_.fetchWidth; ++slot) {
        if (rob_.size() >= params_.robEntries) {
            ++robFullCycles_;
            return dispatched;
        }
        if (iqOccupancy_ >= params_.issueQueueEntries) {
            ++iqFullCycles_;
            return dispatched;
        }
        std::uint64_t pc = arch_.pc;
        const Inst &inst = program_.at(pc);
        if (isMem(inst.op) && lsqOccupancy_ >= params_.lsqEntries) {
            ++lsqFullCycles_;
            return dispatched;
        }
        Cycle fetchAt = fetchReady(pc);
        if (fetchAt > now_) {
            frontEndReadyAt_ = fetchAt;
            return dispatched;
        }

        RobEntry e;
        e.seq = nextSeq_++;
        e.pc = pc;
        e.inst = inst;
        e.src1Producer =
            opInfo(inst.op).readsRs1 ? lastProducer_[inst.rs1] : 0;
        e.src2Producer =
            opInfo(inst.op).readsRs2 ? lastProducer_[inst.rs2] : 0;
        e.isLd = isLoad(inst.op);
        e.isSt = isStore(inst.op);

        // Functional execution at dispatch (fetch is always on the
        // correct path in this model).
        e.step = exec_.step(arch_);
        if (e.step.halted) {
            // Drain the window; commit of HALT ends the simulation.
            arch_.halted = false;
            fetchHalted_ = true;
        }

        if (opInfo(inst.op).writesRd && inst.rd != 0)
            lastProducer_[inst.rd] = e.seq;
        ++iqOccupancy_;
        if (e.isLd || e.isSt)
            ++lsqOccupancy_;

        bool isCtrl = isControl(inst.op);
        if (isCtrl) {
            bool correct =
                resolveControl(inst, pc, e.step.nextPc, e.step.taken);
            if (!correct) {
                e.mispredicted = true;
                redirectBlockedOn_ = e.seq;
            }
        }
        rob_.push_back(std::move(e));
        ++dispatched;

        if (fetchHalted_ || redirectBlockedOn_ != 0)
            return dispatched;
        if (isCtrl && rob_.back().step.taken) {
            // Taken-branch fetch bubble ends the dispatch group.
            frontEndReadyAt_ = now_ + 1;
            return dispatched;
        }
    }
    return dispatched;
}


void
OoOCore::ioExtra(snap::Archive &ar)
{
    ar.list(rob_, "ROB", [&](RobEntry &e) {
        ar.u64(e.seq);
        ar.u64(e.pc);
        ar.encoded(e.inst);
        e.step.io(ar);
        ar.enum8(e.state, State::NumStates, "ROB entry state");
        ar.u64(e.doneCycle);
        ar.u64(e.retryAt);
        ar.u64(e.src1Producer);
        ar.u64(e.src2Producer);
        ar.b(e.isLd);
        ar.b(e.isSt);
        ar.b(e.mispredicted);
    });
    for (SeqNum &p : lastProducer_)
        ar.u64(p);
    ar.u64(nextSeq_);
    ar.u32(iqOccupancy_);
    ar.u32(lsqOccupancy_);
    ar.u64(divBusyUntil_);
    ar.u64(frontEndReadyAt_);
    ar.u64(redirectBlockedOn_);
    ar.b(fetchHalted_);
    ar.b(pipeActive_);
}

} // namespace sst
