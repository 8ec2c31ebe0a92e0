/**
 * @file
 * Single-core machine: one core over its memory hierarchy, running one
 * workload to completion. A thin facade over a one-core Cmp — the chip
 * engine is the only run loop and its snapshot is the only format.
 */

#ifndef SSTSIM_SIM_MACHINE_HH
#define SSTSIM_SIM_MACHINE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.hh"
#include "sim/cmp.hh"
#include "sim/presets.hh"

namespace sst
{

/** Key metrics of one finished run. */
struct RunResult
{
    std::string preset;
    std::string workload;
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    double ipc = 0;
    double l1dMissRate = 0;
    double meanDemandMlp = 0;
    double mispredictRate = 0;
    bool finished = false; ///< HALT committed within the cycle budget
    DegradeReason degrade = DegradeReason::None;
    /** Flattened stats for anything the summary fields don't cover.
     *  Includes "fault.*" (injector) and "watchdog.*" entries. */
    std::map<std::string, double> stats;
};

/** One core + private hierarchy + loaded memory image. */
class Machine
{
  public:
    /** @p program must outlive the machine. */
    Machine(const MachineConfig &config, const Program &program);

    /** Run to HALT or @p maxCycles; harvest metrics. Resumes from the
     *  current state, so a restore() followed by run() continues the
     *  interrupted simulation, and a run cut into several calls
     *  harvests exactly what one call does. */
    RunResult run(std::uint64_t max_cycles = 500'000'000);

    /** run() that additionally writes a snapshot of the whole machine
     *  to @p snap.path every snap.everyCycles simulated cycles. */
    RunResult run(std::uint64_t max_cycles, const SnapPolicy &snap);

    /**
     * Advance to cycle @p target (or until HALT / livelock) with
     * exactly run()'s tick + watchdog + fast-forward semantics. The
     * lockstep divergence differ is built on this: two machines
     * stepTo() the same cycle and compare stateHash().
     */
    void stepTo(Cycle target) { chip_.stepTo(target); }

    /** XXH64 over the complete serialized machine state. Equal
     *  hashes at equal cycles ⇒ byte-identical future behaviour. */
    std::uint64_t stateHash() const { return chip_.stateHash(); }

    /** Complete machine image (a one-core chip snapshot), restorable
     *  in a fresh process via restore(). */
    std::vector<std::uint8_t> snapshot() const { return chip_.snapshot(); }

    /** Restore a snapshot() image. The machine must have been built
     *  with the same preset, model and program; mismatches fatal(). */
    void restore(const std::vector<std::uint8_t> &bytes)
    {
        chip_.restore(bytes);
    }

    Result<void> snapshotToFile(const std::string &path) const
    {
        return chip_.snapshotToFile(path);
    }
    Result<void> restoreFromFile(const std::string &path)
    {
        return chip_.restoreFromFile(path);
    }

    /** Start a freshly built machine from @p cursor at cycle @p clock
     *  (a checkpoint-warmed region; see warmStartMachine()). */
    void warmStart(const ArchState &cursor, Cycle clock)
    {
        chip_.warmStart(cursor, clock);
    }

    /** True once the watchdog declared livelock (sticky; saved). */
    bool livelocked() const { return chip_.livelocked(); }

    Core &core() { return chip_.core(0); }
    MemorySystem &memsys() { return chip_.memsys(); }
    MemoryImage &image() { return chip_.image(0); }
    const MachineConfig &config() const { return chip_.config(); }
    const Program &program() const { return program_; }
    Watchdog &watchdog() { return chip_.watchdog(0); }

    /** Route structured pipeline + cache-fill events from the core and
     *  every hierarchy level into @p buf (null detaches everywhere). */
    void attachTraceBuffer(trace::TraceBuffer *buf)
    {
        chip_.attachTraceBuffer(buf);
    }

    /** Attach a process-chaos monitor (see Cmp::setChaosMonitor).
     *  Null detaches. */
    void setChaosMonitor(ChaosMonitor *monitor)
    {
        chip_.setChaosMonitor(monitor);
    }

  private:
    RunResult harvest();

    const Program &program_;
    Cmp chip_;
};

/**
 * Convenience: build the preset, generate nothing (caller supplies the
 * program), run, and return metrics.
 */
RunResult runOn(const std::string &preset, const Program &program,
                std::uint64_t max_cycles = 500'000'000);

} // namespace sst

#endif // SSTSIM_SIM_MACHINE_HH
