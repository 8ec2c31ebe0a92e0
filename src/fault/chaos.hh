/**
 * @file
 * Process-level chaos hooks for the experiment service.
 *
 * The fault injector (fault.hh) perturbs the *simulated* machine; this
 * monitor perturbs the *host process running it*, so the service's
 * crash-recovery machinery (lease timeouts, checkpoint re-lease,
 * poison-job quarantine) can be exercised deterministically. A sweep
 * child arms the monitor before running its job; the engine calls
 * observe() at every barrier, and at the first barrier at or after the
 * scheduled simulated cycle the monitor either kills the process
 * (modelling a crashed/SIGKILLed worker) or stalls it while muting
 * heartbeats (modelling a hung one).
 *
 * Keying chaos to a simulated cycle rather than wall clock is what
 * makes service chaos tests reproducible: the job state at the kill is
 * a pure function of (manifest, job, cycle), so a resumed sweep can be
 * byte-compared against an uninterrupted one.
 *
 * The `fault.chaos_exit_cycle` machine-config key feeds the same
 * monitor: it travels with a job's config, so *every* attempt of that
 * job kills its worker — a poison job. It is honoured only where a
 * monitor is attached (the supervisor's children); in-process sweeps
 * and plain runs ignore it, so a poison manifest cannot kill the
 * supervisor.
 */

#ifndef SSTSIM_FAULT_CHAOS_HH
#define SSTSIM_FAULT_CHAOS_HH

#include <atomic>
#include <csignal>
#include <cstdint>

#include "common/types.hh"

namespace sst
{

/** What to do to the host process, and at which simulated cycle. */
struct ChaosParams
{
    /** raise(exitSignal) at the first observed cycle >= this (0 = off). */
    Cycle exitAtCycle = 0;
    int exitSignal = SIGKILL;

    /** Sleep stallMs (wall clock) once at this cycle and mute
     *  heartbeats for the rest of the job (0 = off). */
    Cycle stallAtCycle = 0;
    unsigned stallMs = 0;
};

/**
 * Cycle-triggered process chaos. observe() runs on the simulation
 * thread; muted() is safe to read from the worker's heartbeat thread.
 */
class ChaosMonitor
{
  public:
    /** Schedule a process kill at simulated cycle @p c. */
    void scheduleExit(Cycle c, int signal = SIGKILL);

    /** Schedule a one-shot stall of @p ms milliseconds at cycle @p c;
     *  heartbeats stay muted afterwards (the worker looks dead). */
    void scheduleStall(Cycle c, unsigned ms);

    /** Called by the engine at every barrier with the chip clock. */
    void observe(Cycle now);

    /** True once the stall fired: the worker must stop heartbeating. */
    bool muted() const
    {
        return muted_.load(std::memory_order_relaxed);
    }

  private:
    ChaosParams params_;
    bool stallFired_ = false;
    std::atomic<bool> muted_{false};
};

} // namespace sst

#endif // SSTSIM_FAULT_CHAOS_HH
