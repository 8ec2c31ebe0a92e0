/**
 * @file
 * The sweep supervisor: runs a sweep's jobs in forked child processes
 * under the Broker's lease policy, and prints the final scoreboard.
 *
 * serveSweep() forks one child per leased job, at most
 * ServeOptions::spawnWorkers at a time. A child already holds the
 * expanded SweepSpec (it is a copy of this process), runs exactly one
 * job through exp::runJob and leaves with _exit. Its stdout/stderr go
 * to "<artifactDir>/worker-<slot>.log". While the job runs, the child
 * writes one byte to its own pipe every leaseTimeoutMs/3; the parent
 * poll()s those pipes and feeds each byte to Broker::heartbeat.
 *
 * The record file is the result channel. When the parent reaps a
 * child (whatever its exit status), it reads "<artifactDir>/job-N.json":
 * a record that passes exp::outcomeFromRecord is the job's result, and
 * anything else counts as the worker dying with its lease. An expired
 * lease gets its child SIGKILLed and reaped.
 *
 * Crash-safety contract: exp::runJob writes every record atomically
 * (fsynced) before the child exits, and in-flight jobs leave periodic
 * checkpoints that the next attempt resumes from. Killing a child, or
 * the whole sweep, at any point therefore loses at most the work since
 * the last checkpoint, and a re-run with --resume picks up exactly
 * where the artifacts say it stopped, producing byte-identical
 * aggregate output.
 */

#ifndef SSTSIM_SVC_SERVER_HH
#define SSTSIM_SVC_SERVER_HH

#include <cstdint>
#include <string>

#include "exp/sweep.hh"
#include "svc/broker.hh"

namespace sst::svc
{

/** Test chaos armed in a child, keyed to the lease attempt it runs. */
struct WorkerChaos
{
    /** Kill the child (SIGKILL) at this simulated cycle (0 = off)... */
    std::uint64_t killCycle = 0;
    /** ...but only on the job's Nth lease attempt. With the default
     *  of 1 the retry (attempt 2) runs clean, so one flag models "die
     *  once, then recover". */
    unsigned killAttempt = 1;
    /** Stall the child (mute heartbeats and sleep stallMs) at this
     *  simulated cycle, forcing a lease timeout (0 = off). */
    std::uint64_t stallCycle = 0;
    unsigned stallMs = 0;
    unsigned stallAttempt = 1;
};

/** Configuration of one serveSweep() invocation. */
struct ServeOptions
{
    /** Artifact directory (records, checkpoints, worker logs);
     *  required — the records are how children report results. */
    std::string artifactDir;
    std::uint64_t snapEvery = 0;
    /** Profile-library cache for sampled sweeps (see
     *  exp::SweepRunOptions::profileCache). */
    std::string profileCache;
    /** Most child processes alive at once. */
    unsigned spawnWorkers = 1;
    /** Aggregate JSON output path ("" = none). */
    std::string jsonPath;
    bool quiet = false;
    BrokerOptions broker;
    WorkerChaos chaos;
};

/**
 * Run every job of @p spec until each is Done or Quarantined. Records
 * already in the artifact directory are resumed, never re-run.
 * @return the sweep exit code (quarantine folds in as
 * exit_code::quarantine, a failed fork or pipe as svcFailure).
 */
int serveSweep(const exp::SweepSpec &spec, const ServeOptions &options);

} // namespace sst::svc

#endif // SSTSIM_SVC_SERVER_HH
