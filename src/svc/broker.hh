/**
 * @file
 * The sweep broker: owns the expanded job matrix and hands out leases.
 *
 * The broker is a *pure state machine* — it never touches sockets,
 * clocks or processes. Every entry point takes the current time in
 * milliseconds as a parameter, so unit tests drive it with a manual
 * clock and exercise lease expiry, retry backoff and quarantine
 * without sleeping. The sweep supervisor (server.hh) is a thin shell
 * that feeds it real time, heartbeats and reaped children.
 *
 * Job lifecycle:
 *
 *            lease            result
 *   Pending ───────▶ Leased ─────────▶ Done
 *      ▲               │
 *      │ timeout /     │ attempts exhausted
 *      │ worker death  ▼
 *      └──────────  Quarantined
 *        (backoff)
 *
 * Attempts are counted at lease *grant*. A lease ends in exactly one
 * of: a result (Done), an invalid record / worker death / heartbeat
 * timeout (back to Pending after an exponential backoff, or
 * Quarantined once the attempt budget is spent). Late results from a
 * worker whose lease was already reassigned are still accepted if the
 * job is not Done — work is deterministic, so the record is equally
 * valid no matter who produced it; a second result for a Done job is
 * ignored. Quarantined jobs produce a synthetic ran=false record so
 * the sweep's aggregate output stays complete.
 */

#ifndef SSTSIM_SVC_BROKER_HH
#define SSTSIM_SVC_BROKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "exp/sweep.hh"

namespace sst::svc
{

/** Lease/retry policy knobs. */
struct BrokerOptions
{
    /** Lease expires this long after grant / last heartbeat. */
    std::uint64_t leaseTimeoutMs = 15'000;
    /** Lease grants per job before quarantine. */
    unsigned maxAttempts = 3;
    /** Exponential backoff before re-leasing a failed job:
     *  min(base * factor^(attempt-1), max). */
    std::uint64_t backoffBaseMs = 250;
    double backoffFactor = 2.0;
    std::uint64_t backoffMaxMs = 8'000;
};

/** Final tallies for the scoreboard. */
struct Scoreboard
{
    std::size_t total = 0;       ///< jobs in the matrix
    std::size_t resumed = 0;     ///< finished records found on disk
    std::size_t completed = 0;   ///< results received this run
    std::size_t retries = 0;     ///< lease grants beyond first attempts
    std::size_t quarantined = 0; ///< jobs that exhausted the budget
    std::size_t timeouts = 0;    ///< leases reclaimed by expiry
    std::size_t workerDeaths = 0;///< leases reclaimed by disconnect
};

class Broker
{
  public:
    /** What lease() decided. */
    struct LeaseDecision
    {
        enum class Kind
        {
            Grant,   ///< run `job` (attempt number in `attempt`)
            Wait,    ///< nothing leasable; ask again in `waitMs`
            Finished ///< every job is Done or Quarantined
        };
        Kind kind = Kind::Wait;
        std::size_t job = 0;
        unsigned attempt = 0;
        std::uint64_t waitMs = 0;
    };

    /**
     * @p jobs is the manifest expansion; @p done flags jobs already
     * finished on disk (from exp::loadFinishedRecords — their outcomes
     * must already be in @p sink). @p sink collects everything else as
     * results arrive. Both must outlive the broker.
     */
    Broker(const std::vector<exp::JobSpec> &jobs,
           const BrokerOptions &options, exp::ResultSink &sink,
           const std::vector<char> &done);

    /** A worker connected; @return its id for subsequent calls. */
    int workerJoined(const std::string &name, std::uint64_t nowMs);

    /** A worker disconnected or died; its lease (if any) is released
     *  for retry or quarantined. */
    void workerLeft(int worker, std::uint64_t nowMs);

    /** Grant work to @p worker (which must hold no live lease). */
    LeaseDecision lease(int worker, std::uint64_t nowMs);

    /** Keep-alive for @p worker's lease on @p job; ignored when the
     *  lease moved on (late heartbeat after a reassignment). */
    void heartbeat(int worker, std::size_t job, std::uint64_t nowMs);

    /**
     * A finished record arrived. Validates identity against the
     * manifest before accepting; a corrupt or mismatching record
     * counts as a failed attempt instead. Accepted records release
     * the lease and mark the job Done.
     */
    void result(int worker, std::size_t job, const std::string &record,
                std::uint64_t nowMs);

    /** Expire overdue leases; call periodically. @return the number
     *  of leases reclaimed. */
    std::size_t checkTimeouts(std::uint64_t nowMs);

    /** True while @p worker holds a live lease (false once it
     *  expired, ended or was never granted). */
    bool holdsLease(int worker) const;

    /** True once every job is Done or Quarantined. */
    bool finished() const;

    /** Next deadline (lease expiry or backoff release) at or after
     *  @p nowMs, for the server's poll timeout; 0 when idle. */
    std::uint64_t nextDeadline(std::uint64_t nowMs) const;

    const Scoreboard &scoreboard() const { return board_; }

    /** Worst sweep exit code, folding quarantine in. */
    int exitCode() const;

  private:
    enum class JobState
    {
        Pending,
        Leased,
        Done,
        Quarantined
    };

    struct JobInfo
    {
        JobState state = JobState::Pending;
        unsigned attempts = 0;       ///< lease grants so far
        std::uint64_t notBeforeMs = 0; ///< backoff gate when Pending
        int owner = -1;              ///< worker id when Leased
        std::uint64_t deadlineMs = 0;  ///< lease expiry when Leased
        std::string lastError;       ///< most recent failure reason
    };

    /** Release job @p i's lease after a failure: back to Pending with
     *  backoff, or Quarantined when the budget is gone. */
    void releaseForRetry(std::size_t i, const std::string &why,
                         std::uint64_t nowMs);

    std::uint64_t backoffMs(unsigned attempts) const;

    const std::vector<exp::JobSpec> &jobs_;
    BrokerOptions options_;
    exp::ResultSink &sink_;
    std::vector<JobInfo> info_;
    std::vector<std::string> workerNames_;
    Scoreboard board_;
};

} // namespace sst::svc

#endif // SSTSIM_SVC_BROKER_HH
