/**
 * @file
 * Tests for the experiment service (src/svc), mostly of the broker
 * state machine driven with a manual clock: lease grant order,
 * heartbeat extension, timeout reclaim with exponential backoff,
 * quarantine after the attempt budget, worker death, late/duplicate
 * results, and invalid-record rejection. The broker takes every
 * timestamp as a parameter precisely so these tests never sleep. The
 * supervisor that forks the workers is covered end to end by
 * scripts/chaos_smoke.sh and scripts/supervisor_faults.sh.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/result.hh"
#include "exp/json.hh"
#include "exp/runner.hh"
#include "exp/sweep.hh"
#include "fault/chaos.hh"
#include "svc/broker.hh"

using namespace sst;
using namespace sst::svc;

// --------------------------------------------------------------- broker

namespace
{

/** A tiny two-job matrix (one preset, two repeats). */
std::vector<exp::JobSpec>
twoJobs()
{
    auto spec = exp::SweepSpec::parse(
                    "preset = sst2\nworkload = stream\n"
                    "sweep.repeats = 2\n",
                    "unit")
                    .take();
    return spec.expand();
}

/** A manifest-valid record for @p job (identity matches, ran=false). */
std::string
validRecord(const exp::JobSpec &job)
{
    return exp::unrunOutcome(job, "made by the test").recordJson;
}

/** Fixture wiring a broker over twoJobs() with a manual clock. */
struct BrokerTest : ::testing::Test
{
    BrokerTest()
        : jobs(twoJobs()), sink(jobs.size()), done(jobs.size(), 0)
    {
        options.leaseTimeoutMs = 1000;
        options.maxAttempts = 3;
        options.backoffBaseMs = 100;
        options.backoffFactor = 2.0;
        options.backoffMaxMs = 8000;
    }

    Broker &broker()
    {
        if (!broker_)
            broker_ = std::make_unique<Broker>(jobs, options, sink,
                                               done);
        return *broker_;
    }

    std::vector<exp::JobSpec> jobs;
    BrokerOptions options;
    exp::ResultSink sink;
    std::vector<char> done;
    std::unique_ptr<Broker> broker_;
};

} // namespace

TEST_F(BrokerTest, LeasesLowestPendingIndexFirstThenWaits)
{
    Broker &b = broker();
    int w0 = b.workerJoined("w0", 0);
    int w1 = b.workerJoined("w1", 0);
    auto d0 = b.lease(w0, 0);
    ASSERT_EQ(d0.kind, Broker::LeaseDecision::Kind::Grant);
    EXPECT_EQ(d0.job, 0u);
    EXPECT_EQ(d0.attempt, 1u);
    auto d1 = b.lease(w1, 0);
    ASSERT_EQ(d1.kind, Broker::LeaseDecision::Kind::Grant);
    EXPECT_EQ(d1.job, 1u);
    // Matrix exhausted but not finished: a third worker must wait.
    int w2 = b.workerJoined("w2", 0);
    auto d2 = b.lease(w2, 0);
    EXPECT_EQ(d2.kind, Broker::LeaseDecision::Kind::Wait);
    EXPECT_GT(d2.waitMs, 0u);
    EXPECT_FALSE(b.finished());
}

TEST_F(BrokerTest, ResultCompletesJobAndFinishesSweep)
{
    Broker &b = broker();
    int w = b.workerJoined("w0", 0);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        auto d = b.lease(w, 10);
        ASSERT_EQ(d.kind, Broker::LeaseDecision::Kind::Grant);
        b.result(w, d.job, validRecord(jobs[d.job]), 20);
    }
    EXPECT_TRUE(b.finished());
    EXPECT_EQ(b.lease(w, 30).kind,
              Broker::LeaseDecision::Kind::Finished);
    EXPECT_EQ(b.scoreboard().completed, 2u);
    EXPECT_EQ(b.scoreboard().retries, 0u);
    EXPECT_EQ(sink.recorded(), 2u);
}

TEST_F(BrokerTest, HeartbeatExtendsLeaseTimeoutReclaims)
{
    Broker &b = broker();
    int w = b.workerJoined("w0", 0);
    auto d = b.lease(w, 0);
    ASSERT_EQ(d.kind, Broker::LeaseDecision::Kind::Grant);

    // Heartbeats at 600 and 1200 keep a 1000 ms lease alive past its
    // original expiry...
    b.heartbeat(w, d.job, 600);
    EXPECT_EQ(b.checkTimeouts(1100), 0u);
    b.heartbeat(w, d.job, 1200);
    EXPECT_EQ(b.checkTimeouts(2100), 0u);
    // ...but silence eventually kills it.
    EXPECT_EQ(b.checkTimeouts(2300), 1u);
    EXPECT_EQ(b.scoreboard().timeouts, 1u);
}

TEST_F(BrokerTest, TimeoutRetriesWithExponentialBackoff)
{
    Broker &b = broker();
    int w = b.workerJoined("w0", 0);
    // Burn attempt 1 of job 0 via timeout.
    ASSERT_EQ(b.lease(w, 0).job, 0u);
    EXPECT_EQ(b.checkTimeouts(1001), 1u);

    // Job 0 sits behind a 100 ms backoff gate; job 1 is free now, so
    // lease order flips: job 1 first, then Wait until the gate opens.
    auto d1 = b.lease(w, 1001);
    ASSERT_EQ(d1.kind, Broker::LeaseDecision::Kind::Grant);
    EXPECT_EQ(d1.job, 1u);
    int w2 = b.workerJoined("w2", 1001);
    auto gated = b.lease(w2, 1001);
    ASSERT_EQ(gated.kind, Broker::LeaseDecision::Kind::Wait);
    EXPECT_LE(gated.waitMs, 100u);
    EXPECT_EQ(b.nextDeadline(1001), 1101u) << "backoff gate deadline";

    auto retry = b.lease(w2, 1101);
    ASSERT_EQ(retry.kind, Broker::LeaseDecision::Kind::Grant);
    EXPECT_EQ(retry.job, 0u);
    EXPECT_EQ(retry.attempt, 2u);
    EXPECT_EQ(b.scoreboard().retries, 1u);

    // Attempt 2's failure doubles the gate: 200 ms this time.
    b.workerLeft(w2, 1200);
    EXPECT_EQ(b.nextDeadline(1200), 1400u);
}

TEST_F(BrokerTest, QuarantineAfterAttemptBudgetWithSyntheticRecord)
{
    Broker &b = broker();
    std::uint64_t now = 0;
    for (unsigned attempt = 1; attempt <= options.maxAttempts;
         ++attempt) {
        // One child per attempt, dying with its lease, as a poisoned
        // job's children do under the supervisor.
        int w = b.workerJoined("w" + std::to_string(attempt), now);
        auto d = b.lease(w, now);
        ASSERT_EQ(d.kind, Broker::LeaseDecision::Kind::Grant);
        ASSERT_EQ(d.job, 0u);
        EXPECT_EQ(d.attempt, attempt);
        b.workerLeft(w, now + 1);
        now += 10000; // past any backoff gate
    }
    EXPECT_EQ(b.scoreboard().quarantined, 1u);
    // No fourth lease for job 0: the next grant is job 1.
    int w = b.workerJoined("w0", now);
    EXPECT_EQ(b.lease(w, now).job, 1u);
    // The sink got a synthetic ran=false record naming the failure.
    ASSERT_TRUE(sink.has(0));
    const exp::JobOutcome &out = sink.outcomes()[0];
    EXPECT_FALSE(out.ran);
    EXPECT_NE(out.error.find("quarantined after 3 attempts"),
              std::string::npos)
        << out.error;
    EXPECT_NE(out.error.find("died holding the lease"), std::string::npos)
        << out.error;
    EXPECT_EQ(b.exitCode(), exit_code::quarantine);
}

TEST_F(BrokerTest, WorkerDeathReleasesItsLease)
{
    Broker &b = broker();
    int w0 = b.workerJoined("w0", 0);
    int w1 = b.workerJoined("w1", 0);
    ASSERT_EQ(b.lease(w0, 0).job, 0u);
    b.workerLeft(w0, 50);
    EXPECT_EQ(b.scoreboard().workerDeaths, 1u);
    // Job 0 comes back (behind its backoff gate) to the survivor.
    auto d = b.lease(w1, 5000);
    ASSERT_EQ(d.kind, Broker::LeaseDecision::Kind::Grant);
    EXPECT_EQ(d.job, 0u);
    EXPECT_EQ(d.attempt, 2u);
    // A worker that never held a lease leaves without side effects.
    int w2 = b.workerJoined("w2", 5000);
    b.workerLeft(w2, 5001);
    EXPECT_EQ(b.scoreboard().workerDeaths, 1u);
}

TEST_F(BrokerTest, LateResultFromReassignedLeaseStillCounts)
{
    Broker &b = broker();
    int w0 = b.workerJoined("w0", 0);
    ASSERT_EQ(b.lease(w0, 0).job, 0u);
    // w0 goes quiet; the lease times out and moves to w1.
    EXPECT_EQ(b.checkTimeouts(1001), 1u);
    int w1 = b.workerJoined("w1", 1001);
    ASSERT_EQ(b.lease(w1, 5000).job, 0u);
    // w0 was only stalled, not dead: its (deterministic, therefore
    // equally valid) result lands first and completes the job.
    b.result(w0, 0, validRecord(jobs[0]), 5100);
    ASSERT_TRUE(sink.has(0));
    EXPECT_EQ(b.scoreboard().completed, 1u);
    // w1's duplicate for the now-Done job is ignored.
    b.result(w1, 0, validRecord(jobs[0]), 6000);
    EXPECT_EQ(b.scoreboard().completed, 1u);
    EXPECT_EQ(sink.recorded(), 1u);
}

TEST_F(BrokerTest, InvalidRecordCountsAsFailedAttempt)
{
    Broker &b = broker();
    int w = b.workerJoined("w0", 0);
    ASSERT_EQ(b.lease(w, 0).job, 0u);
    // Torn write: not even JSON.
    b.result(w, 0, "{\"index\": 0, \"pres", 10);
    EXPECT_FALSE(sink.has(0));
    EXPECT_EQ(b.scoreboard().completed, 0u);
    // Identity mismatch: a record for some other manifest's job.
    auto d = b.lease(w, 5000);
    ASSERT_EQ(d.job, 0u);
    ASSERT_EQ(d.attempt, 2u);
    exp::JobSpec impostor = jobs[0];
    impostor.preset = "inorder";
    b.result(w, 0, validRecord(impostor), 5010);
    EXPECT_FALSE(sink.has(0));
    // Third attempt with a good record succeeds.
    auto d3 = b.lease(w, 20000);
    ASSERT_EQ(d3.attempt, 3u);
    b.result(w, 0, validRecord(jobs[0]), 20010);
    EXPECT_TRUE(sink.has(0));
}

TEST_F(BrokerTest, ResumedJobsAreNeverLeased)
{
    done[0] = 1;
    sink.record(exp::unrunOutcome(jobs[0], "resumed from disk"));
    Broker &b = broker();
    EXPECT_EQ(b.scoreboard().resumed, 1u);
    int w = b.workerJoined("w0", 0);
    auto d = b.lease(w, 0);
    ASSERT_EQ(d.kind, Broker::LeaseDecision::Kind::Grant);
    EXPECT_EQ(d.job, 1u);
    b.result(w, 1, validRecord(jobs[1]), 10);
    EXPECT_TRUE(b.finished());
    EXPECT_EQ(b.scoreboard().completed, 1u);
}

TEST_F(BrokerTest, HeartbeatFromNonOwnerDoesNotExtendLease)
{
    Broker &b = broker();
    int w0 = b.workerJoined("w0", 0);
    int w1 = b.workerJoined("w1", 0);
    ASSERT_EQ(b.lease(w0, 0).job, 0u);
    // A confused (or stale) worker heartbeats a job it does not own;
    // the real owner's silence must still expire the lease on time.
    b.heartbeat(w1, 0, 900);
    EXPECT_EQ(b.checkTimeouts(1001), 1u);
}

// ------------------------------------------------------------ ResultSink

TEST(SvcResultSink, TryRecordIsFirstWriteWins)
{
    auto jobs = twoJobs();
    exp::ResultSink sink(jobs.size());
    EXPECT_FALSE(sink.has(0));
    exp::JobOutcome first = exp::unrunOutcome(jobs[0], "first");
    exp::JobOutcome second = exp::unrunOutcome(jobs[0], "second");
    EXPECT_TRUE(sink.tryRecord(first));
    EXPECT_TRUE(sink.has(0));
    EXPECT_FALSE(sink.tryRecord(second)) << "duplicate must be dropped";
    EXPECT_EQ(sink.outcomes()[0].error, "first");
    EXPECT_EQ(sink.recorded(), 1u);
}

// ----------------------------------------------------------------- chaos

TEST(SvcChaos, StallMutesHeartbeatsAndTracksProgress)
{
    ChaosMonitor chaos;
    chaos.scheduleStall(100, 1);
    chaos.observe(50);
    EXPECT_FALSE(chaos.muted());
    chaos.observe(150);
    EXPECT_TRUE(chaos.muted()) << "stall must mute heartbeats";
}

TEST(SvcChaosDeathTest, ScheduledExitKillsTheProcess)
{
    EXPECT_EXIT(
        {
            ChaosMonitor chaos;
            chaos.scheduleExit(1000, SIGKILL);
            chaos.observe(999);  // before the trigger: survives
            chaos.observe(1000); // at the trigger: raises SIGKILL
            std::fprintf(stderr, "unreachable\n");
        },
        ::testing::KilledBySignal(SIGKILL), "");
}
