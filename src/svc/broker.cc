#include "svc/broker.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace sst::svc
{

Broker::Broker(const std::vector<exp::JobSpec> &jobs,
               const BrokerOptions &options, exp::ResultSink &sink,
               const std::vector<char> &done)
    : jobs_(jobs), options_(options), sink_(sink), info_(jobs.size())
{
    panic_if(done.size() != jobs.size(),
             "done vector sized %zu for %zu jobs", done.size(),
             jobs.size());
    panic_if(options_.maxAttempts == 0, "maxAttempts must be >= 1");
    board_.total = jobs.size();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (done[i]) {
            info_[i].state = JobState::Done;
            ++board_.resumed;
        }
    }
}

int
Broker::workerJoined(const std::string &name, std::uint64_t nowMs)
{
    (void)nowMs;
    workerNames_.push_back(name);
    return static_cast<int>(workerNames_.size()) - 1;
}

void
Broker::workerLeft(int worker, std::uint64_t nowMs)
{
    for (std::size_t i = 0; i < info_.size(); ++i) {
        if (info_[i].state == JobState::Leased
            && info_[i].owner == worker) {
            ++board_.workerDeaths;
            releaseForRetry(i, "worker '" + workerNames_[worker]
                                   + "' died holding the lease",
                            nowMs);
        }
    }
}

std::uint64_t
Broker::backoffMs(unsigned attempts) const
{
    double ms = static_cast<double>(options_.backoffBaseMs)
                * std::pow(options_.backoffFactor,
                           attempts > 0 ? attempts - 1 : 0);
    ms = std::min(ms, static_cast<double>(options_.backoffMaxMs));
    return static_cast<std::uint64_t>(ms);
}

void
Broker::releaseForRetry(std::size_t i, const std::string &why,
                        std::uint64_t nowMs)
{
    JobInfo &job = info_[i];
    job.owner = -1;
    job.deadlineMs = 0;
    job.lastError = why;
    if (job.attempts >= options_.maxAttempts) {
        job.state = JobState::Quarantined;
        ++board_.quarantined;
        std::string error = "quarantined after "
                            + std::to_string(job.attempts)
                            + " attempts; last failure: " + why;
        warn("job #%zu %s", jobs_[i].index, error.c_str());
        sink_.tryRecord(exp::unrunOutcome(jobs_[i], error));
        return;
    }
    job.state = JobState::Pending;
    job.notBeforeMs = nowMs + backoffMs(job.attempts);
}

Broker::LeaseDecision
Broker::lease(int worker, std::uint64_t nowMs)
{
    LeaseDecision d;
    if (finished()) {
        d.kind = LeaseDecision::Kind::Finished;
        return d;
    }
    // Lowest-index first keeps lease order deterministic given the
    // same request order, which makes the chaos tests reproducible.
    std::uint64_t earliest = 0;
    for (std::size_t i = 0; i < info_.size(); ++i) {
        JobInfo &job = info_[i];
        if (job.state != JobState::Pending)
            continue;
        if (job.notBeforeMs > nowMs) {
            if (!earliest || job.notBeforeMs < earliest)
                earliest = job.notBeforeMs;
            continue;
        }
        job.state = JobState::Leased;
        job.owner = worker;
        job.deadlineMs = nowMs + options_.leaseTimeoutMs;
        ++job.attempts;
        if (job.attempts > 1)
            ++board_.retries;
        d.kind = LeaseDecision::Kind::Grant;
        d.job = i;
        d.attempt = job.attempts;
        return d;
    }
    // Nothing leasable right now: either every remaining job is
    // leased elsewhere, or all pending ones sit in backoff.
    d.kind = LeaseDecision::Kind::Wait;
    d.waitMs = earliest > nowMs
                   ? earliest - nowMs
                   : std::max<std::uint64_t>(
                         options_.leaseTimeoutMs / 4, 50);
    return d;
}

void
Broker::heartbeat(int worker, std::size_t job, std::uint64_t nowMs)
{
    if (job >= info_.size())
        return;
    JobInfo &j = info_[job];
    if (j.state == JobState::Leased && j.owner == worker)
        j.deadlineMs = nowMs + options_.leaseTimeoutMs;
}

void
Broker::result(int worker, std::size_t job, const std::string &record,
               std::uint64_t nowMs)
{
    if (job >= info_.size()) {
        warn("result for job #%zu outside the matrix; ignored", job);
        return;
    }
    JobInfo &j = info_[job];
    if (j.state == JobState::Done)
        return; // duplicate/late result for finished work: harmless
    exp::JobOutcome out;
    std::string why;
    if (!exp::outcomeFromRecord(jobs_[job], record, out, &why)) {
        warn("worker sent an invalid record for job #%zu (%s)", job,
             why.c_str());
        if (j.state == JobState::Leased && j.owner == worker)
            releaseForRetry(job, "invalid record: " + why, nowMs);
        return;
    }
    // A late result from a reassigned (or quarantined) lease is as
    // good as any — jobs are deterministic.
    if (j.state == JobState::Quarantined)
        --board_.quarantined;
    j.state = JobState::Done;
    j.owner = -1;
    j.deadlineMs = 0;
    ++board_.completed;
    sink_.tryRecord(std::move(out));
}

std::size_t
Broker::checkTimeouts(std::uint64_t nowMs)
{
    std::size_t reclaimed = 0;
    for (std::size_t i = 0; i < info_.size(); ++i) {
        JobInfo &job = info_[i];
        if (job.state != JobState::Leased || job.deadlineMs > nowMs)
            continue;
        ++reclaimed;
        ++board_.timeouts;
        releaseForRetry(i, "lease timed out (no heartbeat from worker '"
                               + workerNames_[job.owner] + "')",
                        nowMs);
    }
    return reclaimed;
}

bool
Broker::holdsLease(int worker) const
{
    return std::any_of(info_.begin(), info_.end(),
                       [worker](const JobInfo &job) {
                           return job.state == JobState::Leased
                                  && job.owner == worker;
                       });
}

bool
Broker::finished() const
{
    for (const JobInfo &job : info_)
        if (job.state != JobState::Done
            && job.state != JobState::Quarantined)
            return false;
    return true;
}

std::uint64_t
Broker::nextDeadline(std::uint64_t nowMs) const
{
    std::uint64_t next = 0;
    auto consider = [&](std::uint64_t t) {
        if (t && (!next || t < next))
            next = t;
    };
    for (const JobInfo &job : info_) {
        if (job.state == JobState::Leased)
            consider(std::max(job.deadlineMs, nowMs));
        else if (job.state == JobState::Pending)
            consider(std::max(job.notBeforeMs, nowMs));
    }
    return next;
}

int
Broker::exitCode() const
{
    if (board_.quarantined)
        return exit_code::quarantine;
    return exp::sweepExitCode(sink_);
}

} // namespace sst::svc
