#include "svc/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "exp/runner.hh"
#include "fault/chaos.hh"

namespace sst::svc
{

namespace
{

std::uint64_t
steadyMs()
{
    using namespace std::chrono;
    return static_cast<std::uint64_t>(
        duration_cast<milliseconds>(
            steady_clock::now().time_since_epoch())
            .count());
}

/** One live child: the job it leased and its heartbeat pipe. */
struct Child
{
    pid_t pid = -1;
    unsigned slot = 0; ///< log-file suffix, < spawnWorkers
    int worker = -1;   ///< broker id (one per child)
    std::size_t job = 0;
    int beatFd = -1; ///< read end of the heartbeat pipe
};

/**
 * The child's whole life: log to "<artifactDir>/worker-<slot>.log",
 * arm chaos for this attempt, heartbeat @p beatFd from a helper thread
 * while exp::runJob runs (and writes the record), then _exit. Never
 * returns.
 */
[[noreturn]] void
runChild(const exp::SweepSpec &spec, const exp::JobSpec &job,
         unsigned attempt, unsigned slot, int beatFd,
         const ServeOptions &options)
{
    std::string logPath = options.artifactDir + "/worker-"
                          + std::to_string(slot) + ".log";
    int logFd = ::open(logPath.c_str(),
                       O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (logFd >= 0) {
        ::dup2(logFd, 1);
        ::dup2(logFd, 2);
        ::close(logFd);
    }
    std::printf("worker w%u (pid %d): job #%zu (%s/%s) attempt %u\n",
                slot, static_cast<int>(::getpid()), job.index,
                job.preset.c_str(), job.workload.c_str(), attempt);
    std::fflush(stdout);

    ChaosMonitor chaos;
    const WorkerChaos &wc = options.chaos;
    if (wc.killCycle && attempt == wc.killAttempt)
        chaos.scheduleExit(wc.killCycle, SIGKILL);
    if (wc.stallCycle && attempt == wc.stallAttempt)
        chaos.scheduleStall(wc.stallCycle, wc.stallMs);

    exp::SweepRunOptions run;
    run.jobs = 1;
    run.artifactDir = options.artifactDir;
    run.snapEvery = options.snapEvery;
    // A re-leased job resumes from the checkpoint its previous attempt
    // left behind instead of restarting from cycle 0.
    run.resume = true;
    run.chaos = &chaos;
    run.profileCache = options.profileCache;

    const auto beatPeriod = std::chrono::milliseconds(
        std::max<std::uint64_t>(options.broker.leaseTimeoutMs / 3, 1));
    std::mutex mutex;
    std::condition_variable wake;
    bool finished = false; // guarded by mutex
    std::thread beats([&] {
        std::unique_lock<std::mutex> lock(mutex);
        while (!wake.wait_for(lock, beatPeriod, [&] { return finished; }))
            if (!chaos.muted())
                [[maybe_unused]] auto n = ::write(beatFd, "h", 1);
    });
    exp::runJob(spec, job, run);
    {
        std::lock_guard<std::mutex> lock(mutex);
        finished = true;
    }
    wake.notify_one();
    beats.join();

    std::fflush(nullptr);
    ::_exit(exit_code::ok);
}

/**
 * Whatever the child's exit status, its record file decides: a record
 * that belongs to this job is the result; anything else is a worker
 * that died holding its lease (a no-op when the lease already
 * expired).
 */
void
settleChild(Broker &broker, const std::vector<exp::JobSpec> &jobs,
            const ServeOptions &options, const Child &child, int status)
{
    ::close(child.beatFd);
    if (WIFSIGNALED(status) && !options.quiet)
        inform("serve: worker w%u killed by signal %d", child.slot,
               WTERMSIG(status));
    const exp::JobSpec &job = jobs[child.job];
    const std::uint64_t now = steadyMs();
    std::ifstream in(exp::jobRecordPath(options.artifactDir, job.index));
    if (in) {
        std::stringstream ss;
        ss << in.rdbuf();
        exp::JobOutcome probe;
        if (exp::outcomeFromRecord(job, ss.str(), probe)) {
            broker.result(child.worker, child.job, ss.str(), now);
            return;
        }
    }
    broker.workerLeft(child.worker, now);
}

/** Drain @p fd; @return whether anything arrived, and set @p eof once
 *  every write end is closed (the child exited). */
bool
drainBeats(int fd, bool &eof)
{
    bool beat = false;
    char buf[64];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) {
            beat = true;
            continue;
        }
        if (n == 0)
            eof = true;
        else if (errno == EINTR)
            continue;
        return beat;
    }
}

void
printScoreboard(const Scoreboard &b)
{
    std::printf("service scoreboard: %zu jobs | %zu resumed | "
                "%zu completed | %zu retries | %zu timeouts | "
                "%zu worker deaths | %zu quarantined\n",
                b.total, b.resumed, b.completed, b.retries, b.timeouts,
                b.workerDeaths, b.quarantined);
}

} // namespace

int
serveSweep(const exp::SweepSpec &spec, const ServeOptions &options)
{
    if (options.artifactDir.empty()) {
        warn("serve: an artifact directory is required");
        return exit_code::usage;
    }
    std::error_code ec;
    std::filesystem::create_directories(options.artifactDir, ec);
    if (ec) {
        warn("serve: cannot create artifact directory '%s': %s",
             options.artifactDir.c_str(), ec.message().c_str());
        return exit_code::badInput;
    }
    if (spec.sample) {
        // Sampled sweeps share one snapshot-library cache across every
        // child (exp::resolveProfileCache lands here for each of
        // them); create it up front so the first concurrent populators
        // only race on members, never on the directory itself.
        exp::SweepRunOptions probe;
        probe.artifactDir = options.artifactDir;
        probe.profileCache = options.profileCache;
        std::string cache = exp::resolveProfileCache(spec, probe);
        std::filesystem::create_directories(cache, ec);
        if (ec)
            warn("serve: cannot create profile cache '%s': %s",
                 cache.c_str(), ec.message().c_str());
        else if (!options.quiet)
            inform("serve: sampled sweep; shared profile cache at '%s'",
                   cache.c_str());
    }

    const std::vector<exp::JobSpec> jobs = spec.expand();
    exp::ResultSink sink(jobs.size());
    std::vector<char> done(jobs.size(), 0);
    exp::loadFinishedRecords(jobs, options.artifactDir, sink, done);

    Broker broker(jobs, options.broker, sink, done);
    const unsigned slots = std::max(options.spawnWorkers, 1u);
    std::vector<Child> live;
    // A broker id joined for a slot but not yet granted a lease; kept
    // so a "wait" answer does not register a new worker every poll.
    std::vector<int> spare(slots, -1);
    bool infraFailed = false;

    auto reap = [&](std::size_t c, bool kill) {
        int status = 0;
        if (kill)
            ::kill(live[c].pid, SIGKILL);
        while (::waitpid(live[c].pid, &status, 0) < 0 && errno == EINTR) {
        }
        settleChild(broker, jobs, options, live[c], status);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(c));
    };

    while (!broker.finished() || !live.empty()) {
        // Fill free slots with newly leased jobs.
        while (!infraFailed && live.size() < slots) {
            unsigned slot = 0;
            while (std::any_of(live.begin(), live.end(),
                               [&](const Child &c) {
                                   return c.slot == slot;
                               }))
                ++slot;
            std::uint64_t now = steadyMs();
            if (spare[slot] < 0)
                spare[slot] = broker.workerJoined(
                    "w" + std::to_string(slot), now);
            auto d = broker.lease(spare[slot], now);
            if (d.kind != Broker::LeaseDecision::Kind::Grant)
                break;
            Child child;
            child.slot = slot;
            child.worker = spare[slot];
            child.job = d.job;
            spare[slot] = -1;

            int fds[2];
            if (::pipe(fds) != 0) {
                warn("serve: pipe failed: %s", std::strerror(errno));
                broker.workerLeft(child.worker, now);
                infraFailed = true;
                break;
            }
            // No buffered output may be written twice (once per
            // process) after the fork.
            std::fflush(nullptr);
            pid_t pid = ::fork();
            if (pid == 0) {
                // Drop every read end, so this child's pipe and its
                // siblings' each keep the supervisor as sole reader.
                ::close(fds[0]);
                for (const Child &c : live)
                    ::close(c.beatFd);
                runChild(spec, jobs[d.job], d.attempt, slot, fds[1],
                         options);
            }
            ::close(fds[1]);
            if (pid < 0) {
                warn("serve: fork failed: %s", std::strerror(errno));
                ::close(fds[0]);
                broker.workerLeft(child.worker, now);
                infraFailed = true;
                break;
            }
            ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
            child.pid = pid;
            child.beatFd = fds[0];
            live.push_back(child);
        }
        if (infraFailed)
            break;

        std::vector<pollfd> fds;
        for (const Child &c : live)
            fds.push_back({c.beatFd, POLLIN, 0});
        std::uint64_t now = steadyMs();
        std::uint64_t deadline = broker.nextDeadline(now);
        int timeout = 200;
        if (deadline > now)
            timeout = static_cast<int>(
                std::min<std::uint64_t>(deadline - now, 200));
        if (::poll(fds.data(), fds.size(), timeout) < 0
            && errno != EINTR) {
            warn("serve: poll: %s", std::strerror(errno));
            infraFailed = true;
            break;
        }

        // Heartbeats; a closed pipe means the child exited. `fds` is
        // index-aligned with `live`, so walk both back to front.
        now = steadyMs();
        for (std::size_t c = live.size(); c-- > 0;) {
            if (!fds[c].revents)
                continue;
            bool eof = false;
            if (drainBeats(live[c].beatFd, eof))
                broker.heartbeat(live[c].worker, live[c].job, now);
            if (eof)
                reap(c, false);
        }

        // Expired leases: their children are hung; kill and reap them.
        broker.checkTimeouts(steadyMs());
        for (std::size_t c = live.size(); c-- > 0;)
            if (!broker.holdsLease(live[c].worker))
                reap(c, true);
    }

    // Only an infrastructure failure leaves children behind.
    while (!live.empty())
        reap(live.size() - 1, true);

    // Jobs that never completed (infrastructure failure) still get a
    // record so the aggregate output names every job.
    if (infraFailed)
        for (std::size_t i = 0; i < jobs.size(); ++i)
            if (!sink.has(i))
                sink.tryRecord(exp::unrunOutcome(
                    jobs[i], "experiment service aborted before this "
                             "job could run"));

    if (!options.jsonPath.empty()) {
        std::ofstream out(options.jsonPath);
        if (!out) {
            warn("serve: cannot write '%s'", options.jsonPath.c_str());
            return exit_code::badInput;
        }
        out << exp::sweepJson(spec, sink);
        if (!options.quiet)
            std::printf("wrote %s (%zu records)\n",
                        options.jsonPath.c_str(),
                        sink.outcomes().size());
    }

    if (!options.quiet) {
        printScoreboard(broker.scoreboard());
        exp::aggregateTable(spec, sink).print();
        if (!spec.baseline.empty())
            exp::baselineTable(spec, sink).print();
    }

    return infraFailed ? exit_code::svcFailure : broker.exitCode();
}

} // namespace sst::svc
