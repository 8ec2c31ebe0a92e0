#include "fault/chaos.hh"

#include <ctime>

#include "common/logging.hh"

namespace sst
{

void
ChaosMonitor::scheduleExit(Cycle c, int signal)
{
    params_.exitAtCycle = c;
    params_.exitSignal = signal;
}

void
ChaosMonitor::scheduleStall(Cycle c, unsigned ms)
{
    params_.stallAtCycle = c;
    params_.stallMs = ms;
}

void
ChaosMonitor::observe(Cycle now)
{
    if (params_.stallAtCycle && !stallFired_
        && now >= params_.stallAtCycle) {
        // Mute first, then hang: the heartbeat thread must fall silent
        // for the whole stall so the broker's lease timeout can fire.
        stallFired_ = true;
        muted_.store(true, std::memory_order_relaxed);
        struct timespec ts;
        ts.tv_sec = params_.stallMs / 1000;
        ts.tv_nsec = static_cast<long>(params_.stallMs % 1000) * 1'000'000;
        while (nanosleep(&ts, &ts) != 0) {
        }
    }
    if (params_.exitAtCycle && now >= params_.exitAtCycle) {
        // Modelled worker crash: no unwinding, no atexit, no flush —
        // exactly what a kill -9 mid-job looks like to the broker.
        std::raise(params_.exitSignal);
    }
}

} // namespace sst
