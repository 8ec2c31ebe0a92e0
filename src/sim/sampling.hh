/**
 * @file
 * Sampled simulation (SMARTS-style): alternate cheap functional
 * fast-forward — with cache warming — and detailed cycle-level sample
 * windows, then estimate whole-program IPC from the samples. Makes
 * full-length workloads tractable on the detailed core models.
 *
 * Methodology: the functional cursor and the detailed cores share one
 * MemoryImage and one CorePort, so cache/predictor state flows through
 * the whole run; each detailed window is a fresh core warm-started at
 * the cursor's architectural state and at the shared clock, so memory
 * busy-until state stays consistent across windows.
 */

#ifndef SSTSIM_SIM_SAMPLING_HH
#define SSTSIM_SIM_SAMPLING_HH

#include <vector>

#include "sim/machine.hh"

namespace sst
{

/** Sampling schedule. */
struct SampleParams
{
    /** Instructions per detailed window. */
    std::uint64_t detailInsts = 20'000;
    /** Instructions fast-forwarded (with warming) between windows. */
    std::uint64_t skipInsts = 80'000;
    /** Maximum number of detailed windows (0 = until program end). */
    unsigned maxSamples = 0;
    /** Cycles charged per warmed instruction during fast-forward
     *  (advances the shared clock so DRAM/bank state stays sane). */
    unsigned warmCpi = 2;
};

/** Outcome of a sampled run. */
struct SampledResult
{
    std::string preset;
    /** IPC estimate: committed insts over cycles, summed over windows. */
    double ipc = 0;
    /** Per-window IPCs (for confidence estimation). */
    std::vector<double> windowIpc;
    /** Per-window blending weights (instructions each window stands
     *  for). Empty for plain runSampled() runs, where every window
     *  weighs the same; parallel to windowIpc for library-served runs
     *  (sim/profile.hh). */
    std::vector<double> windowWeight;
    /** Instructions simulated in detail / skipped functionally. */
    std::uint64_t detailedInsts = 0;
    std::uint64_t skippedInsts = 0;
    /** Cache-warming accesses issued during fast-forward, and how many
     *  hit the L1. A healthy run has warmHits > 0: if warming silently
     *  stopped (e.g. every access rejected on full MSHRs), the detailed
     *  windows would start against a cold hierarchy and overestimate
     *  miss rates. */
    std::uint64_t warmAccesses = 0;
    std::uint64_t warmHits = 0;
    bool reachedEnd = false;

    /** Sample standard deviation of the window IPCs. */
    double ipcStddev() const;

    /** Half-width of the 95% confidence interval on the IPC estimate:
     *  1.96 · weighted stddev / sqrt(effective sample count). Uses
     *  windowWeight when present, equal weights otherwise; 0 with
     *  fewer than two windows. */
    double ipcCi95() const;
};

/**
 * Functional warming of one executed instruction: its memory access
 * (if any) goes to @p port at @p clock, then @p warmCpi cycles are
 * charged. A rejected access (MSHRs full) is re-issued at the port's
 * retry cycle, a bounded number of times. Counts the access into
 * @p accesses and an L1 hit into @p hits.
 */
void warmStep(CorePort &port, const StepInfo &info, unsigned warmCpi,
              Cycle &clock, std::uint64_t &accesses, std::uint64_t &hits);

/**
 * One detailed window: a fresh core warm-started at @p cursor and
 * @p clock runs until it halts, retires @p detailInsts instructions or
 * exhausts its cycle budget (fatal: the window made no progress).
 * @return the core, for the caller to read its counters and state.
 */
std::unique_ptr<Core> runDetailedWindow(const MachineConfig &config,
                                        const Program &program,
                                        MemoryImage &image, CorePort &port,
                                        const ArchState &cursor, Cycle clock,
                                        std::uint64_t detailInsts);

/**
 * Run @p program under @p config with the given sampling schedule.
 * @return the aggregate estimate. The program must halt.
 */
SampledResult runSampled(const MachineConfig &config,
                         const Program &program,
                         const SampleParams &params = {});

} // namespace sst

#endif // SSTSIM_SIM_SAMPLING_HH
