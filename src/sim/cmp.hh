/**
 * @file
 * The simulation engine: N identical cores, private L1s, shared L2 +
 * DRAM — the CMP context the ROCK paper designs SST for (area-efficient
 * cores ⇒ more cores per die ⇒ more throughput). A single-core Machine
 * (sim/machine.hh) is a one-core chip, so this is the only run loop.
 */

#ifndef SSTSIM_SIM_CMP_HH
#define SSTSIM_SIM_CMP_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hh"
#include "core/core.hh"
#include "core/inorder.hh"
#include "core/ooo.hh"
#include "core/sst.hh"
#include "func/overlay.hh"
#include "isa/program.hh"
#include "mem/hierarchy.hh"
#include "sim/presets.hh"

namespace sst
{

class ChaosMonitor;

/** Why a run stopped short of committing HALT. */
enum class DegradeReason
{
    None,        ///< ran to completion
    CycleBudget, ///< max_cycles exhausted with retirement still flowing
    Livelock     ///< watchdog interventions exhausted with no progress
};

/** Human-readable name for a DegradeReason. */
const char *degradeReasonName(DegradeReason reason);

/**
 * No-retirement livelock detector with an escalating response, one per
 * core of the engine. When a core retires nothing for stallCycles, the
 * watchdog first asks the core to abandon speculation and make
 * non-speculative progress (degradeSpeculation — a recovery);
 * maxInterventions consecutive fruitless attempts declare livelock.
 */
class Watchdog
{
  public:
    Watchdog(const WatchdogParams &params, Core &core)
        : params_(params), core_(core)
    {
    }

    /** Observe one elapsed cycle. @return false on declared livelock. */
    bool observe();

    /**
     * Latest cycle a fast-forward skip may advance the core to without
     * changing this watchdog's behaviour. The cycle at
     * windowStart + stallCycles is where observe() would intervene, so
     * the run loop must reach it via a real tick+observe; every
     * no-retirement observe strictly before it is a no-op, making the
     * cycles up to (deadline - 1) safe to skip. Unbounded when disabled
     * or the core has halted.
     */
    Cycle skipBound() const;

    std::uint64_t recoveries() const { return recoveries_; }
    std::uint64_t interventions() const { return interventions_; }
    bool gaveUp() const { return gaveUp_; }

    /** Re-anchor the stall window after the core warm-starts at cycle
     *  @p now; without this a warm start far from cycle 0 looks like a
     *  full no-retirement window and triggers a spurious intervention
     *  on the first observe(). */
    void rebase(Cycle now)
    {
        lastInsts_ = core_.instsRetired();
        windowStart_ = now;
        fruitless_ = 0;
    }

    /** Serialize progress-tracking state (params stay bound). */
    void io(snap::Archive &ar);

  private:
    const WatchdogParams params_;
    Core &core_;
    std::uint64_t lastInsts_ = 0;
    Cycle windowStart_ = 0;
    unsigned fruitless_ = 0;
    std::uint64_t recoveries_ = 0;
    std::uint64_t interventions_ = 0;
    bool gaveUp_ = false;
};

/** Periodic snapshot policy for crash-resumable runs. */
struct SnapPolicy
{
    std::uint64_t everyCycles = 0; ///< 0 disables periodic snapshots
    std::string path;              ///< target file, atomically replaced
};

/** Instantiate the core model named by @p config. */
std::unique_ptr<Core> makeCore(const MachineConfig &config,
                               const Program &program,
                               MemoryImage &memory, CorePort &port);

/** Identity hash of a program (instructions + data + layout), used to
 *  reject restoring a snapshot against the wrong workload. */
std::uint64_t programFingerprint(const Program &program);

/** Aggregate result of one CMP run. */
struct CmpResult
{
    std::string preset;
    unsigned cores = 0;
    /** The chip clock when the run stopped (== Cmp::cycles()). When all
     *  cores halt this equals the slowest core's halt cycle; under a
     *  cycle budget it equals the budget. Previously this reported the
     *  max per-core cycle counter, which could disagree with the chip
     *  clock mid-run. */
    Cycle cycles = 0;
    std::uint64_t totalInsts = 0;
    double aggregateIpc = 0;
    std::vector<double> perCoreIpc;
    bool finished = false;
    DegradeReason degrade = DegradeReason::None;
    std::uint64_t watchdogRecoveries = 0;
};

/** N cores over one shared MemorySystem. */
class Cmp
{
  public:
    /**
     * Each core runs its own program. With coherence off (the default)
     * the harness salts every core's timing addresses into a disjoint
     * physical range and gives each core a private functional image; a
     * program whose footprint exceeds the per-core salt stride would
     * alias another core's physical range and is rejected with
     * fatal(). With coherence on (config.mem.coh.enabled) all cores
     * share one unsalted physical space and one functional image —
     * true shared memory. Cores are named core<i>, except that a
     * one-core chip keeps the preset's core name (and so a Machine's
     * stat keys). @p programs must outlive the Cmp.
     */
    Cmp(const MachineConfig &config,
        const std::vector<const Program *> &programs);

    /** Physical address space each core's accesses are salted into.
     *  Core i owns [i * stride, (i+1) * stride). */
    static constexpr Addr saltStride = Addr{1} << 30;

    /**
     * Tick all cores until all halt or the budget ends. Resumes from
     * the current state after restore(), and a run cut into several
     * calls ends in exactly the state (and stats) of one call.
     *
     * Runs on config.cmpWorkers threads (1 = the calling thread, no
     * threads spawned). Results — stats, traces, snapshots — are
     * byte-identical at every worker count: cores are sharded across
     * workers, every shared-state touch is ordered in (cycle, coreId)
     * sequence by a TickGate, and cross-core effects (coherence
     * invalidations, functional-write visibility) are deferred into
     * per-core queues drained in fixed order at quantum barriers. See
     * docs/INTERNALS.md "Parallel CMP simulation".
     *
     * With snap.everyCycles set, the whole chip is also written to
     * snap.path every snap.everyCycles simulated cycles, at a barrier.
     */
    CmpResult run(std::uint64_t max_cycles = 500'000'000,
                  const SnapPolicy &snap = {});

    /** Advance to chip cycle @p target (or until every core halts or
     *  one livelocks) with exactly run()'s semantics, without building
     *  a result. */
    void stepTo(Cycle target, const SnapPolicy &snap = {});

    /** Worker threads the engine will use for this chip. */
    unsigned workers() const;

    Core &core(unsigned i) { return *cores_[i]; }
    Watchdog &watchdog(unsigned i) { return *watchdogs_[i]; }
    /** Core @p i's functional image (the one shared image when the
     *  memory system is coherent). */
    MemoryImage &image(unsigned i)
    {
        return *images_[memsys_.coherent() ? 0 : i];
    }
    MemorySystem &memsys() { return memsys_; }
    const MachineConfig &config() const { return config_; }
    Cycle cycles() const { return cycle_; }
    bool allHalted() const { return allHalted_; }
    /** True once a watchdog declared livelock (sticky; saved). */
    bool livelocked() const { return livelocked_; }

    /**
     * Start the (single) core from @p cursor at chip cycle @p clock,
     * as a checkpoint-warmed region does. Only a freshly built
     * one-core chip can be warm-started; the chip clock follows the
     * core so the engine resumes at @p clock.
     */
    void warmStart(const ArchState &cursor, Cycle clock);

    /** Complete chip image (header + state + any attached trace
     *  buffer), restorable in a fresh process via restore(). */
    std::vector<std::uint8_t> snapshot() const;
    /** Restore a snapshot() image. The chip must have been built with
     *  the same preset, model, core count and programs; mismatches
     *  fatal(). */
    void restore(const std::vector<std::uint8_t> &bytes);
    Result<void> snapshotToFile(const std::string &path) const;
    Result<void> restoreFromFile(const std::string &path);

    /** FNV-1a 64 over the complete serialized chip state. Equal hashes
     *  at equal cycles ⇒ byte-identical future behaviour. */
    std::uint64_t stateHash() const;

    /**
     * Route structured pipeline, cache-fill and coherence events from
     * every core and hierarchy level into @p buf (null detaches
     * everywhere). Refused (fatal) on a chip that ticks on more than
     * one worker: the workers would race on the one buffer.
     */
    void attachTraceBuffer(trace::TraceBuffer *buf);

    /**
     * Attach a process-chaos monitor (fault/chaos.hh): the engine
     * calls observe(chip cycle) at every barrier, after any periodic
     * snapshot, which both feeds the service worker's heartbeat probe
     * and fires any scheduled kill/stall at its deterministic
     * simulated cycle. Null detaches.
     */
    void setChaosMonitor(ChaosMonitor *monitor) { chaos_ = monitor; }

  private:
    /** The quantum/barrier tick engine behind run()/stepTo(). */
    void runEngine(Cycle bound, const SnapPolicy &snap);
    /** Sync quantum in cycles (config override or mode default). */
    Cycle quantum() const;
    /** Snapshot file walk: identity header (magic, version, preset,
     *  model, programs), the state payload, then the trace buffer. */
    void fileIo(snap::Archive &ar);
    /** State payload shared by snapshot(), restore() and stateHash()
     *  (no file header). */
    void stateIo(snap::Archive &ar);

    MachineConfig config_;
    const std::vector<const Program *> programs_;
    MemorySystem memsys_;
    std::vector<std::unique_ptr<MemoryImage>> images_;
    /** Coherent chips of two or more cores only: per-core
     *  write-buffering views over images_[0], drained at quantum
     *  barriers. Empty otherwise. */
    std::vector<std::unique_ptr<OverlayImage>> views_;
    OverlayShared overlayShared_;
    /** Size of the last snapshot(), reserved up front by the next. */
    mutable std::size_t snapshotBytes_ = 0;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::unique_ptr<Watchdog>> watchdogs_;
    trace::TraceBuffer *traceBuf_ = nullptr;
    ChaosMonitor *chaos_ = nullptr;
    Cycle cycle_ = 0;
    bool allHalted_ = false;
    bool livelocked_ = false;
};

} // namespace sst

#endif // SSTSIM_SIM_CMP_HH
