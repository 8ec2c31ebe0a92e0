/**
 * @file
 * sstbench: the host-time benchmark binary for sstsim.
 *
 * One process runs one named workload through the simulator's public
 * C++ API, repeating a fixed round of jobs until --seconds have passed
 * (at least three rounds), checks every job's result, and prints the
 * metrics as one JSON line at the end of stdout. See README.md in this
 * directory for the workloads, metrics and checks.
 *
 *   sstbench --workload W --seed N --seconds S --trace 0|1
 *            [--scale X] [--workdir DIR] [--spans FILE] [--inject CHECK]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 alternates traced
 * and untraced rounds, records a span around every public call the
 * benchmark makes, and reports the per-layer metrics. --scale multiplies
 * every run length (the self-tests use a small one). --inject corrupts
 * one checked quantity so a test can show that the check trips.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "coh/coh.hh"
#include "common/logging.hh"
#include "func/executor.hh"
#include "func/memory_image.hh"
#include "isa/opcodes.hh"
#include "mem/hierarchy.hh"
#include "sim/cmp.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"
#include "sim/profile.hh"
#include "snap/snap.hh"
#include "workloads/workloads.hh"

using namespace sst;

namespace
{

// ---------------------------------------------------------------------
// Workload definitions. Lengths are WorkloadParams::lengthScale values,
// one per workload, shared by every job in it.

const std::vector<std::string> kCommercial = {
    "hash_join", "oltp_mix", "graph_scan", "btree_lookup", "column_scan"};
const std::vector<std::string> kChain = {"pointer_chase", "list_walk"};
const std::vector<std::string> kShared = {"spinlock_counter",
                                          "shared_table",
                                          "producer_consumer"};
const std::vector<std::string> kSampled = {"oltp_mix", "hash_join",
                                           "graph_scan"};
const std::vector<std::string> kPresets = {"sst2", "ooo-large"};

constexpr double kCommercialLength = 2.0;
constexpr double kChainLength = 0.08;
constexpr double kSharedLength = 0.5;
constexpr double kSampledLength = 8.0;

/**
 * dependent_chain's inputs are pinned rather than taken from --seed
 * (README.md, "Known defect"). Where a chain falls into the storm
 * depends on its input, and the storm's host cost grows faster than
 * its length: pointer_chase's cycles varied by 16% over ten seeds and
 * its host time by 36%, and a few list_walk inputs in a hundred fall
 * into a dense mode that costs up to 150x the host time of the rest.
 * Seeded inputs made the spread over seeds a draw of inputs.
 * pointer_chase runs the generator's default input. list_walk runs
 * the first input, counting from 1, in the dense mode: the mode it
 * shows at its default length.
 */
constexpr std::uint64_t kPointerChaseSeed = 42;
constexpr std::uint64_t kListWalkSeed = 18;

/**
 * Simulations are timed in slices of this many simulated cycles
 * (Machine::stepTo, Cmp::run with a cycle budget). Each slice does the
 * same work in every round, lasts a few milliseconds of host time, and
 * is one timed unit; see the estimator in endToEnd().
 */
constexpr Cycle kSliceCycles = 100'000;
constexpr Cycle kChipSliceCycles = 40'000;
constexpr std::uint64_t kMaxCycles = 500'000'000ULL;

/** Rounds every run makes at least: medians and the repeat-digest
 *  check need more than one sample. peak_rss_mb is read when this many
 *  rounds have ended, so it does not depend on how many more fit. */
constexpr int kMinRounds = 3;
/** Spans must account for the timed section within this share. */
constexpr double kCoverageTolerance = 0.02;

/**
 * The host clock is measured with a chain of this many dependent
 * 64-bit multiply-adds, each of which takes kCyclesPerLink core cycles
 * (a 3-cycle multiply and a 1-cycle add on current x86-64 cores), and
 * re-measured when the last measurement is older than kClockMaxAgeS.
 */
constexpr std::uint64_t kChainLinks = 50'000;
constexpr double kCyclesPerLink = 4;
constexpr double kClockMaxAgeS = 0.1;

// ---------------------------------------------------------------------
// Small helpers.

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpu()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
minimum(std::vector<double> v)
{
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double
statOr0(const std::map<std::string, double> &m, const std::string &key)
{
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

/** Sum every flattened stat whose key ends in @p suffix. */
double
sumSuffix(const std::map<std::string, double> &m, const std::string &suffix)
{
    double s = 0;
    for (const auto &kv : m)
        if (kv.first.size() >= suffix.size()
            && kv.first.compare(kv.first.size() - suffix.size(),
                                suffix.size(), suffix)
                   == 0)
            s += kv.second;
    return s;
}

std::uint64_t
digestStats(const std::map<std::string, double> &stats, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (const auto &kv : stats) {
        h = snap::fnv1a(kv.first.data(), kv.first.size(), h);
        h = snap::fnv1a(&kv.second, sizeof kv.second, h);
    }
    return h;
}

template <typename T>
std::uint64_t
digestValue(const T &v, std::uint64_t seed)
{
    return snap::fnv1a(&v, sizeof v, seed);
}

std::uint64_t
hashBytes(const std::vector<std::uint8_t> &bytes)
{
    return snap::fnv1a(bytes.data(), bytes.size(), 0xcbf29ce484222325ULL);
}

/**
 * The host core's clock, in cycles per second, measured without a
 * hardware PMU. The shared host changes its cores' clock with its own
 * load, over seconds to minutes (README.md, "Host facts"), and a unit's
 * host time scales with it; a unit's time multiplied by the clock of
 * the moment gives the host cycles it took, which follow the code.
 */
class HostClock
{
  public:
    bool stale() const { return now() - at_ > kClockMaxAgeS; }

    /** Time the chain three times; the fastest sets the clock. */
    void
    measure()
    {
        double best = 1e9;
        for (int rep = 0; rep < 3; ++rep) {
            std::uint64_t x = 1;
            const double t0 = now();
            for (std::uint64_t i = 0; i < kChainLinks; ++i) {
                x = x * 6364136223846793005ULL + 1442695040888963407ULL;
                asm volatile("" : "+r"(x));
            }
            best = std::min(best, now() - t0);
        }
        hz_ = kCyclesPerLink * kChainLinks / best;
        at_ = now();
        samples.push_back(hz_);
    }

    double hz() const { return hz_; }

    /** Every measurement of the run, in cycles per second. */
    std::vector<double> samples;

  private:
    double hz_ = 0;
    double at_ = -1e9;
};

// ---------------------------------------------------------------------
// Spans. Kept in memory, written out at exit. Every public call the
// benchmark makes is timed; spans are recorded only on traced rounds.

struct Span
{
    std::string module;
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    int round = 0;
};

class Tracer
{
  public:
    bool recording = false;
    int round = 0;
    std::vector<Span> spans;

    /** Run @p fn as a span of @p module; @return its duration. */
    template <typename Fn>
    double
    call(const char *module, const std::string &name, Fn &&fn)
    {
        int id = -1;
        if (recording) {
            id = static_cast<int>(spans.size());
            spans.push_back(Span{module, name, 0, 0, open_, round});
            open_ = id;
        }
        const double t0 = now();
        fn();
        const double t1 = now();
        if (id >= 0) {
            spans[id].start = t0;
            spans[id].end = t1;
            open_ = spans[id].parent;
        }
        return t1 - t0;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "[\n";
        const double t0 = spans.empty() ? 0 : spans.front().start;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            char buf[512];
            std::snprintf(buf, sizeof buf,
                          "{\"id\":%zu,\"module\":\"%s\",\"name\":\"%s\","
                          "\"start_s\":%.9f,\"end_s\":%.9f,"
                          "\"parent\":%d,\"round\":%d}%s\n",
                          i, s.module.c_str(), s.name.c_str(),
                          s.start - t0, s.end - t0, s.parent, s.round,
                          i + 1 < spans.size() ? "," : "");
            out << buf;
        }
        out << "]\n";
    }

  private:
    int open_ = -1;
};

// ---------------------------------------------------------------------
// Per-run bookkeeping.

/** One job's outcome in one round. A job is one checked operation. */
struct JobSample
{
    double setup = 0;
    /** Host seconds of each timed unit, in the job's fixed unit order. */
    std::vector<double> units;
    /** Host cycles of the same units: seconds times the host clock. */
    std::vector<double> unitCycles;
    double insts = 0;
    std::uint64_t digest = 0;
    bool traced = false;
    bool ok = true;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    double scale = 1.0;
    std::string workdir = ".bench_build/work";
    std::string spansPath;
    std::string inject;
};

class Run
{
  public:
    explicit Run(const Options &opt) : opt(opt) {}

    const Options &opt;
    Tracer tracer;
    HostClock clock;
    /** Job label -> one sample per round, in round order. */
    std::map<std::string, std::vector<JobSample>> jobs;
    /** Per-layer values, one per traced round (summed within it). */
    std::map<std::string, std::vector<double>> layerRounds;
    std::map<std::string, double> layerRound;
    /** Per-layer values measured once per run (replays, counts). */
    std::map<std::string, double> layerOnce;
    std::vector<std::string> failures;

    WorkloadParams
    params(double length) const
    {
        WorkloadParams wp;
        wp.seed = opt.seed;
        wp.lengthScale = length * opt.scale;
        return wp;
    }

    /** A single-core kernel's input: --seed, except the pinned
     *  dependent-chain kernels. */
    WorkloadParams
    params(const std::string &kernel, double length) const
    {
        WorkloadParams wp = params(length);
        if (kernel == "pointer_chase")
            wp.seed = kPointerChaseSeed;
        else if (kernel == "list_walk")
            wp.seed = kListWalkSeed;
        return wp;
    }

    bool injected(const char *check) const { return opt.inject == check; }

    void
    fail(const std::string &label, const std::string &why)
    {
        failures.push_back(label + ": " + why);
    }

    void add(const std::string &name, double v) { layerRound[name] += v; }

    /** Add a finished job's simulated memory-hierarchy counts. */
    void
    addMemStats(const MemorySystem &memsys)
    {
        const auto ms = memsys.stats().flatten();
        add("mem.l1d.accesses", sumSuffix(ms, "l1d.accesses"));
        add("mem.l1d.misses", sumSuffix(ms, "l1d.misses"));
        add("mem.l1d_pf.issued", sumSuffix(ms, "l1d_pf.issued"));
        add("mem.l2.misses", sumSuffix(ms, "l2.misses"));
        add("mem.mshr.allocations", sumSuffix(ms, "l1_mshrs.allocations"));
    }

    /**
     * Time @p fn as a span and as the next timed unit of @p s, in
     * seconds and in host cycles. A stale host clock is measured first,
     * outside the unit, in a span of its own.
     */
    template <typename Fn>
    double
    unit(JobSample &s, const char *module, const std::string &name, Fn &&fn)
    {
        if (clock.stale())
            tracer.call("clock", "measure", [&] { clock.measure(); });
        const double d = tracer.call(module, name, fn);
        s.units.push_back(d);
        s.unitCycles.push_back(d * clock.hz());
        return d;
    }

    /**
     * Start a job on a heap that holds no free pages from the last
     * one. Jobs free tens of MB of 4 KiB image pages; how much of that
     * stays resident depends on heap layout (a few bytes of argument
     * string moved peak_rss_mb by 10 MB), so it is handed back first.
     */
    static JobSample
    startJob()
    {
        malloc_trim(0);
        return {};
    }

    void
    record(const std::string &label, JobSample s)
    {
        s.traced = tracer.recording;
        jobs[label].push_back(s);
    }

    void
    endRound()
    {
        if (tracer.recording)
            for (const auto &kv : layerRound)
                layerRounds[kv.first].push_back(kv.second);
        layerRound.clear();
    }
};

// ---------------------------------------------------------------------
// Golden streams for the layer replays (traced runs only, outside the
// timed section).

struct MemRef
{
    Addr addr;
    bool store;
};

struct BranchRef
{
    std::uint64_t pc;
    bool taken;
};

void
goldenStreams(const Program &program, std::size_t cap,
              std::vector<MemRef> &mem, std::vector<BranchRef> &br)
{
    MemoryImage image;
    image.loadSegments(program);
    Executor ex(program, image);
    ArchState st;
    std::size_t steps = 0;
    while (!st.halted && steps < cap) {
        StepInfo si = ex.step(st);
        ++steps;
        if (isMem(si.inst.op))
            mem.push_back({si.effAddr, isStore(si.inst.op)});
        else if (isCondBranch(si.inst.op))
            br.push_back({si.pc, si.taken});
    }
}

/**
 * Replay load/store streams through CorePort::access on a fresh
 * MemorySystem with one port per stream, interleaved round-robin. Each
 * access blocks until its data is ready, and a rejected access retries
 * at its retry cycle. @return host seconds and accesses replayed.
 */
std::pair<double, std::size_t>
replayMem(const HierarchyParams &hp,
          const std::vector<std::vector<MemRef>> &streams)
{
    const auto cores = static_cast<unsigned>(streams.size());
    MemorySystem ms(hp);
    std::vector<CorePort *> ports;
    for (unsigned c = 0; c < cores; ++c)
        ports.push_back(&ms.addCore());
    std::vector<Cycle> clock(cores, 1);
    std::size_t n = 0, longest = 0;
    for (const auto &s : streams)
        longest = std::max(longest, s.size());
    const double t0 = now();
    for (std::size_t i = 0; i < longest; ++i) {
        for (unsigned c = 0; c < streams.size(); ++c) {
            if (i >= streams[c].size())
                continue;
            const MemRef &ref = streams[c][i];
            const unsigned port = c;
            Cycle &t = clock[port];
            for (int tries = 0; tries < 64; ++tries) {
                ms.setActiveCore(port);
                AccessResult r = ports[port]->access(
                    ref.store ? AccessType::Store : AccessType::Load,
                    ref.addr, t);
                if (!r.rejected) {
                    t = std::max(t + 1, r.readyCycle);
                    break;
                }
                t = std::max(t + 1, r.retryCycle);
            }
            ++n;
        }
    }
    return {now() - t0, n};
}

/** Replay a golden branch stream through the preset's predictor.
 *  @return {ns per predict+update, mispredict rate}. */
std::pair<double, double>
replayBranches(const CoreParams &cp,
               const std::vector<std::vector<BranchRef>> &streams)
{
    auto pred = makePredictor(cp.predictor, cp.strandHistory);
    std::size_t n = 0, wrong = 0;
    const double t0 = now();
    for (const auto &s : streams)
        for (const BranchRef &b : s) {
            wrong += pred->predict(b.pc) != b.taken;
            pred->update(b.pc, b.taken);
            ++n;
        }
    const double dt = now() - t0;
    return {n ? dt * 1e9 / n : 0, n ? double(wrong) / n : 0};
}

/** Replay per-core shared-access streams, interleaved round-robin,
 *  through Directory::onAccess, with a direct-mapped L1-sized tag
 *  array per core supplying onEvict. @return ns per directory call. */
double
replayDirectory(const CohParams &cp, unsigned lineBytes,
                const std::vector<std::vector<MemRef>> &streams)
{
    constexpr std::size_t kSlots = 512; // 32 KiB of 64 B lines
    Directory dir(cp);
    std::vector<std::vector<Addr>> tags(
        streams.size(), std::vector<Addr>(kSlots, invalidAddr));
    std::size_t calls = 0, longest = 0;
    for (const auto &s : streams)
        longest = std::max(longest, s.size());
    const double t0 = now();
    for (std::size_t i = 0; i < longest; ++i)
        for (unsigned c = 0; c < streams.size(); ++c) {
            if (i >= streams[c].size())
                continue;
            const Addr line = streams[c][i].addr / lineBytes;
            Addr &slot = tags[c][line % kSlots];
            if (slot != line && slot != invalidAddr) {
                dir.onEvict(slot * lineBytes, c);
                ++calls;
            }
            slot = line;
            dir.onAccess(line * lineBytes, c, streams[c][i].store);
            ++calls;
        }
    return calls ? (now() - t0) * 1e9 / calls : 0;
}

// ---------------------------------------------------------------------
// Single-core jobs: sst_commercial and dependent_chain.

struct CoreTotals
{
    double cycles = 0, insts = 0, runS = 0;
};

/** One golden-checked single-core job; per-kernel simulated counts
 *  are kept when @p perKernel. */
void
singleCoreJob(Run &run, const std::string &kernel, const std::string &preset,
              const WorkloadParams &wp, bool perKernel)
{
    Tracer &tr = run.tracer;
    const std::string label = preset + "/" + kernel;
    JobSample s = Run::startJob();
    Workload w;
    const double genS =
        tr.call("workloads", "makeWorkload:" + kernel, [&] {
            w = makeWorkload(kernel, wp);
        });
    MachineConfig mc = makePreset(preset);
    std::unique_ptr<Machine> m;
    const double constructS = tr.call("sim", "Machine:" + label, [&] {
        m = std::make_unique<Machine>(mc, w.program);
    });
    s.setup = genS + constructS;
    run.add("workloads.gen_s", genS);
    run.add("sim.construct_s", constructS);

    MemoryImage goldenMem;
    ArchState golden;
    std::uint64_t goldenInsts = 0;
    RunResult r;
    double goldenS = 0, runS = 0;
    bool archOk = false;
    const std::uint64_t budget = run.injected("budget") ? 1000 : kMaxCycles;
    tr.call("bench", "section:" + label, [&] {
        goldenS += run.unit(s, "func", "golden:" + kernel, [&] {
            goldenMem.loadSegments(w.program);
            Executor ex(w.program, goldenMem);
            goldenInsts = ex.run(golden, 2'000'000'000ULL);
        });
        // stepTo has run()'s exact semantics; the final run() only
        // harvests the result.
        for (Cycle at = m->core().cycles();
             !m->core().halted() && !m->livelocked() && at < budget;) {
            const Cycle to = std::min<Cycle>(at + kSliceCycles, budget);
            runS += run.unit(s, "core", "stepTo:" + label,
                             [&] { m->stepTo(to); });
            if (m->core().cycles() == at)
                break;
            at = m->core().cycles();
        }
        runS += run.unit(s, "core", "run:" + label,
                         [&] { r = m->run(budget); });
        goldenS += run.unit(s, "func", "compare:" + label, [&] {
            if (run.injected("golden"))
                golden.regs[5] ^= 1;
            archOk = m->core().archState().regsEqual(golden)
                     && m->image().contentEquals(goldenMem)
                     && r.insts == goldenInsts;
        });
    });
    s.insts = static_cast<double>(r.insts);
    s.digest = digestStats(
        r.stats, digestValue(r.cycles, digestValue(r.insts, 0)));
    if (!r.finished) {
        s.ok = false;
        run.fail(label, std::string("did not finish (")
                            + degradeReasonName(r.degrade) + ")");
    } else if (!archOk || !golden.halted) {
        s.ok = false;
        run.fail(label, "state differs from the golden executor");
    }
    run.record(label, s);

    const auto &st = r.stats;
    const std::string p = "core." + preset;
    run.add(p + ".run_s", runS);
    run.add(p + ".cycles_total", static_cast<double>(r.cycles));
    run.add(p + ".insts_total", static_cast<double>(r.insts));
    run.add("func.golden_s", goldenS);
    run.add("func.golden_insts", static_cast<double>(goldenInsts));
    run.addMemStats(m->memsys());
    if (preset == "sst2") {
        const double rollbacks =
            sumSuffix(st, ".fail_branch") + sumSuffix(st, ".fail_jump")
            + sumSuffix(st, ".fail_mem")
            + sumSuffix(st, ".fail_forced")
            + sumSuffix(st, ".fail_coh")
            + sumSuffix(st, ".fail_vpred");
        const double degrades = statOr0(st, "sst2.watchdog_degrades");
        run.add("core.sst2.cycles", static_cast<double>(r.cycles));
        run.add("core.sst2.rollbacks", rollbacks);
        run.add("core.sst2.watchdog_degrades", degrades);
        run.add("core.sst2.discarded_total",
                statOr0(st, "sst2.discarded_insts"));
        run.add("core.sst2.replayed_total",
                statOr0(st, "sst2.replayed_insts"));
        if (perKernel) {
            const std::string k = "core.sst2." + kernel;
            run.add(k + ".cycles", static_cast<double>(r.cycles));
            run.add(k + ".rollbacks", rollbacks);
            run.add(k + ".watchdog_degrades", degrades);
        }
    }
}

void
singleCoreRound(Run &run, const std::vector<std::string> &kernels,
                double length, bool perKernel)
{
    for (const std::string &kernel : kernels)
        for (const std::string &preset : kPresets)
            singleCoreJob(run, kernel, preset, run.params(kernel, length),
                          perKernel);
}

// ---------------------------------------------------------------------
// rock16_coherent: each shared kernel at -j1, then -j2, compared.

struct ChipOutcome
{
    CmpResult result;
    std::uint64_t snapHash = 0;
};

void
coherentRound(Run &run)
{
    Tracer &tr = run.tracer;
    for (const std::string &kernel : kShared) {
        ChipOutcome out[2];
        for (unsigned j = 1; j <= 2; ++j) {
            const std::string label =
                "rock16/" + kernel + "/j" + std::to_string(j);
            JobSample s = Run::startJob();
            MachineConfig mc = makePreset("rock16");
            mc.cmpWorkers = j;
            std::vector<Workload> ws;
            const double genS =
                tr.call("workloads", "makeSharedWorkload:" + kernel, [&] {
                    ws = makeSharedWorkload(kernel, mc.cmpCores,
                                            run.params(kSharedLength));
                });
            std::vector<const Program *> programs;
            for (const Workload &w : ws)
                programs.push_back(&w.program);
            std::unique_ptr<Cmp> cmp;
            const double constructS = tr.call("sim", "Cmp:" + label, [&] {
                cmp = std::make_unique<Cmp>(mc, programs);
            });
            s.setup = genS + constructS;
            run.add("workloads.gen_s", genS);
            run.add("sim.construct_s", constructS);
            CmpResult r;
            double runS = 0;
            const double cpu0 = processCpu();
            tr.call("bench", "section:" + label, [&] {
                do {
                    const Cycle to = std::min<Cycle>(
                        cmp->cycles() + kChipSliceCycles, kMaxCycles);
                    runS += run.unit(s, "engine", "Cmp::run:" + label,
                                     [&] { r = cmp->run(to); });
                } while (!r.finished
                         && r.degrade != DegradeReason::Livelock
                         && cmp->cycles() < kMaxCycles);
            });
            const double cpu = processCpu() - cpu0;
            ChipOutcome &o = out[j - 1];
            o.result = r;
            o.snapHash = hashBytes(cmp->snapshot());
            if (j == 2 && run.injected("j2"))
                o.snapHash ^= 1;
            s.insts = static_cast<double>(r.totalInsts);
            std::uint64_t d = digestValue(r.cycles, o.snapHash);
            d = digestValue(r.totalInsts, d);
            for (double ipc : r.perCoreIpc)
                d = digestValue(ipc, d);
            s.digest = d;
            if (!r.finished) {
                s.ok = false;
                run.fail(label, std::string("did not finish (")
                                    + degradeReasonName(r.degrade) + ")");
            }
            if (j == 2) {
                const CmpResult &a = out[0].result;
                if (a.cycles != r.cycles || a.totalInsts != r.totalInsts
                    || a.perCoreIpc != r.perCoreIpc
                    || out[0].snapHash != o.snapHash) {
                    s.ok = false;
                    run.fail(label, "-j2 result differs from -j1");
                }
            }
            run.record(label, s);

            run.add(j == 1 ? "engine.j1_s" : "engine.j2_s", runS);
            if (j == 2) {
                run.add("engine.j2_cpu_s", cpu);
                continue;
            }
            run.add("coh.invalidations",
                    static_cast<double>(
                        cmp->memsys().directory().invalidations()));
            run.add("coh.interventions",
                    static_cast<double>(
                        cmp->memsys().directory().interventions()));
            for (unsigned c = 0; c < programs.size(); ++c) {
                const auto st = cmp->core(c).stats().flatten();
                run.add("sle.commits", sumSuffix(st, ".sle_commits"));
                run.add("sle.aborts", sumSuffix(st, ".sle_aborts"));
            }
            run.addMemStats(cmp->memsys());
        }
    }
}

// ---------------------------------------------------------------------
// sampled_profile: build, save, reload and serve a profile library.

void
flipByteInFirstMember(const std::string &dir)
{
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().extension() != ".snap")
            continue;
        std::fstream f(e.path(),
                       std::ios::in | std::ios::out | std::ios::binary);
        const auto size = std::filesystem::file_size(e.path());
        f.seekg(size / 2);
        char c = 0;
        f.read(&c, 1);
        c ^= 0x40;
        f.seekp(size / 2);
        f.write(&c, 1);
        return;
    }
}

bool
sameEstimate(const SampledResult &a, const SampledResult &b)
{
    return a.ipc == b.ipc && a.windowIpc == b.windowIpc
           && a.windowWeight == b.windowWeight
           && a.detailedInsts == b.detailedInsts;
}

void
sampledRound(Run &run)
{
    Tracer &tr = run.tracer;
    MachineConfig mc = makePreset("sst2");
    Config effective;
    applyOverrides(mc, effective);
    const std::uint64_t configHash = memConfigHash(mc, effective);
    for (const std::string &kernel : kSampled) {
        const std::string label = "sst2/" + kernel;
        JobSample s = Run::startJob();
        Workload w;
        s.setup = tr.call("workloads", "makeWorkload:" + kernel, [&] {
            w = makeWorkload(kernel, run.params(kSampledLength));
        });
        run.add("workloads.gen_s", s.setup);
        // The stride and region count of `sstsim profile`, and the
        // window length sstsim and the sweep runner serve with.
        ProfileParams pp;
        pp.regionInsts = profileRegionHint(w.approxDynInsts);
        const SampleParams sp;
        const std::string dir = run.opt.workdir + "/" + kernel;

        ProfileLibrary lib;
        Result<ProfileLibrary> loaded = Error{"not loaded"};
        SampledResult fromMemory, fromDisk;
        double buildS = 0, saveS = 0, loadS = 0, serveS = 0;
        bool saved = false;
        tr.call("bench", "section:" + label, [&] {
            buildS = run.unit(s, "profile", "buildProfileLibrary:" + kernel,
                              [&] {
                                  lib = buildProfileLibrary(
                                      mc, w.program, pp, configHash);
                              });
            saveS = run.unit(s, "profile", "saveProfileLibrary:" + kernel,
                             [&] { saved = saveProfileLibrary(lib, dir).ok(); });
            if (run.injected("member"))
                flipByteInFirstMember(dir);
            loadS = run.unit(s, "profile", "loadProfileLibrary:" + kernel,
                             [&] {
                                 loaded = loadProfileLibrary(
                                     dir, mc, w.program, pp, configHash);
                             });
            serveS = run.unit(s, "profile", "runSampledFromLibrary:" + kernel,
                              [&] {
                                  fromMemory = runSampledFromLibrary(
                                      mc, w.program, lib, sp);
                              });
            if (loaded.ok())
                serveS += run.unit(
                    s, "profile", "runSampledFromLibrary:" + kernel, [&] {
                        fromDisk = runSampledFromLibrary(
                            mc, w.program, loaded.value(), sp);
                    });
        });
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);

        s.insts = static_cast<double>(lib.totalInsts);
        std::uint64_t d = digestValue(fromMemory.ipc, 0);
        for (double ipc : fromMemory.windowIpc)
            d = digestValue(ipc, d);
        d = digestValue(lib.totalInsts, d);
        d = digestValue(lib.warmHits, d);
        s.digest = d;
        const std::uint64_t warmHits =
            run.injected("warm") ? 0 : fromMemory.warmHits;
        if (!saved) {
            s.ok = false;
            run.fail(label, "saveProfileLibrary failed");
        } else if (!loaded.ok()) {
            s.ok = false;
            run.fail(label, "loadProfileLibrary failed: "
                                + loaded.error().message);
        } else if (!sameEstimate(fromMemory, fromDisk)) {
            s.ok = false;
            run.fail(label, "estimate from the reloaded library differs "
                            "from the in-memory one");
        } else if (warmHits == 0 || lib.warmHits == 0) {
            s.ok = false;
            run.fail(label, "no warm hits");
        } else if (fromMemory.windowIpc.empty()) {
            s.ok = false;
            run.fail(label, "no sampled windows");
        }
        run.record(label, s);

        std::size_t memberBytes = 0;
        for (const ProfileRegion &reg : lib.regions)
            memberBytes += reg.member.size();
        run.add("profile.build_s", buildS);
        run.add("profile.save_s", saveS);
        run.add("profile.load_s", loadS);
        run.add("profile.serve_s", serveS);
        run.add("profile.member_mb", memberBytes / 1e6);
        run.add("profile.windows",
                static_cast<double>(fromMemory.windowIpc.size()));
    }
}

// ---------------------------------------------------------------------
// Layer measurements made once per traced run, outside the timed
// section.

void
measureReplays(Run &run)
{
    // Golden instructions recorded per workload for the replays.
    constexpr std::size_t cap = 2'000'000;
    std::vector<std::vector<MemRef>> mem;
    std::vector<std::vector<BranchRef>> br;
    MachineConfig mc = makePreset("sst2");
    unsigned cores = 1;
    Tracer &tr = run.tracer;
    const std::string &wl = run.opt.workload;
    if (wl == "rock16_coherent") {
        mc = makePreset("rock16");
        cores = mc.cmpCores;
        for (const std::string &kernel : kShared) {
            auto ws = makeSharedWorkload(kernel, cores,
                                         run.params(kSharedLength));
            std::vector<std::vector<MemRef>> shared(ws.size());
            std::vector<std::vector<BranchRef>> branches(ws.size());
            for (std::size_t c = 0; c < ws.size(); ++c)
                goldenStreams(ws[c].program, cap / cores, shared[c],
                              branches[c]);
            double ns = 0;
            tr.call("coh", "Directory::onAccess:" + kernel, [&] {
                ns = replayDirectory(mc.mem.coh, mc.mem.l2.lineBytes,
                                     shared);
            });
            run.layerOnce["coh.ns_per_access"] += ns / kShared.size();
            // The memory and branch replays use the first kernel only.
            if (kernel == kShared.front()) {
                mem = std::move(shared);
                br = std::move(branches);
            }
        }
    } else {
        const auto &kernels = wl == "sst_commercial"    ? kCommercial
                              : wl == "dependent_chain" ? kChain
                                                        : kSampled;
        const double length = wl == "sst_commercial"    ? kCommercialLength
                              : wl == "dependent_chain" ? kChainLength
                                                        : kSampledLength;
        for (const std::string &kernel : kernels) {
            Workload w = makeWorkload(kernel, run.params(kernel, length));
            mem.emplace_back();
            br.emplace_back();
            goldenStreams(w.program, cap / kernels.size(), mem.back(),
                          br.back());
        }
    }
    std::vector<double> memNs, brNs;
    double mispredict = 0;
    for (int rep = 0; rep < 3; ++rep) {
        tr.call("mem", "CorePort::access", [&] {
            // rock16's cores share one hierarchy; each single-core
            // kernel gets a fresh one of its own.
            double seconds = 0;
            std::size_t n = 0;
            auto add = [&](std::pair<double, std::size_t> r) {
                seconds += r.first;
                n += r.second;
            };
            if (cores > 1)
                add(replayMem(mc.mem, mem));
            else
                for (const auto &stream : mem)
                    add(replayMem(mc.mem, {stream}));
            memNs.push_back(n ? seconds * 1e9 / n : 0);
        });
        tr.call("branch", "predict+update", [&] {
            auto [ns, rate] = replayBranches(mc.core, br);
            brNs.push_back(ns);
            mispredict = rate;
        });
    }
    run.layerOnce["mem.ns_per_access"] = median(memNs);
    run.layerOnce["branch.ns_per_predict"] = median(brNs);
    run.layerOnce["branch.mispredict_rate"] = mispredict;

    if (wl != "sampled_profile")
        return;
    // Snapshot round trip on a mid-run sst2 machine.
    Workload w = makeWorkload("oltp_mix", run.params(kSampledLength / 8));
    MachineConfig sst2 = makePreset("sst2");
    Machine m(sst2, w.program);
    m.stepTo(m.core().cycles() + 200'000);
    std::vector<double> saveRate, restoreRate;
    for (int rep = 0; rep < 3; ++rep) {
        std::vector<std::uint8_t> bytes;
        const double saveS =
            tr.call("snap", "Machine::snapshot", [&] { bytes = m.snapshot(); });
        Machine copy(sst2, w.program);
        const double restoreS = tr.call("snap", "Machine::restore",
                                        [&] { copy.restore(bytes); });
        if (copy.stateHash() != m.stateHash())
            run.fail("snap", "restored machine hash differs");
        const double mb = bytes.size() / 1e6;
        saveRate.push_back(mb / saveS);
        restoreRate.push_back(mb / restoreS);
    }
    run.layerOnce["snap.save_mb_s"] = median(saveRate);
    run.layerOnce["snap.restore_mb_s"] = median(restoreRate);
}

// ---------------------------------------------------------------------
// Reporting.

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;
}

bool
selected(const JobSample &s, int traced)
{
    return traced < 0 || s.traced == (traced != 0);
}

/** Sum over jobs of each job's median set-up time. */
double
medianSetup(const Run &run)
{
    double total = 0;
    for (const auto &kv : run.jobs) {
        std::vector<double> v;
        for (const JobSample &s : kv.second)
            v.push_back(s.setup);
        total += median(v);
    }
    return total;
}

/**
 * The timed-section estimate: for every job and every timed unit, the
 * unit's smallest repetition across the selected rounds, summed.
 * @p traced selects rounds: -1 all, 0 untraced only, 1 traced only.
 * @p field picks host seconds or host cycles.
 */
double
sumOfUnitMinima(const Run &run, int traced,
                std::vector<double> JobSample::*field)
{
    double total = 0;
    for (const auto &kv : run.jobs) {
        std::vector<std::vector<double>> perUnit;
        for (const JobSample &s : kv.second) {
            if (!selected(s, traced))
                continue;
            const std::vector<double> &units = s.*field;
            perUnit.resize(std::max(perUnit.size(), units.size()));
            for (std::size_t u = 0; u < units.size(); ++u)
                perUnit[u].push_back(units[u]);
        }
        for (const auto &v : perUnit)
            total += minimum(v);
    }
    return total;
}

/**
 * The timed sections' wall-clock time per round (the sum of its units),
 * median over the selected rounds: the plain figure that wall_s's
 * lower envelope can be checked against.
 */
double
medianRoundSections(const Run &run, int traced)
{
    std::map<std::size_t, double> perRound;
    for (const auto &kv : run.jobs)
        for (std::size_t r = 0; r < kv.second.size(); ++r) {
            const JobSample &s = kv.second[r];
            if (!selected(s, traced))
                continue;
            for (double u : s.units)
                perRound[r] += u;
        }
    std::vector<double> v;
    for (const auto &kv : perRound)
        v.push_back(kv.second);
    return median(v);
}

double
roundInsts(const Run &run)
{
    double total = 0;
    for (const auto &kv : run.jobs)
        total += kv.second.front().insts;
    return total;
}

std::vector<Metric>
endToEnd(const Run &run, double rssMb)
{
    // Host interference on a shared machine comes in bursts shorter
    // than a second and only ever adds time, so the smallest repetition
    // of each short unit is the figure that follows the code; the
    // host's clock drifts over minutes, so units are counted in host
    // cycles (README.md, "Steadiness"). Set-up is reported as a median.
    const double cycles =
        sumOfUnitMinima(run, -1, &JobSample::unitCycles);
    return {
        {"host_gcycles", cycles / 1e9, "Gcycle"},
        {"sim_inst_per_mcycle",
         cycles > 0 ? roundInsts(run) / cycles * 1e6 : 0, "inst/Mcycle"},
        {"setup_s", medianSetup(run), "s"},
        {"peak_rss_mb", rssMb, "MB"},
    };
}

/**
 * The same sections in wall-clock seconds, for the text report: the
 * sum of per-unit minima and the rate it gives, the plain median
 * round, and the host clock they were measured at.
 */
std::vector<Metric>
wallClock(const Run &run)
{
    const double wall = sumOfUnitMinima(run, -1, &JobSample::units);
    return {
        {"wall_s", wall, "s"},
        {"sim_mips", wall > 0 ? roundInsts(run) / wall / 1e6 : 0,
         "Minst/s"},
        {"section.median_s", medianRoundSections(run, -1), "s"},
        {"host.ghz", median(run.clock.samples) / 1e9, "GHz"},
    };
}

/** The per-layer names, in report order, with units. Every workload
 *  reports all of them; a layer the workload does not exercise reads
 *  0 (README.md lists which workloads move which metric). */
const std::vector<std::pair<std::string, std::string>> &
layerNames()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"workloads.gen_s", "s"},
        {"sim.construct_s", "s"},
        {"func.golden_s", "s"},
        {"func.golden_mips", "Minst/s"},
        {"core.sst2.run_s", "s"},
        {"core.ooo-large.run_s", "s"},
        {"core.sst2.ns_per_cycle", "ns"},
        {"core.sst2.ns_per_inst", "ns"},
        {"core.ooo-large.ns_per_cycle", "ns"},
        {"core.ooo-large.ns_per_inst", "ns"},
        {"core.sst2.cycles", "count"},
        {"core.sst2.rollbacks", "count"},
        {"core.sst2.watchdog_degrades", "count"},
        {"core.sst2.rollback_discard_frac", "ratio"},
        {"core.sst2.replay_frac", "ratio"},
        {"core.sst2.pointer_chase.cycles", "count"},
        {"core.sst2.pointer_chase.rollbacks", "count"},
        {"core.sst2.pointer_chase.watchdog_degrades", "count"},
        {"core.sst2.list_walk.cycles", "count"},
        {"core.sst2.list_walk.rollbacks", "count"},
        {"core.sst2.list_walk.watchdog_degrades", "count"},
        {"mem.ns_per_access", "ns"},
        {"mem.l1d.accesses", "count"},
        {"mem.l1d.misses", "count"},
        {"mem.l1d_pf.issued", "count"},
        {"mem.l2.misses", "count"},
        {"mem.mshr.allocations", "count"},
        {"mem.est_share", "ratio"},
        {"branch.ns_per_predict", "ns"},
        {"branch.mispredict_rate", "ratio"},
        {"coh.ns_per_access", "ns"},
        {"coh.invalidations", "count"},
        {"coh.interventions", "count"},
        {"sle.commits", "count"},
        {"sle.aborts", "count"},
        {"engine.j1_s", "s"},
        {"engine.j2_s", "s"},
        {"engine.speedup_j2", "ratio"},
        {"engine.cpu_per_wall_j2", "ratio"},
        {"profile.build_s", "s"},
        {"profile.save_s", "s"},
        {"profile.load_s", "s"},
        {"profile.serve_s", "s"},
        {"profile.member_mb", "MB"},
        {"profile.windows", "count"},
        {"snap.save_mb_s", "MB/s"},
        {"snap.restore_mb_s", "MB/s"},
        {"section.median_s", "s"},
        {"section.min_sum_s", "s"},
        {"host.ghz", "GHz"},
        {"trace.coverage", "ratio"},
        {"trace.overhead_frac", "ratio"},
        {"trace.func.self_s", "s"},
        {"trace.core.self_s", "s"},
        {"trace.engine.self_s", "s"},
        {"trace.profile.self_s", "s"},
        {"trace.func.share", "ratio"},
        {"trace.core.share", "ratio"},
        {"trace.engine.share", "ratio"},
        {"trace.profile.share", "ratio"},
    };
    return names;
}

std::vector<Metric>
perLayer(Run &run)
{
    std::map<std::string, double> v;
    for (const auto &kv : run.layerRounds)
        v[kv.first] = median(kv.second);
    for (const auto &kv : run.layerOnce)
        v[kv.first] = kv.second;
    auto get = [&](const std::string &k) { return statOr0(v, k); };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    v["func.golden_mips"] =
        ratio(get("func.golden_insts"), get("func.golden_s")) / 1e6;
    for (const std::string &p : kPresets) {
        const std::string c = "core." + p;
        v[c + ".ns_per_cycle"] =
            ratio(get(c + ".run_s"), get(c + ".cycles_total")) * 1e9;
        v[c + ".ns_per_inst"] =
            ratio(get(c + ".run_s"), get(c + ".insts_total")) * 1e9;
    }
    const double committed = get("core.sst2.insts_total");
    v["core.sst2.rollback_discard_frac"] =
        ratio(get("core.sst2.discarded_total"),
              get("core.sst2.discarded_total") + committed);
    v["core.sst2.replay_frac"] =
        ratio(get("core.sst2.replayed_total"), committed);
    const double coreRun =
        get("core.sst2.run_s") + get("core.ooo-large.run_s");
    v["mem.est_share"] =
        ratio(get("mem.ns_per_access") * 1e-9 * get("mem.l1d.accesses"),
              coreRun);
    v["engine.speedup_j2"] = ratio(get("engine.j1_s"), get("engine.j2_s"));
    v["engine.cpu_per_wall_j2"] =
        ratio(get("engine.j2_cpu_s"), get("engine.j2_s"));
    v["section.median_s"] = medianRoundSections(run, -1);
    v["section.min_sum_s"] = sumOfUnitMinima(run, -1, &JobSample::units);
    v["host.ghz"] = median(run.clock.samples) / 1e9;

    // Span accounting over the traced rounds' timed sections.
    const auto &spans = run.tracer.spans;
    std::vector<double> childSum(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            childSum[s.parent] += s.end - s.start;
    double section = 0, covered = 0;
    std::map<std::string, double> self;
    std::vector<int> sectionRounds;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double dur = s.end - s.start;
        if (s.module == "bench") {
            section += dur;
            covered += childSum[i];
            sectionRounds.push_back(s.round);
        } else if (s.parent >= 0 && spans[s.parent].module == "bench") {
            self[s.module] += dur - childSum[i];
        }
    }
    std::sort(sectionRounds.begin(), sectionRounds.end());
    const double tracedRounds = static_cast<double>(
        std::unique(sectionRounds.begin(), sectionRounds.end())
        - sectionRounds.begin());
    v["trace.coverage"] = ratio(covered, section);
    for (const char *m : {"func", "core", "engine", "profile"}) {
        v[std::string("trace.") + m + ".self_s"] =
            ratio(self[m], tracedRounds);
        v[std::string("trace.") + m + ".share"] = ratio(self[m], section);
    }
    const double traced = sumOfUnitMinima(run, 1, &JobSample::unitCycles);
    const double plain = sumOfUnitMinima(run, 0, &JobSample::unitCycles);
    v["trace.overhead_frac"] = plain > 0 ? traced / plain - 1 : 0;
    if (std::abs(v["trace.coverage"] - 1) > kCoverageTolerance)
        run.fail("trace", "spans cover "
                              + std::to_string(v["trace.coverage"])
                              + " of the timed section");

    std::vector<Metric> out;
    for (const auto &[name, unit] : layerNames())
        out.push_back({name, get(name), unit});
    return out;
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

void
printProvenance(const Options &opt, double load0, double load1, int rounds)
{
    std::printf("provenance {\"compiler\":\"%s\",\"build_type\":\"%s\","
                "\"SST_TRACE\":%d,\"SST_FASTFWD\":%d,"
                "\"snapshot_format_version\":%u,\"nproc\":%u,"
                "\"loadavg_start\":%.2f,\"loadavg_end\":%.2f,"
                "\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
                "\"trace\":%d,\"scale\":%g,\"rounds\":%d}\n",
                __VERSION__, SSTBENCH_BUILD_TYPE, SSTBENCH_TRACE,
                SSTBENCH_FASTFWD, snap::formatVersion,
                std::thread::hardware_concurrency(), load0, load1,
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, opt.scale, rounds);
}

double
loadAverage()
{
    double la[1] = {0};
    return getloadavg(la, 1) == 1 ? la[0] : -1;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "sstbench: %s\nusage: sstbench --workload "
                 "sst_commercial|dependent_chain|rock16_coherent|"
                 "sampled_profile --seed N --seconds S --trace 0|1 "
                 "[--scale X] [--workdir DIR] [--spans FILE] "
                 "[--inject golden|budget|j2|member|warm|digest]\n",
                 msg);
    std::exit(64);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (a == "--workload")
            opt.workload = val;
        else if (a == "--seed")
            opt.seed = std::strtoull(val, &end, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(val, &end);
        else if (a == "--trace")
            opt.trace = std::strtol(val, &end, 10) != 0;
        else if (a == "--scale")
            opt.scale = std::strtod(val, &end);
        else if (a == "--workdir")
            opt.workdir = val;
        else if (a == "--spans")
            opt.spansPath = val;
        else if (a == "--inject")
            opt.inject = val;
        else
            usage(("unknown option " + a).c_str());
        if (end && *end)
            usage(("bad value for " + a).c_str());
    }
    static const std::vector<std::string> known = {
        "sst_commercial", "dependent_chain", "rock16_coherent",
        "sampled_profile"};
    if (std::find(known.begin(), known.end(), opt.workload) == known.end())
        usage(("unknown workload '" + opt.workload + "'").c_str());
    if (!(opt.seconds > 0) || !(opt.scale > 0))
        usage("--seconds and --scale must be positive");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    setVerbose(false);
    // glibc raises its mmap threshold after large blocks are freed, so
    // how much freed memory stays resident depends on allocation
    // history; pinning the threshold at its default start value makes
    // peak_rss_mb follow live data (45 vs 55 MB on dependent_chain
    // between otherwise equal runs without this).
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    Run run(opt);
    std::filesystem::create_directories(opt.workdir);

    const double load0 = loadAverage();
    const double t0 = now();
    int rounds = 0;
    double lastRound = 0, rssMb = 0;
    while (rounds < kMinRounds
           || now() - t0 + lastRound <= opt.seconds) {
        const double r0 = now();
        run.tracer.round = rounds;
        // Traced runs alternate: even rounds record spans, odd rounds
        // do not, so the same run measures the tracing overhead.
        run.tracer.recording = opt.trace && rounds % 2 == 0;
        if (opt.workload == "sst_commercial")
            singleCoreRound(run, kCommercial, kCommercialLength, false);
        else if (opt.workload == "dependent_chain")
            singleCoreRound(run, kChain, kChainLength, true);
        else if (opt.workload == "rock16_coherent")
            coherentRound(run);
        else
            sampledRound(run);
        run.endRound();
        if (++rounds == kMinRounds)
            rssMb = peakRssMb();
        lastRound = now() - r0;
    }
    const double load1 = loadAverage();

    // A job whose simulated result moves between repetitions failed.
    for (auto &[label, samples] : run.jobs) {
        if (opt.inject == "digest" && samples.size() > 1)
            samples[1].digest ^= 1;
        for (std::size_t i = 1; i < samples.size(); ++i)
            if (samples[i].digest != samples[0].digest) {
                if (samples[i].ok)
                    run.fail(label, "round " + std::to_string(i)
                                        + " result differs from round 0");
                samples[i].ok = false;
            }
    }

    std::vector<Metric> metrics;
    if (opt.trace) {
        run.tracer.recording = true;
        measureReplays(run);
        metrics = perLayer(run);
        if (!opt.spansPath.empty())
            run.tracer.write(opt.spansPath);
    } else {
        metrics = endToEnd(run, rssMb);
    }
    std::error_code ec;
    std::filesystem::remove_all(opt.workdir, ec);

    long attempted = 0, failed = 0;
    for (const auto &kv : run.jobs)
        for (const JobSample &s : kv.second) {
            ++attempted;
            failed += !s.ok;
        }
    // Failures outside any job (span coverage, snapshot round trip)
    // make the run incorrect without counting as a failed job.
    const bool correct = run.failures.empty() && failed == 0;

    printProvenance(opt, load0, load1, rounds);
    for (const std::string &f : run.failures)
        std::printf("FAILED %s\n", f.c_str());
    for (const Metric &m : metrics)
        std::printf("%-44s %16s %s\n", m.name.c_str(),
                    jsonNum(m.value).c_str(), m.unit.c_str());
    if (!opt.trace)
        for (const Metric &m : wallClock(run))
            std::printf("%-44s %16s %s (wall clock, not gated)\n",
                        m.name.c_str(), jsonNum(m.value).c_str(),
                        m.unit.c_str());

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            json += ", ";
        json += "\"" + metrics[i].name + "\": {\"value\": "
                + jsonNum(metrics[i].value) + ", \"unit\": \""
                + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
