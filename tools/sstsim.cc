/**
 * @file
 * sstsim — the general-purpose command-line driver.
 *
 * Runs any workload (built-in generator or an assembly file) on any
 * machine preset with arbitrary config overrides, verifies the result
 * against the golden functional executor, and reports statistics as
 * text or JSON.
 *
 * Examples:
 *   sstsim workload=hash_join preset=sst2
 *   sstsim workload=oltp_mix preset=ooo-large mem.dram_base_latency=480
 *   sstsim asm=kernel.s preset=scout stats=full
 *   sstsim workload=graph_scan preset=sst4 json=true
 *   sstsim workload=oltp_mix preset=sst2 sample=true length_scale=4
 *   sstsim workload=hash_join preset=sst4 fault.drop_fill_rate=1e-4 \
 *          fault.seed=7
 *   sstsim sweep examples/sweep_headline.cfg -j 8 --json out.json
 *
 * Keys:
 *   workload=<name>        built-in generator (see workload=list)
 *   asm=<path>             assemble and run a .s file instead
 *   preset=<name>          machine preset (see preset=list)
 *   seed, length_scale, footprint_scale   workload generator knobs
 *   core.* / mem.*         machine overrides (see sim/presets.hh)
 *   fault.*                fault injection (see fault/fault.hh)
 *   watchdog.*             livelock watchdog (see sim/presets.hh)
 *   stats=none|summary|full   reporting depth (default summary)
 *   json=true              machine-readable stats to stdout
 *   sample=true [detail= skip=]  sampled instead of full simulation
 *   profile_cache=<dir> [regions= region_insts=]  serve sampled runs
 *                          from a checkpoint-warmed snapshot library
 *                          (sim/profile.hh); built on first use,
 *                          reused by every later matching run
 *   warm_start=<n>         warm-start a full detailed run from the
 *                          library member nearest instruction n
 *   trace=true             pipeline event trace to stderr
 *   max_cycles=<n>         simulation budget
 *   snap_every=<n> [snap_out=<file>]  periodic machine snapshots
 *   resume=<file>          restore a snapshot before running
 *
 * Profile mode (checkpoint-warmed sampling, sim/profile.hh):
 *   sstsim profile <preset> <workload> [--cache DIR] [--regions N]
 *                  [--region-insts N] [key=value...]
 * fast-forwards the workload once, selects representative regions
 * (SimPoint-style basic-block-vector clustering; --regions 0 keeps
 * every fixed-stride region) and drops warm-state snapshots of each
 * into DIR, keyed by preset/model/workload/fingerprint/config so
 * sampled sweeps and warm_start= runs start instantly from them.
 *
 * Sweep mode (parallel experiment runner, src/exp):
 *   sstsim sweep <manifest> [-j N] [--json FILE] [--verify] [--quiet]
 *                [--resume DIR] [--snap-every N] [--profile-cache DIR]
 * runs the manifest's config x workload x seed matrix on a
 * work-stealing thread pool and reports aggregate tables plus an
 * optional structured JSON document. Per-job records are bit-identical
 * for every -j (see docs/INTERNALS.md, "The experiment runner").
 * --resume skips jobs whose record artifact already exists in DIR and
 * restarts in-flight jobs from their last machine checkpoint.
 * --distributed N runs the same sweep as a crash-safe supervisor
 * instead: each job runs in its own forked child process, at most N at
 * a time (a child that dies is retried with backoff and resumed from
 * its checkpoint; a job that kills every attempt is quarantined), with
 * byte-identical aggregate output (docs/INTERNALS.md, "The experiment
 * service").
 *
 * Diff mode (lockstep divergence search, src/snap):
 *   sstsim diff <preset> <workload> [--stride N] [--out PREFIX]
 *               [--a-fastfwd 0|1] [--b-fastfwd 0|1]
 *               [--inject-cycle N] [--inject-addr A]
 *               [a:key=value | b:key=value | key=value ...]
 * builds two machines that should behave identically (bare key=value
 * applies to both sides; "a:"/"b:" prefixes apply to one), runs them in
 * lockstep comparing full-state hashes, and bisects to the exact first
 * divergent cycle, dumping both sides' snapshots there. The default
 * sides compare fast-forwarding on (A) vs off (B) — the self-check that
 * stall-skipping is invisible. --inject-cycle flips one bit of side B's
 * memory at that cycle (differ self-test).
 *
 * Trace mode (structured event capture, src/trace):
 *   sstsim trace <preset> <workload> [--out FILE] [--cpistack]
 *                [--validate] [key=value...]
 * runs the workload with the event ring attached, writes a Chrome
 * trace_event JSON (load it in chrome://tracing or ui.perfetto.dev)
 * and optionally prints the CPI-stack attribution table. The CPI
 * categories are asserted to sum to the cycle count.
 *
 * CMP mode (shared-memory chip multiprocessor, src/sim/cmp.*):
 *   sstsim cmp <preset> <shared-workload> [--json] [-j N] [key=value...]
 * builds one program per core of a shared-memory workload
 * (spinlock_counter, producer_consumer, shared_table), runs them on a
 * coherent chip (e.g. preset=rock16, or any preset with coh.enabled=
 * true and cmp.cores=N) and reports per-core and aggregate IPC.
 * Without coherence the cores run salted disjoint address spaces and
 * the "shared" data is private per core — useful only as a baseline.
 *
 * Exit codes: 0 success, 2 architectural mismatch vs golden, 3 cycle
 * budget exhausted, 4 livelock declared by the watchdog, 5 state
 * divergence found by diff mode, 6 sweep finished with quarantined
 * jobs, 7 experiment-service infrastructure failure (a failed fork or
 * pipe), 64 bad usage (unknown/malformed key),
 * 65 bad input (config value, asm, workload).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "branch/predictor.hh"
#include "branch/valuepred.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "common/result.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "exp/json.hh"
#include "exp/runner.hh"
#include "exp/sweep.hh"
#include "exp/threadpool.hh"
#include "func/executor.hh"
#include "isa/assembler.hh"
#include "sim/cmp.hh"
#include "sim/machine.hh"
#include "sim/profile.hh"
#include "sim/sampling.hh"
#include "snap/diff.hh"
#include "snap/snap.hh"
#include "svc/server.hh"
#include "trace/chrome.hh"
#include "trace/cpistack.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

using namespace sst;

namespace
{

/** Keys consumed by this driver itself (not machine configuration). */
const std::vector<std::string> &
driverKeys()
{
    static const std::vector<std::string> keys = {
        "workload", "asm",    "preset", "seed",   "length_scale",
        "footprint_scale",    "stats",  "json",   "sample",
        "detail",   "skip",   "trace",  "max_cycles",
        "snap_every", "snap_out", "resume",
        "profile_cache", "regions", "region_insts", "warm_start",
    };
    return keys;
}

int
fail(const Error &error)
{
    std::fprintf(stderr, "sstsim: %s\n", error.message.c_str());
    return error.exitCode;
}

void
listAndExit()
{
    std::printf("workloads:");
    for (const auto &w : allWorkloadNames())
        std::printf(" %s", w.c_str());
    std::printf("\nshared workloads (sstsim cmp):");
    for (const auto &w : sharedWorkloadNames())
        std::printf(" %s", w.c_str());
    std::printf("\npresets:");
    for (const auto &p : presetNames())
        std::printf(" %s", p.c_str());
    std::printf("\n");
    std::exit(exit_code::ok);
}

/** Reject unknown keys with a nearest-match suggestion. */
Result<void>
validateKeys(const Config &cfg)
{
    std::vector<std::string> known = driverKeys();
    for (const auto &k : machineConfigKeys())
        known.push_back(k);
    for (const auto &kv : cfg.items()) {
        if (std::find(known.begin(), known.end(), kv.first)
            != known.end())
            continue;
        std::string msg = "unknown config key '" + kv.first + "'";
        std::string near = closestMatch(kv.first, known);
        if (!near.empty())
            msg += "; did you mean '" + near + "'?";
        msg += " (workload=list / preset=list show run targets)";
        return Error{msg, exit_code::usage};
    }
    // Enumerated values get the same treatment as keys: reject with a
    // nearest-match suggestion and the usage exit code, before any
    // machine is built.
    auto checkEnum = [&](const char *key,
                         const std::vector<std::string> &values,
                         const char *what) -> Result<void> {
        std::string v = cfg.getString(key, "");
        if (v.empty()
            || std::find(values.begin(), values.end(), v)
                   != values.end())
            return {};
        std::string msg = std::string("unknown ") + what + " '" + v
                          + "' for " + key;
        std::string near = closestMatch(v, values);
        if (!near.empty())
            msg += "; did you mean '" + near + "'?";
        msg += " (known:";
        for (const auto &name : values)
            msg += " " + name;
        msg += ")";
        return Error{msg, exit_code::usage};
    };
    if (auto r = checkEnum("core.predictor", predictorNames(),
                           "branch predictor");
        !r.ok())
        return r;
    if (auto r = checkEnum("core.value_pred", valuePredNames(),
                           "value predictor");
        !r.ok())
        return r;
    return {};
}

Result<Program>
loadProgram(const Config &cfg, std::string &category)
{
    std::string asm_path = cfg.getString("asm", "");
    if (!asm_path.empty()) {
        std::ifstream in(asm_path);
        if (!in)
            return Error{"cannot open '" + asm_path + "'",
                         exit_code::badInput};
        std::stringstream ss;
        ss << in.rdbuf();
        category = "user";
        return tryAssemble(ss.str(), asm_path);
    }
    std::string name = cfg.getString("workload", "oltp_mix");
    if (name == "list")
        listAndExit();
    auto names = allWorkloadNames();
    if (std::find(names.begin(), names.end(), name) == names.end()) {
        auto shared = sharedWorkloadNames();
        if (std::find(shared.begin(), shared.end(), name)
            != shared.end())
            return Error{"'" + name
                             + "' is a shared-memory workload; run it "
                               "with 'sstsim cmp <preset> " + name
                             + "'",
                         exit_code::usage};
        std::string msg = "unknown workload '" + name + "'";
        std::string near = closestMatch(name, names);
        if (!near.empty())
            msg += "; did you mean '" + near + "'?";
        msg += " (workload=list shows all)";
        return Error{msg, exit_code::usage};
    }
    WorkloadParams wp;
    wp.seed = cfg.getUint("seed", 42);
    wp.lengthScale = cfg.getDouble("length_scale", 1.0);
    wp.footprintScale = cfg.getDouble("footprint_scale", 1.0);
    Workload wl = makeWorkload(name, wp);
    category = wl.category;
    return std::move(wl.program);
}

/**
 * `sstsim sweep <manifest> [-j N] [--json FILE] [--verify] [--quiet]`
 * — expand the manifest and run its jobs on the parallel runner.
 */
/** Parse a positive integer CLI operand or die with usage. */
Result<std::uint64_t>
parseCount(const char *flag, const char *text, bool allowZero = false)
{
    char *end = nullptr;
    unsigned long long n = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || (!allowZero && n == 0))
        return Error{std::string("bad ") + flag + " value '" + text
                         + "' (want a positive integer)",
                     exit_code::usage};
    return static_cast<std::uint64_t>(n);
}

int
sweepMain(int argc, char **argv)
{
    std::string manifest;
    std::string jsonPath;
    std::string artifactDir;
    std::string profileCache;
    std::uint64_t snapEvery = 0;
    unsigned jobs = 1;
    unsigned distributed = 0;
    bool quiet = false;
    bool forceVerify = false;
    svc::BrokerOptions brokerOpts;
    svc::WorkerChaos chaos;

    // Service flags that take one integer operand; parsed generically
    // to keep the loop readable.
    auto uintFlag = [&](const std::string &arg, int &i,
                        std::uint64_t &out, bool allowZero = false) {
        if (i + 1 >= argc)
            return Result<bool>(
                Error{arg + " needs a value", exit_code::usage});
        auto n = parseCount(arg.c_str(), argv[++i], allowZero);
        if (!n.ok())
            return Result<bool>(n.error());
        out = n.value();
        return Result<bool>(true);
    };

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        std::uint64_t tmp = 0;
        if (arg == "--distributed") {
            if (auto r = uintFlag(arg, i, tmp); !r.ok())
                return fail(r.error());
            distributed = static_cast<unsigned>(tmp);
        } else if (arg == "--lease-timeout-ms") {
            if (auto r = uintFlag(arg, i, brokerOpts.leaseTimeoutMs);
                !r.ok())
                return fail(r.error());
        } else if (arg == "--max-attempts") {
            if (auto r = uintFlag(arg, i, tmp); !r.ok())
                return fail(r.error());
            brokerOpts.maxAttempts = static_cast<unsigned>(tmp);
        } else if (arg == "--backoff-base-ms") {
            if (auto r = uintFlag(arg, i, brokerOpts.backoffBaseMs);
                !r.ok())
                return fail(r.error());
        } else if (arg == "--backoff-max-ms") {
            if (auto r = uintFlag(arg, i, brokerOpts.backoffMaxMs);
                !r.ok())
                return fail(r.error());
        } else if (arg == "--chaos-kill-cycle") {
            if (auto r = uintFlag(arg, i, chaos.killCycle); !r.ok())
                return fail(r.error());
        } else if (arg == "--chaos-stall-cycle") {
            if (auto r = uintFlag(arg, i, chaos.stallCycle); !r.ok())
                return fail(r.error());
        } else if (arg == "--chaos-kill-attempt"
                   || arg == "--chaos-stall-attempt"
                   || arg == "--chaos-stall-ms") {
            if (auto r = uintFlag(arg, i, tmp); !r.ok())
                return fail(r.error());
            (arg == "--chaos-kill-attempt"    ? chaos.killAttempt
             : arg == "--chaos-stall-attempt" ? chaos.stallAttempt
                                              : chaos.stallMs) =
                static_cast<unsigned>(tmp);
        } else if (arg == "--resume") {
            if (++i >= argc)
                return fail(Error{"--resume needs an artifact directory",
                                  exit_code::usage});
            artifactDir = argv[i];
        } else if (arg == "--snap-every") {
            if (++i >= argc)
                return fail(Error{"--snap-every needs a cycle count",
                                  exit_code::usage});
            char *end = nullptr;
            unsigned long long n = std::strtoull(argv[i], &end, 10);
            if (end == argv[i] || *end != '\0' || n == 0)
                return fail(Error{"bad --snap-every value '"
                                      + std::string(argv[i])
                                      + "' (want a positive cycle "
                                        "count)",
                                  exit_code::usage});
            snapEvery = n;
        } else if (arg == "-j") {
            if (++i >= argc)
                return fail(Error{"-j needs a thread count",
                                  exit_code::usage});
            char *end = nullptr;
            unsigned long n = std::strtoul(argv[i], &end, 10);
            if (end == argv[i] || *end != '\0' || n == 0)
                return fail(Error{"bad -j value '"
                                      + std::string(argv[i])
                                      + "' (want a positive integer)",
                                  exit_code::usage});
            jobs = static_cast<unsigned>(n);
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
            return fail(Error{"write '-j N' with a space",
                              exit_code::usage});
        } else if (arg == "--json") {
            if (++i >= argc)
                return fail(Error{"--json needs an output path",
                                  exit_code::usage});
            jsonPath = argv[i];
        } else if (arg == "--profile-cache") {
            if (++i >= argc)
                return fail(Error{"--profile-cache needs a directory",
                                  exit_code::usage});
            profileCache = argv[i];
        } else if (arg == "--verify") {
            forceVerify = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return fail(Error{"unknown sweep option '" + arg
                                  + "' (know -j, --json, --verify, "
                                    "--quiet, --resume, --snap-every, "
                                    "--profile-cache, "
                                    "--distributed, "
                                    "--lease-timeout-ms, "
                                    "--max-attempts, --backoff-base-ms, "
                                    "--backoff-max-ms, --chaos-*)",
                              exit_code::usage});
        } else if (manifest.empty()) {
            manifest = arg;
        } else {
            return fail(Error{"more than one manifest given ('"
                                  + manifest + "' and '" + arg + "')",
                              exit_code::usage});
        }
    }
    if (manifest.empty())
        return fail(Error{"usage: sstsim sweep <manifest> [-j N] "
                          "[--json FILE] [--verify] [--quiet] "
                          "[--resume DIR] [--snap-every N]",
                          exit_code::usage});
    if (snapEvery && artifactDir.empty())
        return fail(Error{"--snap-every needs --resume DIR (the "
                          "checkpoints live in the artifact directory)",
                          exit_code::usage});

    auto parsed = exp::SweepSpec::parseFile(manifest);
    if (!parsed.ok())
        return fail(parsed.error());
    exp::SweepSpec spec = parsed.take();

    if (forceVerify) {
        if (spec.sample)
            return fail(Error{"--verify cannot combine with a sampled "
                              "sweep (sweep.sample estimates IPC, it "
                              "does not reproduce the golden final "
                              "state)",
                              exit_code::usage});
        spec.verifyGolden = true;
    }

    if (distributed) {
        if (artifactDir.empty())
            return fail(Error{"--distributed needs --resume DIR (the "
                              "job records are written there)",
                              exit_code::usage});
        svc::ServeOptions so;
        so.artifactDir = artifactDir;
        so.snapEvery = snapEvery;
        so.profileCache = profileCache;
        so.spawnWorkers = distributed;
        so.jsonPath = jsonPath;
        so.quiet = quiet;
        so.broker = brokerOpts;
        so.chaos = chaos;
        if (!quiet)
            std::printf("sweep '%s': %zu jobs on up to %u worker "
                        "processes%s\n",
                        spec.name.c_str(), spec.jobCount(), distributed,
                        spec.verifyGolden ? " (golden verify on)" : "");
        return svc::serveSweep(spec, so);
    }

    exp::SweepRunOptions options;
    options.jobs = jobs ? jobs : exp::ThreadPool::defaultWorkers();
    options.artifactDir = artifactDir;
    options.snapEvery = snapEvery;
    options.resume = !artifactDir.empty();
    options.profileCache = profileCache;

    if (!quiet)
        std::printf("sweep '%s': %zu points x %zu presets = %zu jobs "
                    "on %u threads%s\n",
                    spec.name.c_str(), spec.pointCount(),
                    spec.presets.size(), spec.jobCount(), options.jobs,
                    spec.verifyGolden ? " (golden verify on)" : "");

    exp::ResultSink sink(spec.jobCount());
    std::size_t total = spec.jobCount();
    if (!quiet)
        sink.setOnRecord([total, done = std::size_t{0}](
                             const exp::JobOutcome &out) mutable {
            // Completion order, so lines vary run to run; the records
            // themselves are index-keyed and deterministic.
            ++done;
            std::string status =
                !out.ran ? "ERROR"
                : out.result.finished
                    ? "ipc=" + Table::num(out.result.ipc, 4)
                    : degradeReasonName(out.result.degrade);
            std::fprintf(stderr, "[%zu/%zu] #%zu %s/%s %s\n", done,
                         total, out.spec.index, out.spec.preset.c_str(),
                         out.spec.workload.c_str(), status.c_str());
        });

    int code = exp::runSweep(spec, options, sink);

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath);
        if (!out)
            return fail(Error{"cannot write '" + jsonPath + "'",
                              exit_code::badInput});
        out << exp::sweepJson(spec, sink);
        if (!quiet)
            std::printf("wrote %s (%zu records)\n", jsonPath.c_str(),
                        sink.outcomes().size());
    }

    if (!quiet) {
        exp::aggregateTable(spec, sink).print();
        if (!spec.baseline.empty())
            exp::baselineTable(spec, sink).print();
        for (const auto &out : sink.outcomes())
            if (!out.ran)
                std::fprintf(stderr, "sweep: job #%zu (%s/%s): %s\n",
                             out.spec.index, out.spec.preset.c_str(),
                             out.spec.workload.c_str(),
                             out.error.c_str());
    }
    return code;
}

/**
 * `sstsim cmp <preset> <shared-workload> [--json] [-j N]
 * [key=value...]` — -j runs the tick engine on N worker threads
 * (byte-identical results at any N; cmp.workers=N is the same knob).
 * run a shared-memory workload on a chip multiprocessor. The core
 * count comes from cmp.cores (falling back to the preset's size, then
 * 2). No golden check: a multi-threaded outcome is interleaving-
 * dependent, so correctness lives in tests/test_coherence.cc instead.
 */
int
cmpMain(int argc, char **argv)
{
    std::string preset_name;
    std::string workload_name;
    bool json = false;
    Config cfg;

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "-j" || arg == "--jobs") {
            if (++i >= argc)
                return fail(Error{arg + " needs a worker count",
                                  exit_code::usage});
            auto n = parseCount("-j", argv[i]);
            if (!n.ok())
                return fail(n.error());
            if (n.value() > kMaxCmpWorkers)
                return fail(Error{
                    "-j " + std::to_string(n.value())
                        + " exceeds the worker cap of "
                        + std::to_string(kMaxCmpWorkers),
                    exit_code::usage});
            cfg.set("cmp.workers", std::to_string(n.value()));
        } else if (!arg.empty() && arg[0] == '-') {
            return fail(Error{"unknown cmp option '" + arg
                                  + "' (know --json, -j N)",
                              exit_code::usage});
        } else if (arg.find('=') != std::string::npos) {
            auto parsed = cfg.tryParseAssignment(argv[i]);
            if (!parsed.ok())
                return fail(parsed.error());
        } else if (preset_name.empty()) {
            preset_name = arg;
        } else if (workload_name.empty()) {
            workload_name = arg;
        } else {
            return fail(Error{"unexpected argument '" + arg + "'",
                              exit_code::usage});
        }
    }
    if (preset_name.empty() || workload_name.empty())
        return fail(Error{"usage: sstsim cmp <preset> "
                          "<shared-workload> [--json] [-j N] "
                          "[key=value...]",
                          exit_code::usage});
    if (auto valid = validateKeys(cfg); !valid.ok())
        return fail(valid.error());

    auto names = sharedWorkloadNames();
    if (std::find(names.begin(), names.end(), workload_name)
        == names.end()) {
        std::string msg = "unknown shared workload '" + workload_name
                          + "'";
        std::string near = closestMatch(workload_name, names);
        if (!near.empty())
            msg += "; did you mean '" + near + "'?";
        return fail(Error{msg, exit_code::usage});
    }

    auto preset = trapFatal([&] { return makePreset(preset_name); },
                            exit_code::usage);
    if (!preset.ok()) {
        Error e = preset.error();
        std::string near = closestMatch(preset_name, presetNames());
        if (!near.empty())
            e.message += "; did you mean '" + near + "'?";
        e.message += " (preset=list shows all)";
        return fail(e);
    }
    MachineConfig mc = preset.take();
    if (auto applied = trapFatal([&] { applyOverrides(mc, cfg); });
        !applied.ok())
        return fail(applied.error());
    // Shared workloads only make sense over shared memory: coherence
    // defaults ON here whatever the preset says (an explicit
    // coh.enabled=false still wins, and salts the cores apart).
    if (!cfg.has("coh.enabled"))
        mc.mem.coh.enabled = true;
    json = json || cfg.getBool("json", false);
    unsigned cores = mc.cmpCores ? mc.cmpCores : 2;

    WorkloadParams wp;
    wp.seed = cfg.getUint("seed", 42);
    wp.lengthScale = cfg.getDouble("length_scale", 1.0);
    wp.footprintScale = cfg.getDouble("footprint_scale", 1.0);
    auto built = trapFatal(
        [&] { return makeSharedWorkload(workload_name, cores, wp); },
        exit_code::usage);
    if (!built.ok())
        return fail(built.error());
    std::vector<Workload> workloads = built.take();
    std::vector<const Program *> programs;
    for (const Workload &w : workloads)
        programs.push_back(&w.program);

    auto run = trapFatal([&] {
        Cmp cmp(mc, programs);
        return cmp.run(cfg.getUint("max_cycles", 500'000'000ULL));
    });
    if (!run.ok())
        return fail(run.error());
    CmpResult r = run.take();

    if (json) {
        std::printf("{\"preset\": \"%s\", \"workload\": \"%s\", "
                    "\"cores\": %u, \"coherent\": %s, \"cycles\": %llu, "
                    "\"insts\": %llu, \"aggregate_ipc\": %.6f, "
                    "\"finished\": %s, \"per_core_ipc\": [",
                    mc.presetName.c_str(), workload_name.c_str(),
                    r.cores, mc.mem.coh.enabled ? "true" : "false",
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(r.totalInsts),
                    r.aggregateIpc, r.finished ? "true" : "false");
        for (std::size_t i = 0; i < r.perCoreIpc.size(); ++i)
            std::printf("%s%.6f", i ? ", " : "", r.perCoreIpc[i]);
        std::printf("]}\n");
    } else {
        Table t("sstsim cmp: " + workload_name + " on " + mc.presetName
                + (mc.mem.coh.enabled ? " (coherent)" : " (salted)"));
        t.setHeader({"metric", "value"});
        t.addRow({"cores", std::to_string(r.cores)});
        t.addRow({"cycles", std::to_string(r.cycles)});
        t.addRow({"instructions", std::to_string(r.totalInsts)});
        t.addRow({"aggregate IPC", Table::num(r.aggregateIpc, 4)});
        for (std::size_t i = 0; i < r.perCoreIpc.size(); ++i)
            t.addRow({"core" + std::to_string(i) + " IPC",
                      Table::num(r.perCoreIpc[i], 4)});
        t.addRow({"finished", r.finished ? "yes"
                                         : degradeReasonName(r.degrade)});
        t.print();
    }
    if (!r.finished)
        return r.degrade == DegradeReason::Livelock
                   ? exit_code::livelock
                   : exit_code::cycleBudget;
    return exit_code::ok;
}

/**
 * `sstsim trace <preset> <workload> [--out FILE] [--cpistack]
 * [--validate] [key=value...]` — run with the structured event ring
 * attached and export a Chrome trace_event JSON.
 */
int
traceMain(int argc, char **argv)
{
    std::string preset_name;
    std::string workload_name;
    std::string out_path = "trace.json";
    bool cpistack = false;
    bool validate = false;
    Config cfg;

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--out") {
            if (++i >= argc)
                return fail(Error{"--out needs a file path",
                                  exit_code::usage});
            out_path = argv[i];
        } else if (arg == "--cpistack") {
            cpistack = true;
        } else if (arg == "--validate") {
            validate = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return fail(Error{"unknown trace option '" + arg
                                  + "' (know --out, --cpistack, "
                                    "--validate)",
                              exit_code::usage});
        } else if (arg.find('=') != std::string::npos) {
            auto parsed = cfg.tryParseAssignment(argv[i]);
            if (!parsed.ok())
                return fail(parsed.error());
        } else if (preset_name.empty()) {
            preset_name = arg;
        } else if (workload_name.empty()) {
            workload_name = arg;
        } else {
            return fail(Error{"unexpected argument '" + arg + "'",
                              exit_code::usage});
        }
    }
    if (preset_name.empty() || workload_name.empty())
        return fail(Error{"usage: sstsim trace <preset> <workload> "
                          "[--out FILE] [--cpistack] [--validate] "
                          "[key=value...]",
                          exit_code::usage});
    if (auto valid = validateKeys(cfg); !valid.ok())
        return fail(valid.error());

    std::string category;
    Config load_cfg = cfg;
    load_cfg.set("workload", workload_name);
    auto loaded = loadProgram(load_cfg, category);
    if (!loaded.ok())
        return fail(loaded.error());
    Program program = loaded.take();

    auto preset = trapFatal([&] { return makePreset(preset_name); },
                            exit_code::usage);
    if (!preset.ok()) {
        Error e = preset.error();
        std::string near = closestMatch(preset_name, presetNames());
        if (!near.empty())
            e.message += "; did you mean '" + near + "'?";
        e.message += " (preset=list shows all)";
        return fail(e);
    }
    MachineConfig mc = preset.take();
    if (auto applied = trapFatal([&] { applyOverrides(mc, cfg); });
        !applied.ok())
        return fail(applied.error());

    trace::TraceBuffer buf;
    Machine machine(mc, program);
    machine.attachTraceBuffer(&buf);
    RunResult r = machine.run(cfg.getUint("max_cycles", 500'000'000ULL));
    if (!r.finished) {
        std::fprintf(stderr,
                     "sstsim trace: run degraded (%s) after %llu "
                     "cycles\n",
                     degradeReasonName(r.degrade),
                     static_cast<unsigned long long>(r.cycles));
        return r.degrade == DegradeReason::Livelock
                   ? exit_code::livelock
                   : exit_code::cycleBudget;
    }

    // The attribution invariant: every cycle charged exactly once.
    trace::CpiStack &stack = machine.core().cpiStack();
    std::uint64_t total = stack.total();
    std::uint64_t cycles = r.cycles;
    double rel_err =
        cycles ? std::abs(static_cast<double>(total)
                          - static_cast<double>(cycles))
                     / static_cast<double>(cycles)
               : 0.0;
    if (rel_err > 0.001) {
        std::fprintf(stderr,
                     "sstsim trace: CPI stack sums to %llu but the run "
                     "took %llu cycles (off by %.3f%%)\n",
                     static_cast<unsigned long long>(total),
                     static_cast<unsigned long long>(cycles),
                     100 * rel_err);
        return exit_code::archMismatch;
    }

    std::string doc = trace::chromeTraceJson(
        mc.core.name + " (" + machine.core().model() + ")", buf);
    std::ofstream out(out_path);
    if (!out)
        return fail(Error{"cannot write '" + out_path + "'",
                          exit_code::badInput});
    out << doc;
    out.close();

    if (validate) {
        auto parsed = exp::Json::parse(doc);
        if (!parsed.ok())
            return fail(Error{"exported trace is not valid JSON: "
                                  + parsed.error().message,
                              exit_code::archMismatch});
        const exp::Json &root = parsed.take();
        if (!root.isObject() || !root.find("traceEvents")
            || !(*root.find("traceEvents")).isArray())
            return fail(Error{"exported trace lacks a traceEvents "
                              "array",
                              exit_code::archMismatch});
    }

#if !SST_TRACE
    std::fprintf(stderr,
                 "sstsim trace: note: built with SST_TRACE=OFF — event "
                 "recording is compiled out (the trace has no events; "
                 "CPI attribution is still exact)\n");
#endif

    std::printf("trace: %s/%s %llu cycles, %llu events (%llu dropped) "
                "-> %s\n",
                mc.presetName.c_str(), program.name().c_str(),
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(buf.recorded()),
                static_cast<unsigned long long>(buf.dropped()),
                out_path.c_str());

    if (cpistack) {
        Table t("CPI stack: " + program.name() + " on "
                + mc.presetName);
        t.setHeader({"category", "cycles", "CPI", "share"});
        double insts = static_cast<double>(r.insts);
        for (std::size_t i = 0; i < trace::numCpiCats; ++i) {
            auto cat = static_cast<trace::CpiCat>(i);
            std::uint64_t v = stack.value(cat);
            if (v == 0)
                continue;
            t.addRow({trace::cpiCatName(cat), std::to_string(v),
                      insts ? Table::num(static_cast<double>(v) / insts,
                                         4)
                            : "-",
                      cycles ? Table::num(100.0
                                              * static_cast<double>(v)
                                              / static_cast<double>(
                                                  cycles),
                                          1)
                                   + "%"
                             : "-"});
        }
        t.addRow({"total", std::to_string(total),
                  insts ? Table::num(static_cast<double>(total) / insts,
                                     4)
                        : "-",
                  "100.0%"});
        t.print();
    }
    return exit_code::ok;
}

/**
 * `sstsim diff <preset> <workload> [--stride N] [--max-cycles N]
 * [--out PREFIX] [--a-fastfwd 0|1] [--b-fastfwd 0|1]
 * [--inject-cycle N] [--inject-addr A] [a:k=v | b:k=v | k=v ...]`
 * — lockstep state-hash comparison of two machines that should behave
 * identically; bisects to the first divergent cycle.
 */
int
diffMain(int argc, char **argv)
{
    std::string preset_name;
    std::string workload_name;
    snap::DiffOptions opt;
    opt.maxCycles = 20'000'000;
    opt.outPrefix = "diff";
    Config shared, onlyA, onlyB;

    auto uintArg = [&](int &i, const char *what,
                       std::uint64_t &out) -> Result<void> {
        if (++i >= argc)
            return Error{std::string(what) + " needs a value",
                         exit_code::usage};
        char *end = nullptr;
        unsigned long long n = std::strtoull(argv[i], &end, 10);
        if (end == argv[i] || *end != '\0')
            return Error{std::string("bad ") + what + " value '"
                             + argv[i] + "'",
                         exit_code::usage};
        out = n;
        return {};
    };

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        Result<void> parsed = {};
        std::uint64_t n = 0;
        if (arg == "--stride") {
            if (parsed = uintArg(i, "--stride", n); parsed.ok()) {
                if (n == 0)
                    return fail(Error{"--stride must be positive",
                                      exit_code::usage});
                opt.stride = n;
            }
        } else if (arg == "--max-cycles") {
            if (parsed = uintArg(i, "--max-cycles", n); parsed.ok())
                opt.maxCycles = n;
        } else if (arg == "--inject-cycle") {
            if (parsed = uintArg(i, "--inject-cycle", n); parsed.ok())
                opt.injectCycle = n;
        } else if (arg == "--inject-addr") {
            if (parsed = uintArg(i, "--inject-addr", n); parsed.ok())
                opt.injectAddr = n;
        } else if (arg == "--a-fastfwd") {
            if (parsed = uintArg(i, "--a-fastfwd", n); parsed.ok())
                opt.fastfwdA = n != 0;
        } else if (arg == "--b-fastfwd") {
            if (parsed = uintArg(i, "--b-fastfwd", n); parsed.ok())
                opt.fastfwdB = n != 0;
        } else if (arg == "--out") {
            if (++i >= argc)
                return fail(Error{"--out needs a path prefix",
                                  exit_code::usage});
            opt.outPrefix = argv[i];
        } else if (!arg.empty() && arg[0] == '-') {
            return fail(Error{"unknown diff option '" + arg
                                  + "' (know --stride, --max-cycles, "
                                    "--out, --a-fastfwd, --b-fastfwd, "
                                    "--inject-cycle, --inject-addr)",
                              exit_code::usage});
        } else if (arg.find('=') != std::string::npos) {
            Config *target = &shared;
            std::string assignment = arg;
            if (arg.rfind("a:", 0) == 0) {
                target = &onlyA;
                assignment = arg.substr(2);
            } else if (arg.rfind("b:", 0) == 0) {
                target = &onlyB;
                assignment = arg.substr(2);
            }
            if (auto p = target->tryParseAssignment(assignment); !p.ok())
                return fail(p.error());
        } else if (preset_name.empty()) {
            preset_name = arg;
        } else if (workload_name.empty()) {
            workload_name = arg;
        } else {
            return fail(Error{"unexpected argument '" + arg + "'",
                              exit_code::usage});
        }
        if (!parsed.ok())
            return fail(parsed.error());
    }
    if (preset_name.empty() || workload_name.empty())
        return fail(Error{"usage: sstsim diff <preset> <workload> "
                          "[--stride N] [--max-cycles N] [--out PREFIX] "
                          "[--a-fastfwd 0|1] [--b-fastfwd 0|1] "
                          "[--inject-cycle N] [--inject-addr A] "
                          "[a:k=v | b:k=v | k=v ...]",
                          exit_code::usage});

    std::string category;
    Config load_cfg = shared;
    load_cfg.set("workload", workload_name);
    auto loaded = loadProgram(load_cfg, category);
    if (!loaded.ok())
        return fail(loaded.error());
    Program program = loaded.take();

    auto makeSide = [&](const Config &side) {
        return trapFatal(
            [&] {
                MachineConfig mc = makePreset(preset_name);
                Config cfg = shared;
                for (const auto &kv : side.items())
                    cfg.set(kv.first, kv.second);
                applyOverrides(mc, cfg);
                return mc;
            },
            exit_code::usage);
    };
    auto mcA = makeSide(onlyA);
    if (!mcA.ok())
        return fail(mcA.error());
    auto mcB = makeSide(onlyB);
    if (!mcB.ok())
        return fail(mcB.error());

    Machine a(mcA.take(), program);
    Machine b(mcB.take(), program);
    snap::DiffReport rep = snap::diffMachines(a, b, opt);

    if (!rep.diverged) {
        std::printf("diff: %s/%s no divergence over %llu cycles "
                    "(%llu compare points, A %s at %llu, B %s at "
                    "%llu)\n",
                    preset_name.c_str(), program.name().c_str(),
                    static_cast<unsigned long long>(
                        std::max(rep.cyclesA, rep.cyclesB)),
                    static_cast<unsigned long long>(rep.comparedPoints),
                    rep.finishedA ? "halted" : "stopped",
                    static_cast<unsigned long long>(rep.cyclesA),
                    rep.finishedB ? "halted" : "stopped",
                    static_cast<unsigned long long>(rep.cyclesB));
        return exit_code::ok;
    }

    std::printf("diff: %s/%s DIVERGED at cycle %llu "
                "(hash A %016llx != B %016llx)\n",
                preset_name.c_str(), program.name().c_str(),
                static_cast<unsigned long long>(rep.firstDivergentCycle),
                static_cast<unsigned long long>(rep.hashA),
                static_cast<unsigned long long>(rep.hashB));
    if (!rep.snapA.empty())
        std::printf("diff: snapshots dumped: %s %s\n", rep.snapA.c_str(),
                    rep.snapB.c_str());
    return exit_code::diverged;
}

/**
 * `sstsim profile <preset> <workload> [--cache DIR] [--regions N]
 * [--region-insts N] [key=value ...]` — fast-forward the workload once
 * and build (or refresh) its warm-state region snapshot library, so
 * later sampled or warm_start= runs of the same identity start
 * instantly. With --cache the library is persisted under DIR (the
 * entry sampled sweeps and warm_start= look up); without it the pass
 * just reports what it would snapshot.
 */
int
profileMain(int argc, char **argv)
{
    std::string preset_name;
    std::string workload_name;
    std::string cacheDir;
    ProfileParams pp;
    Config cfg;

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--cache") {
            if (++i >= argc)
                return fail(Error{"--cache needs a directory",
                                  exit_code::usage});
            cacheDir = argv[i];
        } else if (arg == "--regions") {
            if (++i >= argc)
                return fail(Error{"--regions needs a value",
                                  exit_code::usage});
            auto n = parseCount("--regions", argv[i], true);
            if (!n.ok())
                return fail(n.error());
            pp.maxRegions = static_cast<unsigned>(n.value());
        } else if (arg == "--region-insts") {
            if (++i >= argc)
                return fail(Error{"--region-insts needs a value",
                                  exit_code::usage});
            auto n = parseCount("--region-insts", argv[i]);
            if (!n.ok())
                return fail(n.error());
            pp.regionInsts = n.value();
        } else if (!arg.empty() && arg[0] == '-') {
            return fail(Error{"unknown profile option '" + arg
                                  + "' (know --cache, --regions, "
                                    "--region-insts)",
                              exit_code::usage});
        } else if (arg.find('=') != std::string::npos) {
            if (auto p = cfg.tryParseAssignment(arg); !p.ok())
                return fail(p.error());
        } else if (preset_name.empty()) {
            preset_name = arg;
        } else if (workload_name.empty()) {
            workload_name = arg;
        } else {
            return fail(Error{"unexpected argument '" + arg + "'",
                              exit_code::usage});
        }
    }
    if (preset_name.empty() || workload_name.empty())
        return fail(Error{"usage: sstsim profile <preset> <workload> "
                          "[--cache DIR] [--regions N] "
                          "[--region-insts N] [key=value ...]",
                          exit_code::usage});

    std::string category;
    Config load_cfg = cfg;
    load_cfg.set("workload", workload_name);
    auto loaded = loadProgram(load_cfg, category);
    if (!loaded.ok())
        return fail(loaded.error());
    Program program = loaded.take();

    auto made = trapFatal(
        [&] {
            MachineConfig mc = makePreset(preset_name);
            applyOverrides(mc, cfg);
            return mc;
        },
        exit_code::usage);
    if (!made.ok()) {
        Error e = made.error();
        std::string near = closestMatch(preset_name, presetNames());
        if (!near.empty())
            e.message += "; did you mean '" + near + "'?";
        return fail(e);
    }
    MachineConfig mc = made.take();

    std::uint64_t configHash = memConfigHash(mc, cfg);
    auto built =
        ensureProfileLibrary(mc, program, pp, cacheDir, configHash);
    if (!built.ok())
        return fail(built.error());
    const ProfileLibrary &lib = built.value();
    pp.regionInsts = lib.regionInsts; // the resolved stride keys the cache

    std::size_t selected = 0;
    for (const auto &r : lib.regions)
        if (r.selected)
            ++selected;
    std::printf("profile: preset=%s workload=%s insts=%llu "
                "regions=%zu selected=%zu stride=%llu warm=%llu/%llu\n",
                mc.presetName.c_str(), program.name().c_str(),
                static_cast<unsigned long long>(lib.totalInsts),
                lib.regions.size(), selected,
                static_cast<unsigned long long>(lib.regionInsts),
                static_cast<unsigned long long>(lib.warmHits),
                static_cast<unsigned long long>(lib.warmAccesses));
    if (!cacheDir.empty())
        std::printf("profile: library cached under '%s'\n",
                    profileCacheDir(cacheDir, mc, program, pp,
                                    configHash)
                        .c_str());
    else
        std::printf("profile: no --cache given; library built in "
                    "memory and discarded\n");
    return exit_code::ok;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::string(argv[1]) == "profile")
        return profileMain(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "sweep")
        return sweepMain(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "cmp")
        return cmpMain(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "trace")
        return traceMain(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "diff")
        return diffMain(argc, argv);

    Config cfg;
    for (int i = 1; i < argc; ++i) {
        auto parsed = cfg.tryParseAssignment(argv[i]);
        if (!parsed.ok())
            return fail(parsed.error());
    }
    setVerbose(false);

    std::string preset_name = cfg.getString("preset", "sst2");
    if (preset_name == "list")
        listAndExit();

    if (auto valid = validateKeys(cfg); !valid.ok())
        return fail(valid.error());

    std::string category;
    auto loaded = loadProgram(cfg, category);
    if (!loaded.ok())
        return fail(loaded.error());
    Program program = loaded.take();

    auto preset = trapFatal([&] { return makePreset(preset_name); },
                            exit_code::usage);
    if (!preset.ok()) {
        Error e = preset.error();
        std::string near = closestMatch(preset_name, presetNames());
        if (!near.empty())
            e.message += "; did you mean '" + near + "'?";
        e.message += " (preset=list shows all)";
        return fail(e);
    }
    MachineConfig mc = preset.take();
    if (auto applied =
            trapFatal([&] { applyOverrides(mc, cfg); });
        !applied.ok())
        return fail(applied.error());

    if (cfg.getBool("sample", false)) {
        SampleParams sp;
        sp.detailInsts = cfg.getUint("detail", 20000);
        sp.skipInsts = cfg.getUint("skip", 80000);
        std::string cacheDir = cfg.getString("profile_cache", "");
        std::uint64_t regionInsts = cfg.getUint("region_insts", 0);
        bool fromLibrary = !cacheDir.empty() || regionInsts != 0;

        SampledResult r;
        if (fromLibrary) {
            // Serve the windows from a checkpoint-warmed snapshot
            // library instead of fast-forwarding from cycle 0.
            ProfileParams pp;
            pp.maxRegions = static_cast<unsigned>(
                cfg.getUint("regions", 8));
            pp.regionInsts = regionInsts;
            std::uint64_t configHash = memConfigHash(mc, cfg);
            auto library = ensureProfileLibrary(mc, program, pp,
                                                cacheDir, configHash);
            if (!library.ok())
                return fail(library.error());
            auto sampled = trapFatal([&] {
                return runSampledFromLibrary(mc, program,
                                             library.value(), sp);
            });
            if (!sampled.ok())
                return fail(sampled.error());
            r = sampled.take();
        } else {
            r = runSampled(mc, program, sp);
        }

        if (cfg.getBool("json", false)) {
            std::string j = "{\"mode\":\"sampled\"";
            j += ",\"preset\":\"" + jsonEscape(mc.presetName) + '"';
            j += ",\"workload\":\"" + jsonEscape(program.name()) + '"';
            j += std::string(",\"from_library\":")
                 + (fromLibrary ? "true" : "false");
            j += ",\"ipc\":" + jsonNumber(r.ipc);
            j += ",\"windows\":" + std::to_string(r.windowIpc.size());
            j += ",\"ipc_stddev\":" + jsonNumber(r.ipcStddev());
            j += ",\"ipc_ci95\":" + jsonNumber(r.ipcCi95());
            j += ",\"detailed_insts\":"
                 + std::to_string(r.detailedInsts);
            j += ",\"skipped_insts\":" + std::to_string(r.skippedInsts);
            j += ",\"warm_accesses\":" + std::to_string(r.warmAccesses);
            j += ",\"warm_hits\":" + std::to_string(r.warmHits);
            j += std::string(",\"reached_end\":")
                 + (r.reachedEnd ? "true" : "false");
            j += "}\n";
            std::fputs(j.c_str(), stdout);
            return exit_code::ok;
        }
        std::printf("sampled: preset=%s workload=%s ipc=%.4f "
                    "windows=%zu stddev=%.4f ci95=%.4f warm=%llu/%llu "
                    "detail=%llu skip=%llu%s%s\n",
                    mc.presetName.c_str(), program.name().c_str(), r.ipc,
                    r.windowIpc.size(), r.ipcStddev(), r.ipcCi95(),
                    static_cast<unsigned long long>(r.warmHits),
                    static_cast<unsigned long long>(r.warmAccesses),
                    static_cast<unsigned long long>(r.detailedInsts),
                    static_cast<unsigned long long>(r.skippedInsts),
                    fromLibrary ? " (library)" : "",
                    r.reachedEnd ? "" : " (budget)");
        return exit_code::ok;
    }

    // Golden reference.
    MemoryImage golden_mem;
    golden_mem.loadSegments(program);
    Executor golden(program, golden_mem);
    ArchState golden_state;
    std::uint64_t golden_insts = golden.run(golden_state, 2'000'000'000ULL);
    if (!golden_state.halted)
        return fail(Error{"program does not halt functionally",
                          exit_code::badInput});

    Machine machine(mc, program);
    if (cfg.getBool("trace", false))
        machine.core().setTraceSink([](const std::string &line) {
            std::fprintf(stderr, "%s\n", line.c_str());
        });

    std::string resume_path = cfg.getString("resume", "");
    if (!resume_path.empty() && !cfg.getString("warm_start", "").empty())
        return fail(Error{"warm_start= cannot combine with resume= "
                          "(both pick the starting state)",
                          exit_code::usage});
    if (!resume_path.empty()) {
        auto restored = machine.restoreFromFile(resume_path);
        if (!restored.ok())
            return fail(restored.error());
        std::fprintf(stderr, "sstsim: resumed from '%s' at cycle %llu\n",
                     resume_path.c_str(),
                     static_cast<unsigned long long>(
                         machine.core().cycles()));
    }

    // warm_start=N: skip the program's first N-ish instructions by
    // restoring the profile-library member nearest below N (building
    // the library on first use). The golden cross-check still holds —
    // the warm prefix ran on the same golden executor — with the
    // retired-instruction count adjusted by the member's offset.
    std::uint64_t warmSkipped = 0;
    std::string warm_key = cfg.getString("warm_start", "");
    if (!warm_key.empty()) {
        auto target = parseCount("warm_start", warm_key.c_str(), true);
        if (!target.ok())
            return fail(target.error());
        ProfileParams pp;
        pp.maxRegions =
            static_cast<unsigned>(cfg.getUint("regions", 8));
        pp.regionInsts = cfg.getUint("region_insts", 0);
        if (pp.regionInsts == 0)
            pp.regionInsts = profileRegionHint(golden_insts);
        auto library = ensureProfileLibrary(
            mc, program, pp, cfg.getString("profile_cache", ""),
            memConfigHash(mc, cfg));
        if (!library.ok())
            return fail(library.error());
        auto warmed = warmStartMachine(machine, library.value(),
                                       target.value(), &warmSkipped);
        if (!warmed.ok())
            return fail(warmed.error());
        std::fprintf(stderr,
                     "sstsim: warm-started at instruction %llu "
                     "(cycle %llu) from the profile library\n",
                     static_cast<unsigned long long>(warmSkipped),
                     static_cast<unsigned long long>(
                         machine.core().cycles()));
    }
    SnapPolicy snap;
    snap.everyCycles = cfg.getUint("snap_every", 0);
    snap.path = cfg.getString("snap_out", "sstsim.snap");

    RunResult r = machine.run(cfg.getUint("max_cycles", 500'000'000ULL),
                              snap);
    if (!r.finished) {
        std::fprintf(stderr,
                     "sstsim: run degraded (%s) after %llu cycles, "
                     "%llu insts retired\n",
                     degradeReasonName(r.degrade),
                     static_cast<unsigned long long>(r.cycles),
                     static_cast<unsigned long long>(r.insts));
        return r.degrade == DegradeReason::Livelock
                   ? exit_code::livelock
                   : exit_code::cycleBudget;
    }

    bool arch_ok = machine.core().archState().regsEqual(golden_state)
                   && machine.image().contentEquals(golden_mem)
                   && r.insts == golden_insts - warmSkipped;

    if (cfg.getBool("json", false)) {
        std::fputs(machine.core().stats().dumpJson().c_str(), stdout);
        return arch_ok ? exit_code::ok : exit_code::archMismatch;
    }

    auto run_stat = [&](const char *key) {
        auto it = r.stats.find(key);
        return it == r.stats.end() ? 0.0 : it->second;
    };

    std::string stats_depth = cfg.getString("stats", "summary");
    Table t("sstsim: " + program.name() + " (" + category + ") on "
            + mc.presetName);
    t.setHeader({"metric", "value"});
    t.addRow({"cycles", std::to_string(r.cycles)});
    t.addRow({"instructions", std::to_string(r.insts)});
    t.addRow({"IPC", Table::num(r.ipc, 4)});
    t.addRow({"L1D miss rate", Table::num(100 * r.l1dMissRate, 2) + "%"});
    t.addRow({"demand MLP", Table::num(r.meanDemandMlp, 2)});
    t.addRow({"mispredict rate",
              Table::num(100 * r.mispredictRate, 2) + "%"});
    if (machine.memsys().faults().enabled()) {
        t.addRow({"faults injected",
                  std::to_string(static_cast<std::uint64_t>(
                      run_stat("fault.injected")))});
        t.addRow({"watchdog recoveries",
                  std::to_string(static_cast<std::uint64_t>(
                      run_stat("watchdog.recoveries")))});
    }
    t.addRow({"arch state vs golden", arch_ok ? "MATCH" : "MISMATCH"});
    if (stats_depth != "none")
        t.print();
    if (stats_depth == "full")
        std::fputs(machine.core().stats().dump().c_str(), stdout);
    if (!arch_ok)
        std::fprintf(stderr, "sstsim: architectural state diverged from "
                             "the golden executor\n");

    return arch_ok ? exit_code::ok : exit_code::archMismatch;
}
