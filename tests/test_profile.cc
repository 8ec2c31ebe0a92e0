/**
 * @file
 * Tests for checkpoint-warmed sampling (sim/profile): the profiling
 * pass's determinism, the on-disk snapshot library's safety properties
 * (identity rejection, corrupt-member triage, concurrent population),
 * the cache-key hash, and the library-served sampled / warm-started
 * detailed runs' agreement with ground truth.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "func/executor.hh"
#include "func/memory_image.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"
#include "sim/profile.hh"
#include "sim/sampling.hh"
#include "snap/snap.hh"
#include "workloads/workloads.hh"

using namespace sst;

namespace
{

Workload
wl(const std::string &name, std::uint64_t seed = 42)
{
    WorkloadParams p;
    p.seed = seed;
    p.lengthScale = 0.4;
    p.footprintScale = 0.25;
    return makeWorkload(name, p);
}

ProfileParams
params(std::uint64_t stride = 5000, unsigned maxRegions = 4)
{
    ProfileParams pp;
    pp.regionInsts = stride;
    pp.maxRegions = maxRegions;
    return pp;
}

/** Effective config + hash for a preset with optional overrides. */
std::uint64_t
hashFor(MachineConfig &mc, Config &cfg)
{
    applyOverrides(mc, cfg);
    return memConfigHash(mc, cfg);
}

std::string
freshDir(const std::string &stem)
{
    std::string dir = ::testing::TempDir() + "sstsim_profile_" + stem;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace

TEST(Profile, BuildIsDeterministic)
{
    Workload w = wl("hash_join");
    MachineConfig mc = makePreset("sst2");
    ProfileLibrary a = buildProfileLibrary(mc, w.program, params(), 1);
    ProfileLibrary b = buildProfileLibrary(mc, w.program, params(), 1);
    EXPECT_EQ(a.totalInsts, b.totalInsts);
    EXPECT_EQ(a.warmAccesses, b.warmAccesses);
    EXPECT_EQ(a.warmHits, b.warmHits);
    ASSERT_EQ(a.regions.size(), b.regions.size());
    EXPECT_GT(a.usableCount(), 0u);
    for (std::size_t i = 0; i < a.regions.size(); ++i) {
        EXPECT_EQ(a.regions[i].selected, b.regions[i].selected);
        EXPECT_EQ(a.regions[i].weight, b.regions[i].weight);
        EXPECT_EQ(a.regions[i].member, b.regions[i].member) << i;
    }
}

TEST(Profile, SelectionWeightsCoverProgram)
{
    Workload w = wl("oltp_mix");
    MachineConfig mc = makePreset("sst2");
    ProfileLibrary lib = buildProfileLibrary(mc, w.program, params(), 1);
    ASSERT_GT(lib.regions.size(), 2u);
    EXPECT_LE(lib.usableCount(), 4u);
    std::uint64_t covered = 0, total = 0;
    for (const auto &r : lib.regions) {
        total += r.lengthInsts;
        if (r.selected) {
            covered += r.weight;
            EXPECT_FALSE(r.member.empty());
        } else {
            EXPECT_TRUE(r.member.empty());
        }
    }
    // Every region's instructions are assigned to exactly one
    // representative, so the weights partition the whole program.
    EXPECT_EQ(covered, lib.totalInsts);
    EXPECT_EQ(total, lib.totalInsts);
}

TEST(Profile, SaveLoadRoundTripIsByteIdentical)
{
    Workload w = wl("hash_join");
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    ProfileLibrary built =
        buildProfileLibrary(mc, w.program, params(), hash);
    std::string dir = freshDir("roundtrip");
    ASSERT_TRUE(saveProfileLibrary(built, dir).ok());

    auto loaded =
        loadProfileLibrary(dir, mc, w.program, params(), hash);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    const ProfileLibrary &lib = loaded.value();
    EXPECT_EQ(lib.totalInsts, built.totalInsts);
    EXPECT_EQ(lib.warmAccesses, built.warmAccesses);
    EXPECT_EQ(lib.fingerprint, built.fingerprint);
    ASSERT_EQ(lib.regions.size(), built.regions.size());
    for (std::size_t i = 0; i < lib.regions.size(); ++i)
        EXPECT_EQ(lib.regions[i].member, built.regions[i].member) << i;
}

TEST(Profile, EnsureBuildsOnceThenServesFromCache)
{
    Workload w = wl("oltp_mix");
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    std::string root = freshDir("ensure");

    auto first = ensureProfileLibrary(mc, w.program, params(), root, hash);
    ASSERT_TRUE(first.ok()) << first.error().message;
    std::string dir =
        profileCacheDir(root, mc, w.program, params(), hash);
    ASSERT_TRUE(std::filesystem::exists(dir + "/library.manifest"));

    auto second =
        ensureProfileLibrary(mc, w.program, params(), root, hash);
    ASSERT_TRUE(second.ok()) << second.error().message;
    ASSERT_EQ(first.value().regions.size(),
              second.value().regions.size());
    for (std::size_t i = 0; i < first.value().regions.size(); ++i)
        EXPECT_EQ(first.value().regions[i].member,
                  second.value().regions[i].member);
}

TEST(Profile, WrongProgramIdentityRejected)
{
    Workload a = wl("hash_join", 42);
    Workload b = wl("hash_join", 43); // same name, different program
    ASSERT_NE(programFingerprint(a.program),
              programFingerprint(b.program));
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    ProfileLibrary lib =
        buildProfileLibrary(mc, a.program, params(), hash);
    std::string dir = freshDir("identity");
    ASSERT_TRUE(saveProfileLibrary(lib, dir).ok());

    auto wrong = loadProfileLibrary(dir, mc, b.program, params(), hash);
    EXPECT_FALSE(wrong.ok());

    auto wrongHash =
        loadProfileLibrary(dir, mc, a.program, params(), hash ^ 1);
    EXPECT_FALSE(wrongHash.ok());
}

TEST(Profile, ForeignMemberSkippedWithWarning)
{
    // A member file whose bytes are a *valid* snapshot of a different
    // program (planted under this library's member name) must be
    // caught by the per-member fingerprint check, warned about and
    // dropped — while the untouched members stay usable.
    Workload a = wl("hash_join", 42);
    Workload b = wl("hash_join", 43);
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    ProfileLibrary libA =
        buildProfileLibrary(mc, a.program, params(), hash);
    ProfileLibrary libB =
        buildProfileLibrary(mc, b.program, params(), hash);
    ASSERT_GE(libA.usableCount(), 2u);
    std::string dirA = freshDir("foreignA");
    std::string dirB = freshDir("foreignB");
    ASSERT_TRUE(saveProfileLibrary(libA, dirA).ok());
    ASSERT_TRUE(saveProfileLibrary(libB, dirB).ok());

    // Find one selected region present in both and swap the files.
    std::string victim;
    for (const auto &r : libA.regions)
        if (r.selected)
            for (const auto &s : libB.regions)
                if (s.selected && s.index == r.index)
                    victim = "region-" + std::to_string(r.index)
                             + ".snap";
    ASSERT_FALSE(victim.empty());
    std::filesystem::copy_file(
        dirB + "/" + victim, dirA + "/" + victim,
        std::filesystem::copy_options::overwrite_existing);

    LogCapture capture;
    auto loaded =
        loadProfileLibrary(dirA, mc, a.program, params(), hash);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value().usableCount(), libA.usableCount() - 1);
    EXPECT_NE(capture.text().find("warn"), std::string::npos)
        << "skipping a foreign member must warn: " << capture.text();
}

TEST(Profile, TruncatedMemberSkippedWithWarning)
{
    Workload w = wl("oltp_mix");
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    ProfileLibrary lib =
        buildProfileLibrary(mc, w.program, params(), hash);
    ASSERT_GE(lib.usableCount(), 2u);
    std::string dir = freshDir("truncated");
    ASSERT_TRUE(saveProfileLibrary(lib, dir).ok());

    // Truncate the first selected member to half its size.
    std::string victim;
    std::uintmax_t size = 0;
    for (const auto &r : lib.regions)
        if (r.selected) {
            victim =
                dir + "/region-" + std::to_string(r.index) + ".snap";
            size = r.member.size();
            break;
        }
    ASSERT_FALSE(victim.empty());
    std::filesystem::resize_file(victim, size / 2);

    LogCapture capture;
    auto loaded = loadProfileLibrary(dir, mc, w.program, params(), hash);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value().usableCount(), lib.usableCount() - 1);
    EXPECT_FALSE(capture.text().empty());
}

namespace
{

/** Save an oltp_mix library, let @p damage rewrite the bytes of its
 *  first selected member, load the library back and return the
 *  warnings. Exactly that member must be skipped; the rest still
 *  serve. */
std::string
loadWithDamagedMember(
    const std::string &stem,
    const std::function<void(std::vector<std::uint8_t> &)> &damage)
{
    static const Workload w = wl("oltp_mix");
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    static const ProfileLibrary lib =
        buildProfileLibrary(mc, w.program, params(), hash);
    std::string dir = freshDir(stem);
    EXPECT_TRUE(saveProfileLibrary(lib, dir).ok());

    std::string victim;
    for (const auto &r : lib.regions)
        if (r.selected) {
            victim =
                dir + "/region-" + std::to_string(r.index) + ".snap";
            break;
        }
    EXPECT_FALSE(victim.empty());
    auto bytes = snap::readFile(victim);
    EXPECT_TRUE(bytes.ok());
    damage(bytes.value());
    EXPECT_TRUE(snap::writeFile(victim, bytes.value()).ok());

    LogCapture capture;
    auto loaded = loadProfileLibrary(dir, mc, w.program, params(), hash);
    EXPECT_TRUE(loaded.ok()) << loaded.error().message;
    if (loaded.ok()) {
        EXPECT_EQ(loaded.value().usableCount(), lib.usableCount() - 1);
    }
    EXPECT_NE(capture.text().find(victim), std::string::npos)
        << capture.text();
    return capture.text();
}

/** XOR the byte at @p at (from the end if negative). */
std::function<void(std::vector<std::uint8_t> &)>
flipAt(std::ptrdiff_t at)
{
    return [at](std::vector<std::uint8_t> &bytes) {
        std::ptrdiff_t size = static_cast<std::ptrdiff_t>(bytes.size());
        bytes.at(static_cast<std::size_t>(at >= 0 ? at : size + at)) ^=
            0x5a;
    };
}

const std::string kChecksumMismatch = "checksum mismatch";

} // namespace

// A member is its body (every byte up to the trailing 8) plus an XXH64
// checksum of the body. Wherever a byte flips, the checksum catches it
// before any deserialization is attempted.

TEST(Profile, CorruptBytesSkippedWithWarning)
{
    std::string log = loadWithDamagedMember(
        "corrupt", [](std::vector<std::uint8_t> &bytes) {
            bytes[bytes.size() / 2] ^= 0x5a;
        });
    EXPECT_NE(log.find(kChecksumMismatch), std::string::npos) << log;
}

TEST(Profile, CorruptFirstBodyByteSkipped)
{
    // Bytes 0-11 (magic, version) are read first by the file probe, so
    // a flip there is reported as bad magic; byte 12 is the first that
    // only the checksum guards.
    std::string magic = loadWithDamagedMember("corrupt_magic", flipAt(0));
    EXPECT_NE(magic.find("bad magic"), std::string::npos) << magic;
    std::string log = loadWithDamagedMember("corrupt_first", flipAt(12));
    EXPECT_NE(log.find(kChecksumMismatch), std::string::npos) << log;
}

TEST(Profile, CorruptLastBodyByteSkipped)
{
    std::string log = loadWithDamagedMember("corrupt_last", flipAt(-9));
    EXPECT_NE(log.find(kChecksumMismatch), std::string::npos) << log;
}

TEST(Profile, CorruptChecksumSkipped)
{
    std::string log = loadWithDamagedMember("corrupt_sum", flipAt(-4));
    EXPECT_NE(log.find(kChecksumMismatch), std::string::npos) << log;
}

/** A member written by a format-6 build (FNV-1a checksums) is turned
 *  away by the version probe before its checksum is looked at. */
TEST(Profile, OldFormatMemberSkippedByVersion)
{
    std::string log = loadWithDamagedMember(
        "old_format", [](std::vector<std::uint8_t> &bytes) {
            bytes.at(8) = 6; // u32 formatVersion, after the u64 magic
            bytes.at(9) = bytes.at(10) = bytes.at(11) = 0;
        });
    EXPECT_NE(log.find("format version 6, this build reads "
                       + std::to_string(snap::formatVersion)),
              std::string::npos)
        << log;
}

TEST(Profile, ConcurrentWritersLeaveOneValidEntry)
{
    Workload w = wl("hash_join");
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    ProfileLibrary lib =
        buildProfileLibrary(mc, w.program, params(), hash);
    std::string dir = freshDir("concurrent");

    // Byte-identical writers racing on one entry (the sweep-runner
    // cache-population scenario): rename staging means readers never
    // see a torn member, and last-rename-wins is harmless.
    std::vector<std::thread> writers;
    for (int i = 0; i < 4; ++i)
        writers.emplace_back(
            [&] { ASSERT_TRUE(saveProfileLibrary(lib, dir).ok()); });
    for (auto &t : writers)
        t.join();

    auto loaded = loadProfileLibrary(dir, mc, w.program, params(), hash);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value().usableCount(), lib.usableCount());
    for (std::size_t i = 0; i < lib.regions.size(); ++i)
        EXPECT_EQ(loaded.value().regions[i].member,
                  lib.regions[i].member);
}

TEST(Profile, MemConfigHashTracksMemoryNotCore)
{
    MachineConfig base = makePreset("sst2");
    Config baseCfg;
    std::uint64_t h0 = hashFor(base, baseCfg);

    // A core-model knob must not move the hash: core-axis sweep points
    // share one library entry.
    MachineConfig coreMc = makePreset("sst2");
    Config coreCfg;
    coreCfg.set("core.rob_entries", "64");
    EXPECT_EQ(hashFor(coreMc, coreCfg), h0);

    // A memory knob shapes member bytes, so it must move the hash.
    MachineConfig memMc = makePreset("sst2");
    Config memCfg;
    memCfg.set("mem.l1d_kb", "16");
    EXPECT_NE(hashFor(memMc, memCfg), h0);

    // So does the preset itself.
    MachineConfig other = makePreset("inorder");
    Config otherCfg;
    EXPECT_NE(hashFor(other, otherCfg), h0);
}

TEST(Profile, RegionHintClamps)
{
    EXPECT_EQ(profileRegionHint(0), 10'000u);
    EXPECT_EQ(profileRegionHint(320'000), 20'000u);
    EXPECT_GE(profileRegionHint(1ULL << 40), 2'000'000u);
    EXPECT_LE(profileRegionHint(1ULL << 40), 2'000'000u);
}

TEST(Profile, LibrarySampledTracksFullRun)
{
    Workload w = wl("hash_join");
    MachineConfig mc = makePreset("sst2");
    ProfileLibrary lib =
        buildProfileLibrary(mc, w.program, params(5000, 8), 1);
    SampleParams sp;
    sp.detailInsts = 3000;
    SampledResult r = runSampledFromLibrary(mc, w.program, lib, sp);
    RunResult full = runOn("sst2", w.program);
    ASSERT_GT(r.windowIpc.size(), 1u);
    EXPECT_EQ(r.windowWeight.size(), r.windowIpc.size());
    double err = std::abs(r.ipc - full.ipc) / full.ipc;
    EXPECT_LT(err, 0.35) << "library " << r.ipc << " vs full "
                         << full.ipc;
}

TEST(Profile, WarmStartedRunMatchesGolden)
{
    Workload w = wl("oltp_mix");
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    ProfileLibrary lib =
        buildProfileLibrary(mc, w.program, params(), hash);

    MemoryImage goldenMem;
    goldenMem.loadSegments(w.program);
    Executor golden(w.program, goldenMem);
    ArchState goldenState;
    std::uint64_t goldenInsts =
        golden.run(goldenState, 2'000'000'000ULL);
    ASSERT_TRUE(goldenState.halted);

    Machine machine(mc, w.program);
    std::uint64_t skipped = 0;
    auto warmed =
        warmStartMachine(machine, lib, goldenInsts / 2, &skipped);
    ASSERT_TRUE(warmed.ok()) << warmed.error().message;
    EXPECT_GT(skipped, 0u);
    EXPECT_LT(skipped, goldenInsts);

    RunResult r = machine.run();
    EXPECT_TRUE(r.finished);
    EXPECT_EQ(r.insts, goldenInsts - skipped);
    EXPECT_TRUE(machine.core().archState().regsEqual(goldenState));
    EXPECT_TRUE(machine.image().contentEquals(goldenMem));
}

TEST(Profile, Ci95Math)
{
    SampledResult r;
    r.windowIpc = {1.0, 2.0, 3.0};
    // Unweighted: 1.96 * s / sqrt(n) with s = 1.
    EXPECT_NEAR(r.ipcCi95(), 1.96 / std::sqrt(3.0), 1e-9);
    r.windowWeight = {1.0, 1.0, 1.0};
    EXPECT_NEAR(r.ipcCi95(), 1.96 / std::sqrt(3.0), 1e-9);
    // One dominant weight shrinks the effective sample size, widening
    // nothing here (variance also collapses toward that window).
    r.windowIpc = {2.0};
    r.windowWeight = {5.0};
    EXPECT_EQ(r.ipcCi95(), 0.0);
}

TEST(Profile, CacheLookupResolvesAutoStride)
{
    Workload w = wl("hash_join");
    MachineConfig mc = makePreset("sst2");
    ProfileParams pp; // regionInsts = 0 (auto)
    std::string root = freshDir("stride");
    auto r = ensureProfileLibrary(mc, w.program, pp, root, 1);
    ASSERT_TRUE(r.ok()) << r.error().message;

    // The counting pre-pass resolves the stride the same way a caller
    // passing the hint of the exact dynamic length would, and the
    // cache entry is keyed by that resolved stride.
    MemoryImage image;
    image.loadSegments(w.program);
    Executor exec(w.program, image);
    ArchState state;
    std::uint64_t n = exec.run(state, pp.maxInsts);
    ProfileParams resolved = pp;
    resolved.regionInsts = profileRegionHint(n);
    EXPECT_EQ(r.value().regionInsts, resolved.regionInsts);
    EXPECT_TRUE(std::filesystem::exists(
        profileCacheDir(root, mc, w.program, resolved, 1)
        + "/library.manifest"));

    // The in-memory build (no cache) resolves identically.
    auto mem = ensureProfileLibrary(mc, w.program, pp, "", 1);
    ASSERT_TRUE(mem.ok()) << mem.error().message;
    EXPECT_EQ(mem.value().regionInsts, resolved.regionInsts);
}
