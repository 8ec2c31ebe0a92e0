#include "sim/profile.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/config.hh"
#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst
{

namespace
{

constexpr unsigned kBbvBuckets = 32;
constexpr std::uint8_t kProfileKind = 2;
constexpr const char *kManifestName = "library.manifest";

unsigned
bbvBucket(Addr pc)
{
    // Fibonacci hash of the PC; the top 5 bits index the histogram.
    return static_cast<unsigned>((pc * 0x9E3779B97F4A7C15ULL) >> 59);
}

std::uint64_t
clampStride(std::uint64_t stride)
{
    return std::clamp<std::uint64_t>(stride, 10'000, 2'000'000);
}

std::string
memberFileName(std::uint64_t index)
{
    return "region-" + std::to_string(index) + ".snap";
}

std::string
hexU64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** A member's state sections, after its identity header. */
void
memberStateIo(snap::Archive &ar, ArchState &cursor, MemorySystem &memsys,
              MemoryImage &image)
{
    ar.tag("profile-cursor");
    cursor.io(ar);
    ar.tag("profile-mem");
    memsys.io(ar);
    ar.tag("profile-stats");
    memsys.stats().io(ar);
    ar.tag("profile-image");
    image.io(ar);
    ar.tag("profile-end");
}

/** Serialize one selected region's warm start state. The trailing u64
 *  is an XXH64 checksum over every preceding byte, so triage can
 *  reject arbitrary corruption without deserializing anything. The
 *  identity header is written from the library here and checked
 *  against the run's own identity in readMemberHeader(). */
std::vector<std::uint8_t>
serializeMember(const ProfileLibrary &lib, const ProfileRegion &region,
                ArchState &cursor, MemorySystem &memsys, MemoryImage &image)
{
    snap::Writer w;
    w.u64(snap::fileMagic);
    w.u32(snap::formatVersion);
    w.u8(kProfileKind);
    w.str(lib.preset);
    w.str(lib.model);
    w.str(lib.workload);
    w.u64(lib.fingerprint);
    w.u64(lib.configHash);
    w.u64(region.index);
    w.u64(region.startInsts);
    w.u64(region.startClock);
    snap::Archive ar(w);
    memberStateIo(ar, cursor, memsys, image);
    std::uint64_t sum = w.hash();
    w.u64(sum);
    return w.release();
}

bool
memberChecksumOk(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < 8)
        return false;
    std::size_t body = bytes.size() - 8;
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= static_cast<std::uint64_t>(bytes[body + i]) << (8 * i);
    return snap::hash64(bytes.data(), body) == stored;
}

/** Read and validate a member header against the run's identity;
 *  fatal() (trappable) on any mismatch. Leaves @p r at the start of
 *  the state sections. Callers pass the program's name and
 *  fingerprint rather than the Program so the fingerprint — a hash
 *  over every instruction and data byte — is computed once per run,
 *  not once per member. */
void
readMemberHeader(snap::Reader &r, const MachineConfig &config,
                 const std::string &programName,
                 std::uint64_t programFp, std::uint64_t configHash,
                 std::uint64_t &regionIndex, std::uint64_t &startInsts,
                 Cycle &startClock)
{
    fatal_if(r.u64() != snap::fileMagic,
             "profile member: bad magic (not a snapshot file?)");
    std::uint32_t version = r.u32();
    fatal_if(version != snap::formatVersion,
             "profile member: format version %u, this build reads %u",
             version, snap::formatVersion);
    std::uint8_t kind = r.u8();
    fatal_if(kind != kProfileKind,
             "profile member: snapshot kind %u is not a profile region",
             kind);
    std::string preset = r.str();
    fatal_if(preset != config.presetName,
             "profile member: preset '%s' where '%s' expected",
             preset.c_str(), config.presetName.c_str());
    std::string model = r.str();
    fatal_if(model != config.model,
             "profile member: core model '%s' where '%s' expected",
             model.c_str(), config.model.c_str());
    std::string workload = r.str();
    fatal_if(workload != programName,
             "profile member: workload '%s' where '%s' expected",
             workload.c_str(), programName.c_str());
    std::uint64_t fp = r.u64();
    fatal_if(fp != programFp,
             "profile member: program fingerprint %s does not match this "
             "program (%s)",
             hexU64(fp).c_str(), hexU64(programFp).c_str());
    std::uint64_t ch = r.u64();
    fatal_if(ch != configHash,
             "profile member: config hash %s where %s expected",
             hexU64(ch).c_str(), hexU64(configHash).c_str());
    regionIndex = r.u64();
    startInsts = r.u64();
    startClock = r.u64();
}

/** L1 distance between two normalized basic-block vectors. */
double
bbvDistance(const std::array<double, kBbvBuckets> &a,
            const std::array<double, kBbvBuckets> &b)
{
    double d = 0;
    for (unsigned i = 0; i < kBbvBuckets; ++i)
        d += std::abs(a[i] - b[i]);
    return d;
}

/**
 * Greedy k-center (farthest-first) selection over the region BBVs.
 * Deterministic: the seed center is the region nearest the global
 * mean, each following center is the region farthest from the chosen
 * set, and every tie breaks toward the lowest region index. Each
 * region is then assigned to its nearest center, whose weight
 * accumulates the assigned instruction counts.
 */
void
selectRegions(std::vector<ProfileRegion> &regions,
              const std::vector<std::array<double, kBbvBuckets>> &bbv,
              unsigned maxRegions)
{
    std::size_t n = regions.size();
    if (maxRegions == 0 || n <= maxRegions) {
        for (auto &r : regions) {
            r.selected = true;
            r.weight = r.lengthInsts;
        }
        return;
    }

    std::array<double, kBbvBuckets> mean{};
    for (const auto &row : bbv)
        for (unsigned i = 0; i < kBbvBuckets; ++i)
            mean[i] += row[i] / static_cast<double>(n);

    std::vector<std::size_t> centers;
    std::size_t seed = 0;
    double best = bbvDistance(bbv[0], mean);
    for (std::size_t i = 1; i < n; ++i) {
        double d = bbvDistance(bbv[i], mean);
        if (d < best) {
            best = d;
            seed = i;
        }
    }
    centers.push_back(seed);

    std::vector<double> minDist(n);
    for (std::size_t i = 0; i < n; ++i)
        minDist[i] = bbvDistance(bbv[i], bbv[seed]);
    while (centers.size() < maxRegions) {
        std::size_t far = 0;
        double farDist = -1;
        for (std::size_t i = 0; i < n; ++i) {
            if (minDist[i] > farDist) {
                farDist = minDist[i];
                far = i;
            }
        }
        if (farDist <= 0)
            break; // every region coincides with some center
        centers.push_back(far);
        for (std::size_t i = 0; i < n; ++i)
            minDist[i] = std::min(minDist[i], bbvDistance(bbv[i], bbv[far]));
    }
    std::sort(centers.begin(), centers.end());

    for (std::size_t c : centers)
        regions[c].selected = true;
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t rep = centers[0];
        double repDist = bbvDistance(bbv[i], bbv[centers[0]]);
        for (std::size_t c : centers) {
            double d = bbvDistance(bbv[i], bbv[c]);
            if (d < repDist) {
                repDist = d;
                rep = c;
            }
        }
        regions[rep].weight += regions[i].lengthInsts;
    }
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    out = v;
    return true;
}

std::string
trimWs(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Deterministic plain-text manifest (same key=value idiom as sweep
 *  manifests); written last so its presence marks a complete entry. */
std::string
manifestText(const ProfileLibrary &lib)
{
    std::ostringstream out;
    out << "# sstsim profile library\n";
    out << "schema = 1\n";
    out << "preset = " << lib.preset << "\n";
    out << "model = " << lib.model << "\n";
    out << "workload = " << lib.workload << "\n";
    out << "fingerprint = " << hexU64(lib.fingerprint) << "\n";
    out << "config_hash = " << hexU64(lib.configHash) << "\n";
    out << "region_insts = " << lib.regionInsts << "\n";
    out << "max_regions = " << lib.maxRegions << "\n";
    out << "warm_cpi = " << lib.warmCpi << "\n";
    out << "total_insts = " << lib.totalInsts << "\n";
    out << "warm_accesses = " << lib.warmAccesses << "\n";
    out << "warm_hits = " << lib.warmHits << "\n";
    out << "regions = " << lib.regions.size() << "\n";
    for (const ProfileRegion &r : lib.regions) {
        out << "region." << r.index << " = start=" << r.startInsts
            << " length=" << r.lengthInsts << " clock=" << r.startClock
            << " weight=" << r.weight << " selected="
            << (r.selected ? 1 : 0) << " member="
            << (r.selected ? memberFileName(r.index) : std::string("-"))
            << "\n";
    }
    return out.str();
}

Error
manifestError(const std::string &detail)
{
    return Error{"profile library manifest: " + detail};
}

/** Parse manifestText() output. Structural identity only; member
 *  bytes are loaded and triaged separately. */
Result<ProfileLibrary>
parseManifest(const std::string &text)
{
    ProfileLibrary lib;
    std::uint64_t schema = 0, regionCount = 0;
    std::uint64_t maxRegions = 0, warmCpi = 0;
    bool sawRegions = false;
    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        line = trimWs(line);
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            return manifestError("line " + std::to_string(lineNo)
                                 + ": expected key = value");
        std::string key = trimWs(line.substr(0, eq));
        std::string val = trimWs(line.substr(eq + 1));
        bool ok = true;
        if (key == "schema")
            ok = parseU64(val, schema);
        else if (key == "preset")
            lib.preset = val;
        else if (key == "model")
            lib.model = val;
        else if (key == "workload")
            lib.workload = val;
        else if (key == "fingerprint")
            ok = parseU64(val, lib.fingerprint);
        else if (key == "config_hash")
            ok = parseU64(val, lib.configHash);
        else if (key == "region_insts")
            ok = parseU64(val, lib.regionInsts);
        else if (key == "max_regions")
            ok = parseU64(val, maxRegions);
        else if (key == "warm_cpi")
            ok = parseU64(val, warmCpi);
        else if (key == "total_insts")
            ok = parseU64(val, lib.totalInsts);
        else if (key == "warm_accesses")
            ok = parseU64(val, lib.warmAccesses);
        else if (key == "warm_hits")
            ok = parseU64(val, lib.warmHits);
        else if (key == "regions") {
            ok = parseU64(val, regionCount);
            sawRegions = true;
        } else if (key.rfind("region.", 0) == 0) {
            ProfileRegion r;
            if (!parseU64(key.substr(7), r.index))
                return manifestError("bad region key '" + key + "'");
            std::istringstream fields(val);
            std::string tok;
            std::string memberName;
            while (fields >> tok) {
                std::size_t feq = tok.find('=');
                if (feq == std::string::npos)
                    return manifestError("region field '" + tok + "'");
                std::string fk = tok.substr(0, feq);
                std::string fv = tok.substr(feq + 1);
                std::uint64_t sel = 0;
                bool fok = true;
                if (fk == "start")
                    fok = parseU64(fv, r.startInsts);
                else if (fk == "length")
                    fok = parseU64(fv, r.lengthInsts);
                else if (fk == "clock")
                    fok = parseU64(fv, r.startClock);
                else if (fk == "weight")
                    fok = parseU64(fv, r.weight);
                else if (fk == "selected") {
                    fok = parseU64(fv, sel);
                    r.selected = sel != 0;
                } else if (fk == "member")
                    memberName = fv;
                else
                    return manifestError("unknown region field '" + fk
                                         + "'");
                if (!fok)
                    return manifestError("bad value in '" + tok + "'");
            }
            if (r.selected && memberName != memberFileName(r.index))
                return manifestError("region " + std::to_string(r.index)
                                     + " names unexpected member '"
                                     + memberName + "'");
            if (r.index != lib.regions.size())
                return manifestError("region entries out of order at "
                                     + key);
            lib.regions.push_back(std::move(r));
        } else {
            return manifestError("unknown key '" + key + "'");
        }
        if (!ok)
            return manifestError("bad value for '" + key + "'");
    }
    if (schema != 1)
        return manifestError("unsupported schema "
                             + std::to_string(schema));
    if (!sawRegions || lib.regions.size() != regionCount)
        return manifestError("region count mismatch");
    if (maxRegions > ~0u || warmCpi > ~0u)
        return manifestError("max_regions/warm_cpi out of range");
    lib.maxRegions = static_cast<unsigned>(maxRegions);
    lib.warmCpi = static_cast<unsigned>(warmCpi);
    return lib;
}

} // namespace

std::size_t
ProfileLibrary::usableCount() const
{
    std::size_t n = 0;
    for (const ProfileRegion &r : regions)
        if (r.selected && !r.member.empty())
            ++n;
    return n;
}

std::uint64_t
memConfigHash(const MachineConfig &config, const Config &effective)
{
    snap::Hasher h;
    auto mix = [&](const std::string &s) {
        h.mixU64(s.size());
        h.mix(s.data(), s.size());
    };
    mix(config.presetName);
    mix(config.model);
    for (const auto &[key, value] : effective.items()) {
        if (key.rfind("mem.", 0) != 0 && key.rfind("fault.", 0) != 0)
            continue;
        mix(key);
        mix(value);
    }
    return h.value();
}

std::uint64_t
profileRegionHint(std::uint64_t approxDynInsts)
{
    return clampStride(approxDynInsts / 16);
}

ProfileLibrary
buildProfileLibrary(const MachineConfig &config, const Program &program,
                    const ProfileParams &params, std::uint64_t configHash)
{
    fatal_if(params.warmCpi == 0, "profile: warmCpi must be positive");
    fatal_if(params.maxInsts == 0, "profile: maxInsts must be positive");

    fatal_if(params.regionInsts == 0,
             "profile: regionInsts must be resolved (ensureProfileLibrary "
             "resolves 0)");
    const std::uint64_t stride = params.regionInsts;

    ProfileLibrary lib;
    lib.preset = config.presetName;
    lib.model = config.model;
    lib.workload = program.name();
    lib.fingerprint = programFingerprint(program);
    lib.configHash = configHash;
    lib.regionInsts = stride;
    lib.maxRegions = params.maxRegions;
    lib.warmCpi = params.warmCpi;

    // Pass 1: pure functional execution collecting one basic-block
    // vector (PC histogram) per fixed-stride region.
    std::vector<std::array<std::uint64_t, kBbvBuckets>> counts;
    {
        MemoryImage image;
        image.loadSegments(program);
        Executor exec(program, image);
        ArchState cursor;
        std::uint64_t done = 0;
        while (!cursor.halted) {
            fatal_if(done >= params.maxInsts,
                     "profile: '%s' did not halt within %llu instructions",
                     program.name().c_str(),
                     static_cast<unsigned long long>(params.maxInsts));
            if (done % stride == 0)
                counts.push_back({});
            ++counts.back()[bbvBucket(cursor.pc)];
            exec.step(cursor);
            ++done;
        }
        lib.totalInsts = done;
    }
    fatal_if(counts.empty(), "profile: '%s' retired no instructions",
             program.name().c_str());

    std::vector<std::array<double, kBbvBuckets>> bbv(counts.size());
    lib.regions.resize(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        ProfileRegion &r = lib.regions[i];
        r.index = i;
        r.startInsts = i * stride;
        r.lengthInsts = std::min<std::uint64_t>(
            stride, lib.totalInsts - r.startInsts);
        std::uint64_t sum = 0;
        for (std::uint64_t c : counts[i])
            sum += c;
        for (unsigned b = 0; b < kBbvBuckets; ++b)
            bbv[i][b] = static_cast<double>(counts[i][b])
                        / static_cast<double>(sum);
    }

    selectRegions(lib.regions, bbv, params.maxRegions);

    // Pass 2: replay with cache warming — the warmStep() runSampled's
    // fast-forward takes — and serialize each selected region's start
    // state at its boundary.
    MemorySystem memsys(config.mem);
    CorePort &port = memsys.addCore();
    MemoryImage image;
    image.loadSegments(program);
    Executor exec(program, image);
    ArchState cursor;
    Cycle clock = 0;
    std::uint64_t done = 0;
    std::size_t next = 0;
    while (next < lib.regions.size() && !lib.regions[next].selected)
        ++next;
    while (!cursor.halted) {
        if (next < lib.regions.size()
            && done == lib.regions[next].startInsts) {
            ProfileRegion &r = lib.regions[next];
            r.startClock = clock;
            r.member = serializeMember(lib, r, cursor, memsys, image);
            do {
                ++next;
            } while (next < lib.regions.size()
                     && !lib.regions[next].selected);
        }
        warmStep(port, exec.step(cursor), params.warmCpi, clock,
                 lib.warmAccesses, lib.warmHits);
        ++done;
    }
    panic_if(done != lib.totalInsts,
             "profile: warming replay retired %llu insts, pass 1 saw %llu",
             static_cast<unsigned long long>(done),
             static_cast<unsigned long long>(lib.totalInsts));
    panic_if(next < lib.regions.size(),
             "profile: unreached selected region %llu",
             static_cast<unsigned long long>(lib.regions[next].index));
    return lib;
}

std::string
profileCacheDir(const std::string &cacheRoot, const MachineConfig &config,
                const Program &program, const ProfileParams &params,
                std::uint64_t configHash)
{
    snap::Hasher h;
    h.mixU64(programFingerprint(program));
    h.mixU64(configHash);
    h.mixU64(params.regionInsts);
    h.mixU64(params.maxRegions);
    h.mixU64(params.warmCpi);
    return cacheRoot + "/" + config.presetName + "-" + config.model + "-"
           + program.name() + "-" + hexU64(h.value()).substr(2);
}

Result<void>
saveProfileLibrary(const ProfileLibrary &library, const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return Error{"profile cache: cannot create '" + dir
                     + "': " + ec.message()};
    for (const ProfileRegion &r : library.regions) {
        if (!r.selected || r.member.empty())
            continue;
        auto w = snap::writeFile(dir + "/" + memberFileName(r.index),
                                 r.member);
        if (!w.ok())
            return w.error();
    }
    std::string text = manifestText(library);
    std::vector<std::uint8_t> bytes(text.begin(), text.end());
    return snap::writeFile(dir + "/" + kManifestName, bytes);
}

Result<ProfileLibrary>
loadProfileLibrary(const std::string &dir, const MachineConfig &config,
                   const Program &program, const ProfileParams &params,
                   std::uint64_t configHash)
{
    std::ifstream in(dir + "/" + kManifestName, std::ios::binary);
    if (!in)
        return Error{"no profile library at '" + dir + "'"};
    std::ostringstream text;
    text << in.rdbuf();
    auto parsed = parseManifest(text.str());
    if (!parsed.ok())
        return parsed.error();
    ProfileLibrary lib = parsed.take();

    const std::uint64_t programFp = programFingerprint(program);
    if (lib.preset != config.presetName || lib.model != config.model
        || lib.workload != program.name()
        || lib.fingerprint != programFp
        || lib.configHash != configHash
        || lib.regionInsts != params.regionInsts
        || lib.maxRegions != params.maxRegions
        || lib.warmCpi != params.warmCpi)
        return Error{"profile library at '" + dir
                     + "' was built for a different run identity"};

    for (ProfileRegion &r : lib.regions) {
        if (!r.selected)
            continue;
        std::string path = dir + "/" + memberFileName(r.index);
        auto skip = [&](const std::string &why) {
            warn("profile cache: %s: %s; skipping region %llu",
                 path.c_str(), why.c_str(),
                 static_cast<unsigned long long>(r.index));
            r.member.clear();
        };
        auto probe = snap::probeSnapshotFile(path);
        if (!probe.ok()) {
            skip(probe.error().message);
            continue;
        }
        auto bytes = snap::readFile(path);
        if (!bytes.ok()) {
            skip(bytes.error().message);
            continue;
        }
        if (!memberChecksumOk(bytes.value())) {
            skip("checksum mismatch (corrupt member)");
            continue;
        }
        const auto &data = bytes.value();
        auto header = trapFatal([&] {
            snap::Reader rd(data.data(), data.size() - 8);
            std::uint64_t index = 0, start = 0;
            Cycle clockAt = 0;
            readMemberHeader(rd, config, program.name(), programFp,
                             configHash, index, start, clockAt);
            fatal_if(index != r.index || start != r.startInsts
                         || clockAt != r.startClock,
                     "member header disagrees with the manifest");
        });
        if (!header.ok()) {
            skip(header.error().message);
            continue;
        }
        r.member = bytes.take();
    }
    if (lib.usableCount() == 0)
        return Error{"profile library at '" + dir
                     + "' has no usable members"};
    return lib;
}

Result<ProfileLibrary>
ensureProfileLibrary(const MachineConfig &config, const Program &program,
                     const ProfileParams &requested,
                     const std::string &cacheRoot, std::uint64_t configHash)
{
    ProfileParams params = requested;
    if (params.regionInsts == 0) {
        // The stride is part of the cache key, so resolve it first: one
        // functional counting pass, cut into profileRegionHint regions.
        MemoryImage countMem;
        countMem.loadSegments(program);
        Executor counter(program, countMem);
        ArchState countState;
        std::uint64_t n = counter.run(countState, params.maxInsts);
        if (!countState.halted)
            return Error{"program does not halt functionally within the "
                         "profiling budget",
                         exit_code::badInput};
        params.regionInsts = profileRegionHint(n);
    }
    if (cacheRoot.empty())
        return trapFatal(
            [&] { return buildProfileLibrary(config, program, params,
                                             configHash); });
    std::string dir =
        profileCacheDir(cacheRoot, config, program, params, configHash);
    if (auto cached =
            loadProfileLibrary(dir, config, program, params, configHash);
        cached.ok())
        return cached;
    auto built = trapFatal(
        [&] { return buildProfileLibrary(config, program, params,
                                         configHash); });
    if (!built.ok())
        return built.error();
    if (auto saved = saveProfileLibrary(built.value(), dir); !saved.ok())
        warn("profile cache: could not populate '%s': %s", dir.c_str(),
             saved.error().message.c_str());
    return built;
}

SampledResult
runSampledFromLibrary(const MachineConfig &config, const Program &program,
                      const ProfileLibrary &library,
                      const SampleParams &params)
{
    fatal_if(params.detailInsts == 0, "detailInsts must be positive");

    std::vector<const ProfileRegion *> picks;
    for (const ProfileRegion &r : library.regions)
        if (r.selected && !r.member.empty())
            picks.push_back(&r);
    fatal_if(picks.empty(), "profile library has no usable members");
    if (params.maxSamples != 0 && picks.size() > params.maxSamples) {
        std::stable_sort(picks.begin(), picks.end(),
                         [](const ProfileRegion *a, const ProfileRegion *b) {
                             return a->weight > b->weight;
                         });
        picks.resize(params.maxSamples);
        std::sort(picks.begin(), picks.end(),
                  [](const ProfileRegion *a, const ProfileRegion *b) {
                      return a->startInsts < b->startInsts;
                  });
    }

    SampledResult result;
    result.preset = config.presetName;
    result.warmAccesses = library.warmAccesses;
    result.warmHits = library.warmHits;
    double est_cycles = 0;
    std::uint64_t total_weight = 0;
    const std::uint64_t programFp = programFingerprint(program);
    for (const ProfileRegion *pick : picks) {
        MemorySystem memsys(config.mem);
        CorePort &port = memsys.addCore();
        MemoryImage image;
        ArchState cursor;
        snap::Reader rd(pick->member.data(), pick->member.size() - 8);
        std::uint64_t index = 0, start = 0;
        Cycle clock = 0;
        readMemberHeader(rd, config, program.name(), programFp,
                         library.configHash, index, start, clock);
        snap::Archive ar(rd);
        memberStateIo(ar, cursor, memsys, image);
        rd.done();

        auto core = runDetailedWindow(config, program, image, port,
                                      cursor, clock, params.detailInsts);
        std::uint64_t insts = core->instsRetired();
        Cycle cycles = core->cycles() - core->startCycle();
        fatal_if(insts == 0, "sampled window retired nothing");

        result.windowIpc.push_back(core->ipc());
        result.windowWeight.push_back(static_cast<double>(pick->weight));
        result.detailedInsts += insts;
        est_cycles += static_cast<double>(pick->weight)
                      * static_cast<double>(cycles)
                      / static_cast<double>(insts);
        total_weight += pick->weight;
    }
    result.skippedInsts = library.totalInsts > result.detailedInsts
                              ? library.totalInsts - result.detailedInsts
                              : 0;
    result.ipc = est_cycles > 0
                     ? static_cast<double>(total_weight) / est_cycles
                     : 0.0;
    result.reachedEnd = true;
    return result;
}

Result<void>
warmStartMachine(Machine &machine, const ProfileLibrary &library,
                 std::uint64_t targetInsts, std::uint64_t *startInsts)
{
    if (machine.core().cycles() != 0 || machine.core().instsRetired() != 0)
        return Error{"warm start requires a freshly built machine"};

    const ProfileRegion *pick = nullptr;
    for (const ProfileRegion &r : library.regions) {
        if (!r.selected || r.member.empty())
            continue;
        if (r.startInsts <= targetInsts
            && (!pick || r.startInsts > pick->startInsts))
            pick = &r;
    }
    if (!pick) {
        // Nothing at or below the target: fall back to the earliest
        // member rather than failing the run.
        for (const ProfileRegion &r : library.regions)
            if (r.selected && !r.member.empty()
                && (!pick || r.startInsts < pick->startInsts))
                pick = &r;
    }
    if (!pick)
        return Error{"profile library has no usable members"};

    return trapFatal([&] {
        snap::Reader rd(pick->member.data(), pick->member.size() - 8);
        std::uint64_t index = 0, start = 0;
        Cycle clock = 0;
        readMemberHeader(rd, machine.config(), machine.program().name(),
                         programFingerprint(machine.program()),
                         library.configHash, index, start, clock);
        ArchState cursor;
        snap::Archive ar(rd);
        memberStateIo(ar, cursor, machine.memsys(), machine.image());
        rd.done();
        machine.warmStart(cursor, clock);
        if (startInsts)
            *startInsts = start;
    });
}

} // namespace sst
