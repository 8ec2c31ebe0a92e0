/**
 * @file
 * Unit tests for the snap serialization layer: the Writer/Reader
 * primitives (including the on-the-wire little-endian byte layout the
 * cross-machine hash depends on), the corruption discipline (tag
 * mismatches and truncation are fatal, never silent), the XXH64 hash,
 * the atomic file helpers, save/load round trips of the leaf
 * components (Rng, Distribution, StatGroup, TraceBuffer), and the
 * Archive's load-side checks on corrupt counts and indices.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "mem/cache.hh"
#include "snap/snap.hh"
#include "trace/trace.hh"

using namespace sst;

namespace
{

/** Unique temp path per test (tests may run concurrently). */
std::string
tmpPath(const std::string &stem)
{
    return ::testing::TempDir() + "sstsim_" + stem + "_"
           + std::to_string(::getpid()) + ".snap";
}

/** Overwrite the little-endian u32 at @p at. */
void
poke32(std::vector<std::uint8_t> &bytes, std::size_t at, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

} // namespace

TEST(Snap, PrimitiveRoundTrip)
{
    snap::Writer w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.i32(-42);
    w.i64(-1234567890123LL);
    w.b(true);
    w.b(false);
    w.f64(3.14159265358979);
    w.str("hello");
    w.str("");
    const std::uint8_t raw[3] = {1, 2, 3};
    w.bytes(raw, sizeof raw);

    snap::Reader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_EQ(r.i64(), -1234567890123LL);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.f64(), 3.14159265358979);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.str(), "");
    std::uint8_t got[3] = {};
    r.bytes(got, sizeof got);
    EXPECT_EQ(got[0], 1);
    EXPECT_EQ(got[1], 2);
    EXPECT_EQ(got[2], 3);
    EXPECT_TRUE(r.atEnd());
    r.done();
}

/** The encoding is little-endian by definition, not by host accident —
 *  this is what makes snapshots and state hashes portable. */
TEST(Snap, LittleEndianLayout)
{
    snap::Writer w;
    w.u32(0x01020304u);
    ASSERT_EQ(w.size(), 4u);
    EXPECT_EQ(w.data()[0], 0x04);
    EXPECT_EQ(w.data()[1], 0x03);
    EXPECT_EQ(w.data()[2], 0x02);
    EXPECT_EQ(w.data()[3], 0x01);

    snap::Writer w2;
    w2.u64(0x1122334455667788ULL);
    ASSERT_EQ(w2.size(), 8u);
    EXPECT_EQ(w2.data()[0], 0x88);
    EXPECT_EQ(w2.data()[7], 0x11);
}

TEST(Snap, TagMismatchIsFatal)
{
    snap::Writer w;
    w.tag("caches");
    auto res = trapFatal([&] {
        snap::Reader r(w.data());
        r.tag("predictor");
    });
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.error().message.find("predictor"), std::string::npos);
}

TEST(Snap, TruncationIsFatal)
{
    snap::Writer w;
    w.u16(7);
    auto res = trapFatal([&] {
        snap::Reader r(w.data());
        (void)r.u64(); // only 2 bytes available
    });
    EXPECT_FALSE(res.ok());
}

TEST(Snap, TrailingGarbageIsFatal)
{
    snap::Writer w;
    w.u32(1);
    w.u8(0xcc); // one byte the reader will not consume
    auto res = trapFatal([&] {
        snap::Reader r(w.data());
        (void)r.u32();
        r.done();
    });
    EXPECT_FALSE(res.ok());
}

TEST(Snap, HasherMatchesOneShotHash)
{
    const char payload[] = "simultaneous speculative threading";
    snap::Hasher h;
    h.mix(payload, 10);
    h.mix(payload + 10, sizeof(payload) - 10);
    EXPECT_EQ(h.value(), snap::hash64(payload, sizeof(payload)));

    // Writer::hash() is the same function over the serialized bytes.
    snap::Writer w;
    w.str("abc");
    w.u64(99);
    EXPECT_EQ(w.hash(), snap::hash64(w.data().data(), w.size()));
}

/** XXH64 reference vectors at seed 0, so the hash is the published
 *  function and not merely a self-consistent one. The last input is
 *  39 bytes: one full stripe plus an 8-, a 4- and a 1-byte tail. */
TEST(Snap, Xxh64KnownAnswers)
{
    auto xxh = [](const std::string &s) {
        return snap::hash64(s.data(), s.size());
    };
    EXPECT_EQ(xxh(""), 0xef46db3751d8e999ULL);
    EXPECT_EQ(xxh("a"), 0xd24ec4f1a98c6e5bULL);
    EXPECT_EQ(xxh("abc"), 0x44bc2cf5ad770999ULL);
    EXPECT_EQ(xxh("Nobody inspects the spammish repetition"),
              0xfbcea83c8a378bf1ULL);
}

/** However a stream is cut, every hashing path gives hash64 of the
 *  whole: a Hasher fed random 0–97-byte pieces, a hashing Writer, and
 *  a buffered Writer's hash(). */
TEST(Snap, HashIsChunkInvariant)
{
    std::vector<std::uint8_t> buf(1 << 20);
    Rng fill(0xc0ffeeULL);
    for (std::uint8_t &byte : buf)
        byte = static_cast<std::uint8_t>(fill.next());
    const std::uint64_t whole = snap::hash64(buf.data(), buf.size());

    Rng split(17);
    snap::Hasher h;
    snap::Writer hashing = snap::Writer::hashing();
    snap::Writer buffered;
    for (std::size_t at = 0; at < buf.size();) {
        std::size_t n = std::min<std::size_t>(split.below(98),
                                              buf.size() - at);
        h.mix(buf.data() + at, n);
        hashing.bytes(buf.data() + at, n);
        buffered.bytes(buf.data() + at, n);
        at += n;
    }
    EXPECT_EQ(h.value(), whole);
    EXPECT_EQ(hashing.hash(), whole);
    EXPECT_EQ(buffered.hash(), whole);
    EXPECT_EQ(buffered.size(), buf.size());
}

TEST(Snap, FileRoundTrip)
{
    const std::string path = tmpPath("file_roundtrip");
    std::vector<std::uint8_t> bytes = {0, 1, 2, 254, 255, 0, 42};
    auto wr = snap::writeFile(path, bytes);
    ASSERT_TRUE(wr.ok()) << wr.error().message;
    auto rd = snap::readFile(path);
    ASSERT_TRUE(rd.ok()) << rd.error().message;
    EXPECT_EQ(rd.value(), bytes);
    std::remove(path.c_str());
}

TEST(Snap, ReadMissingFileIsAnError)
{
    auto rd = snap::readFile(tmpPath("no_such_file"));
    EXPECT_FALSE(rd.ok());
}

/** An Rng restored mid-stream must continue the exact stream. */
TEST(Snap, RngRoundTrip)
{
    Rng rng(0x1234abcdULL);
    for (int i = 0; i < 1000; ++i)
        (void)rng.next();

    snap::Writer w;
    snap::save(w, rng);
    std::vector<std::uint64_t> expect;
    for (int i = 0; i < 100; ++i)
        expect.push_back(rng.next());

    Rng other(999); // deliberately different seed
    snap::Reader r(w.data());
    snap::load(r, other);
    r.done();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(other.next(), expect[i]) << "draw " << i;
}

TEST(Snap, DistributionRoundTrip)
{
    Distribution d;
    d.init(100, 10);
    for (std::uint64_t v : {3ULL, 55ULL, 99ULL, 250ULL})
        d.sample(v);
    d.sample(7, 12); // bulk path

    snap::Writer w;
    snap::save(w, d);

    Distribution e;
    e.init(100, 10); // geometry is config, re-established by init()
    snap::Reader r(w.data());
    snap::load(r, e);
    r.done();

    EXPECT_EQ(e.count(), d.count());
    EXPECT_EQ(e.sum(), d.sum());
    EXPECT_EQ(e.maxSample(), d.maxSample());
    EXPECT_EQ(e.overflow(), d.overflow());
    EXPECT_EQ(e.buckets(), d.buckets());
    EXPECT_EQ(e.toJson(), d.toJson());
}

TEST(Snap, StatGroupRoundTripAndValidation)
{
    StatGroup g("core");
    Scalar &a = g.addScalar("insts", "retired");
    Scalar &b = g.addScalar("cycles", "elapsed");
    Distribution &d = g.addDist("occupancy", "dq occupancy", 64, 8);
    g.addFormula("ipc", "derived", [&] {
        return double(a.value()) / double(b.value() ? b.value() : 1);
    });
    a += 1000;
    b += 500;
    d.sample(13);

    snap::Writer w;
    snap::save(w, g);

    // Identically shaped tree: values transfer (and the formula,
    // being derived, recomputes from the restored scalars).
    StatGroup g2("core");
    Scalar &a2 = g2.addScalar("insts", "retired");
    Scalar &b2 = g2.addScalar("cycles", "elapsed");
    g2.addDist("occupancy", "dq occupancy", 64, 8);
    g2.addFormula("ipc", "derived", [&] {
        return double(a2.value()) / double(b2.value() ? b2.value() : 1);
    });
    {
        snap::Reader r(w.data());
        snap::load(r, g2);
        r.done();
    }
    EXPECT_EQ(a2.value(), 1000u);
    EXPECT_EQ(g2.flatten(), g.flatten());

    // Differently shaped tree: load is fatal, with the stat named.
    StatGroup g3("core");
    g3.addScalar("instructions", "renamed stat");
    g3.addScalar("cycles", "elapsed");
    g3.addDist("occupancy", "dq occupancy", 64, 8);
    auto res = trapFatal([&] {
        snap::Reader r(w.data());
        snap::load(r, g3);
    });
    EXPECT_FALSE(res.ok());
}

TEST(Snap, TraceBufferRoundTrip)
{
    // Small capacity so the test also exercises the overwrite cursors.
    trace::TraceBuffer buf(16);
    for (std::uint64_t i = 0; i < 32; ++i) {
        trace::TraceEvent e;
        e.cycle = 10 * i;
        e.pc = i;
        e.seq = i;
        e.arg = static_cast<std::uint32_t>(i * 3);
        e.kind = trace::TraceKind::Commit;
        e.strand = (i & 1) ? trace::TraceStrand::Ahead
                           : trace::TraceStrand::Main;
        buf.record(e);
    }

    snap::Writer w;
    snap::save(w, buf);

    trace::TraceBuffer other(16);
    snap::Reader r(w.data());
    snap::load(r, other);
    r.done();

    // Capacity is configuration, not state: a mismatch is fatal.
    trace::TraceBuffer wrongCap(32);
    auto res = trapFatal([&] {
        snap::Reader r2(w.data());
        snap::load(r2, wrongCap);
    });
    EXPECT_FALSE(res.ok());

    EXPECT_EQ(other.recorded(), buf.recorded());
    EXPECT_EQ(other.dropped(), buf.dropped());
    auto x = buf.snapshot();
    auto y = other.snapshot();
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].cycle, y[i].cycle);
        EXPECT_EQ(x[i].pc, y[i].pc);
        EXPECT_EQ(x[i].kind, y[i].kind);
    }
}

TEST(Snap, WriteFileReportsUnwritableTargets)
{
    // A parent path component that is a regular file fails for any
    // uid (ENOTDIR) — unlike permission-based setups, which evaporate
    // when the tests run as root.
    const std::string blocker = tmpPath("write_blocker");
    {
        auto wr = snap::writeFile(blocker, {1, 2, 3});
        ASSERT_TRUE(wr.ok()) << wr.error().message;
    }
    auto wr = snap::writeFile(blocker + "/nested.snap", {4, 5, 6});
    ASSERT_FALSE(wr.ok());
    EXPECT_NE(wr.error().message.find("cannot open"), std::string::npos)
        << wr.error().message;

    // A missing parent directory fails too, and leaves nothing behind.
    auto missing =
        snap::writeFile(blocker + "_no_such_dir/x.snap", {7});
    EXPECT_FALSE(missing.ok());
    std::remove(blocker.c_str());
}

TEST(Snap, WriteFileStagesThroughPerProcessTmp)
{
    // The staging file is pid-suffixed so two processes writing the
    // same checkpoint (a re-leased job's new worker racing its stalled
    // predecessor) never rename each other's half-written files, and
    // it must be gone once writeFile returns.
    const std::string path = tmpPath("write_stage");
    auto wr = snap::writeFile(path, {9, 9, 9});
    ASSERT_TRUE(wr.ok()) << wr.error().message;
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    EXPECT_FALSE(snap::readFile(tmp).ok())
        << "staging file must not survive";
    EXPECT_TRUE(snap::readFile(path).ok());
    std::remove(path.c_str());
}

TEST(Snap, ProbeSnapshotFileDiagnosesHeaderDamage)
{
    // Missing file.
    EXPECT_FALSE(snap::probeSnapshotFile(tmpPath("probe_none")).ok());

    // Too short to even hold the magic+version header: the torn-write
    // shape a SIGKILLed worker leaves behind without atomic staging.
    const std::string shortPath = tmpPath("probe_short");
    ASSERT_TRUE(snap::writeFile(shortPath, {1, 2, 3}).ok());
    auto shortProbe = snap::probeSnapshotFile(shortPath);
    ASSERT_FALSE(shortProbe.ok());
    EXPECT_NE(shortProbe.error().message.find("truncated"),
              std::string::npos)
        << shortProbe.error().message;
    std::remove(shortPath.c_str());

    // Right size, wrong magic.
    const std::string badPath = tmpPath("probe_badmagic");
    ASSERT_TRUE(
        snap::writeFile(badPath, std::vector<std::uint8_t>(32, 0xee))
            .ok());
    auto badProbe = snap::probeSnapshotFile(badPath);
    ASSERT_FALSE(badProbe.ok());
    EXPECT_NE(badProbe.error().message.find("bad magic"),
              std::string::npos)
        << badProbe.error().message;
    std::remove(badPath.c_str());

    // Good magic, future format version.
    snap::Writer w;
    w.u64(snap::fileMagic);
    w.u32(snap::formatVersion + 1);
    const std::string versPath = tmpPath("probe_version");
    ASSERT_TRUE(snap::writeFile(versPath, w.data()).ok());
    auto versProbe = snap::probeSnapshotFile(versPath);
    ASSERT_FALSE(versProbe.ok());
    EXPECT_NE(versProbe.error().message.find("format version"),
              std::string::npos)
        << versProbe.error().message;

    // A well-formed header passes the probe.
    snap::Writer good;
    good.u64(snap::fileMagic);
    good.u32(snap::formatVersion);
    ASSERT_TRUE(snap::writeFile(versPath, good.data()).ok());
    EXPECT_TRUE(snap::probeSnapshotFile(versPath).ok());
    std::remove(versPath.c_str());
}

/** A cache's per-set MRU way hint indexes its set unchecked on every
 *  lookup, so a corrupt hint must fail the load, not the next access. */
TEST(Snap, CorruptCacheMruWayIsFatal)
{
    StatGroup sg("t");
    CacheParams params{"c", 512, 2, 64, 3, ReplPolicy::Lru}; // 4 sets
    Cache c(params, sg);
    c.fill(0x100, 0, false);
    snap::Writer w;
    snap::save(w, c);

    // tag "cache" (u32 length + 5 bytes), line count, 8 lines of
    // 3 bools + 3 u64s, set count, then one u32 MRU way per set.
    const std::size_t firstWay = 4 + 5 + 4 + 8 * (3 + 24) + 4;
    std::vector<std::uint8_t> bytes = w.data();
    poke32(bytes, firstWay + 4, 0x7f7f7f7f);

    Cache fresh(params, sg);
    {
        snap::Reader r(w.data());
        snap::load(r, fresh); // the untouched bytes load cleanly
        r.done();
    }
    auto res = trapFatal([&] {
        snap::Reader r(bytes);
        snap::load(r, fresh);
    });
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.error().message.find("MRU way"), std::string::npos)
        << res.error().message;
}

/** A count prefix larger than the bytes left is corruption, rejected
 *  before the container is resized to it. */
TEST(Snap, CountBeyondStreamIsFatal)
{
    std::vector<std::uint64_t> v{1, 2, 3};
    auto walk = [](snap::Archive &ar, std::vector<std::uint64_t> &x) {
        ar.list(x, "test", [&](std::uint64_t &e) { ar.u64(e); });
    };
    snap::Writer w;
    snap::Archive out(w);
    walk(out, v);

    std::vector<std::uint64_t> back;
    {
        snap::Reader r(w.data());
        snap::Archive in(r);
        walk(in, back);
        r.done();
    }
    EXPECT_EQ(back, v);

    std::vector<std::uint8_t> bytes = w.data();
    poke32(bytes, 0, 0x7f7f7f7f);
    auto res = trapFatal([&] {
        snap::Reader r(bytes);
        snap::Archive in(r);
        walk(in, back);
    });
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.error().message.find("bytes left"), std::string::npos)
        << res.error().message;
}

/** A hashing Writer folds its bytes into the hash at every bytes() call
 *  and keeps no stream; its hash() must equal a buffering Writer's over
 *  the same writes, however the writes interleave with bulk blocks. */
TEST(Snap, HashingWriterMatchesBufferedHash)
{
    std::vector<std::uint8_t> block(10'000);
    for (std::size_t i = 0; i < block.size(); ++i)
        block[i] = static_cast<std::uint8_t>(i * 7);
    auto fill = [&](snap::Writer &w) {
        w.tag("section");
        for (std::uint64_t i = 0; i < 100; ++i) {
            w.u64(i * 0x9e3779b97f4a7c15ULL);
            w.u8(static_cast<std::uint8_t>(i));
            w.u16(static_cast<std::uint16_t>(i * 3));
            w.u32(static_cast<std::uint32_t>(i * 5));
            w.b(i % 2 == 0);
            if (i % 10 == 0)
                w.bytes(block.data(), block.size());
        }
        w.str("tail");
        w.f64(-0.5);
    };
    snap::Writer buffered;
    snap::Writer hashing = snap::Writer::hashing();
    fill(buffered);
    fill(hashing);
    EXPECT_EQ(hashing.hash(), buffered.hash());
    EXPECT_EQ(buffered.hash(),
              snap::hash64(buffered.data().data(), buffered.size()));
    EXPECT_LT(hashing.size(), 2'000u); // only bytes since the last fold
}
