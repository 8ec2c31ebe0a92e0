#include "snap/snap.hh"

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"

namespace sst::snap
{

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace
{

// XXH64's five primes, from the specification.
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

/** Little-endian load, whatever the host's byte order. A plain load
 *  where that is the host's order: GCC leaves the byte loop a loop. */
template <typename U>
U
loadLe(const std::uint8_t *p)
{
    U v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof(v));
    } else {
        for (std::size_t i = 0; i < sizeof(U); ++i)
            v |= static_cast<U>(p[i]) << (8 * i);
    }
    return v;
}

std::uint64_t
xxRound(std::uint64_t acc, std::uint64_t input)
{
    acc += input * kPrime2;
    return std::rotl(acc, 31) * kPrime1;
}

std::uint64_t
xxMerge(std::uint64_t h, std::uint64_t lane)
{
    h ^= xxRound(0, lane);
    return h * kPrime1 + kPrime4;
}

/** Fold whole 32-byte stripes of @p p into @p lanes; returns the bytes
 *  consumed (a multiple of 32, at most @p len). */
std::size_t
xxStripes(std::uint64_t lanes[4], const std::uint8_t *p, std::size_t len)
{
    std::uint64_t v1 = lanes[0], v2 = lanes[1], v3 = lanes[2],
                  v4 = lanes[3];
    std::size_t done = 0;
    for (; len - done >= 32; done += 32) {
        v1 = xxRound(v1, loadLe<std::uint64_t>(p + done));
        v2 = xxRound(v2, loadLe<std::uint64_t>(p + done + 8));
        v3 = xxRound(v3, loadLe<std::uint64_t>(p + done + 16));
        v4 = xxRound(v4, loadLe<std::uint64_t>(p + done + 24));
    }
    lanes[0] = v1;
    lanes[1] = v2;
    lanes[2] = v3;
    lanes[3] = v4;
    return done;
}

} // namespace

Hasher::Hasher() : lanes_{kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1} {}

void
Hasher::mix(const void *data, std::size_t len)
{
    if (len == 0)
        return; // data may be null (an empty vector's)
    const auto *p = static_cast<const std::uint8_t *>(data);
    total_ += len;
    if (bufLen_ + len < sizeof(buf_)) {
        std::memcpy(buf_ + bufLen_, p, len);
        bufLen_ += static_cast<std::uint32_t>(len);
        return;
    }
    if (bufLen_ > 0) {
        std::size_t fill = sizeof(buf_) - bufLen_;
        std::memcpy(buf_ + bufLen_, p, fill);
        xxStripes(lanes_, buf_, sizeof(buf_));
        p += fill;
        len -= fill;
        bufLen_ = 0;
    }
    std::size_t done = xxStripes(lanes_, p, len);
    bufLen_ = static_cast<std::uint32_t>(len - done);
    std::memcpy(buf_, p + done, bufLen_);
}

void
Hasher::mixU64(std::uint64_t v)
{
    std::uint8_t le[8];
    for (int i = 0; i < 8; ++i)
        le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    mix(le, sizeof(le));
}

std::uint64_t
Hasher::value() const
{
    std::uint64_t h;
    if (total_ >= 32) {
        h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7)
            + std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
        for (std::uint64_t lane : lanes_)
            h = xxMerge(h, lane);
    } else {
        h = kPrime5;
    }
    h += total_;

    const std::uint8_t *p = buf_;
    std::size_t len = bufLen_;
    for (; len >= 8; p += 8, len -= 8) {
        h ^= xxRound(0, loadLe<std::uint64_t>(p));
        h = std::rotl(h, 27) * kPrime1 + kPrime4;
    }
    if (len >= 4) {
        h ^= loadLe<std::uint32_t>(p) * kPrime1;
        h = std::rotl(h, 23) * kPrime2 + kPrime3;
        p += 4;
        len -= 4;
    }
    for (; len > 0; ++p, --len) {
        h ^= *p * kPrime5;
        h = std::rotl(h, 11) * kPrime1;
    }

    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
}

void
Writer::f64(double v)
{
    // Bit pattern, not text: exact round trip including -0.0 and NaN.
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Writer::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
}

void
Writer::bytes(const void *data, std::size_t len)
{
    if (hashOnly_) {
        folded_.mix(buf_.data(), buf_.size());
        folded_.mix(data, len);
        buf_.clear();
        return;
    }
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf_.insert(buf_.end(), p, p + len);
}

void
Writer::tag(const char *name)
{
    str(name);
}

std::uint64_t
Writer::hash() const
{
    Hasher h = folded_;
    h.mix(buf_.data(), buf_.size());
    return h.value();
}

void
Reader::failNeed(std::size_t n) const
{
    fatal("snapshot: truncated stream (need %zu bytes at offset %zu, "
          "have %zu)",
          n, pos_, size_ - pos_);
}

void
Reader::failBool(std::uint8_t v) const
{
    fatal("snapshot: bad bool encoding 0x%02x at offset %zu", v, pos_ - 1);
}

double
Reader::f64()
{
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Reader::str()
{
    std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char *>(data_ + pos_), len);
    pos_ += len;
    return s;
}

void
Reader::bytes(void *out, std::size_t len)
{
    need(len);
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
}

void
Reader::tag(const char *name)
{
    std::size_t at = pos_;
    std::string got = str();
    fatal_if(got != name,
             "snapshot: expected section '%s' at offset %zu, found '%s' "
             "(corrupt or incompatible snapshot)",
             name, at, got.c_str());
}

void
Reader::done() const
{
    fatal_if(pos_ != size_,
             "snapshot: %zu trailing bytes after last section (corrupt or "
             "incompatible snapshot)",
             size_ - pos_);
}

void
Archive::f64(double &v)
{
    if (w_)
        w_->f64(v);
    else
        v = r_->f64();
}

void
Archive::str(std::string &s)
{
    if (w_)
        w_->str(s);
    else
        s = r_->str();
}

void
Archive::bytes(void *data, std::size_t len)
{
    if (w_)
        w_->bytes(data, len);
    else
        r_->bytes(data, len);
}

void
Archive::tag(const char *name)
{
    if (w_)
        w_->tag(name);
    else
        r_->tag(name);
}

void
Archive::check(const std::string &have, const std::string &what)
{
    if (w_) {
        w_->str(have);
        return;
    }
    std::string got = r_->str();
    fatal_if(got != have,
             "snapshot: %s '%s' where '%s' expected (configuration "
             "mismatch)",
             what.c_str(), got.c_str(), have.c_str());
}

void
Archive::failRange(const char *what, std::uint64_t v,
                   std::uint64_t bound) const
{
    fatal("snapshot: bad %s %llu, want below %llu (corrupt snapshot)",
          what, static_cast<unsigned long long>(v),
          static_cast<unsigned long long>(bound));
}

void
Archive::failCheck(const std::string &what, std::uint64_t got,
                   std::uint64_t want) const
{
    fatal("snapshot: %s is %llu, expected %llu (configuration mismatch)",
          what.c_str(), static_cast<unsigned long long>(got),
          static_cast<unsigned long long>(want));
}

void
Archive::failCount(const char *what, std::uint64_t n,
                   std::uint64_t max) const
{
    if (n > max)
        fatal("snapshot: %llu %s entries exceed the limit of %llu "
              "(corrupt snapshot or configuration mismatch)",
              static_cast<unsigned long long>(n), what,
              static_cast<unsigned long long>(max));
    fatal("snapshot: %llu %s entries cannot fit in the %zu bytes left "
          "(corrupt snapshot)",
          static_cast<unsigned long long>(n), what, r_->remaining());
}

void
Archive::failOrder(const char *what) const
{
    fatal("snapshot: %s keys out of order (corrupt snapshot)", what);
}

Result<void>
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    // tmp + fsync + rename + directory fsync: the rename makes the
    // replacement atomic against process death, and the two fsyncs
    // extend that to power loss — without the directory fsync the
    // rename itself can be lost, leaving a stale (or no) checkpoint
    // after the machine comes back. The pid plus a per-process serial
    // in the tmp name keeps concurrent writers of the same target — a
    // re-leased job's new worker racing its stalled predecessor, or
    // two pool threads populating one profile-cache entry — from
    // renaming each other's half-written staging files into place.
    static std::atomic<unsigned long> writeSerial{0};
    std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "."
        + std::to_string(
            writeSerial.fetch_add(1, std::memory_order_relaxed));
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return Error{"cannot open '" + tmp + "' for writing: "
                     + std::strerror(errno)};
    std::size_t done = 0;
    while (done < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            int err = errno;
            ::close(fd);
            std::remove(tmp.c_str());
            return Error{"short write to '" + tmp + "': "
                         + std::strerror(err)};
        }
        done += static_cast<std::size_t>(n);
    }
    bool synced = ::fsync(fd) == 0;
    bool closed = ::close(fd) == 0;
    if (!synced || !closed) {
        std::remove(tmp.c_str());
        return Error{"cannot sync '" + tmp + "': " + std::strerror(errno)};
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        int err = errno;
        std::remove(tmp.c_str());
        return Error{"cannot rename '" + tmp + "' to '" + path + "': "
                     + std::strerror(err)};
    }
    // Persist the rename: fsync the containing directory. Failure here
    // is reported (the caller may retry elsewhere) but the file content
    // itself is already safely in place for process-death crashes.
    std::size_t slash = path.find_last_of('/');
    std::string dir = slash == std::string::npos ? "."
                                                 : path.substr(0, slash);
    if (dir.empty())
        dir = "/";
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0)
        return Error{"cannot open directory '" + dir + "' to sync '"
                     + path + "': " + std::strerror(errno)};
    bool dirSynced = ::fsync(dfd) == 0;
    int err = errno;
    ::close(dfd);
    if (!dirSynced)
        return Error{"cannot sync directory '" + dir + "' after writing '"
                     + path + "': " + std::strerror(err)};
    return {};
}

Result<void>
probeSnapshotFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return Error{"cannot open snapshot '" + path + "'"};
    std::uint8_t head[12];
    std::size_t got = std::fread(head, 1, sizeof(head), f);
    std::fclose(f);
    if (got != sizeof(head))
        return Error{"snapshot '" + path + "' is truncated ("
                     + std::to_string(got) + " bytes)"};
    Reader r(head, sizeof(head));
    if (r.u64() != fileMagic)
        return Error{"snapshot '" + path + "' has bad magic (not a "
                     "snapshot file, or a torn write)"};
    if (std::uint32_t v = r.u32(); v != formatVersion)
        return Error{"snapshot '" + path + "' is format version "
                     + std::to_string(v) + ", this build reads "
                     + std::to_string(formatVersion)};
    return {};
}

Result<std::vector<std::uint8_t>>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return Error{"cannot open snapshot '" + path + "'"};
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    if (size < 0) {
        std::fclose(f);
        return Error{"cannot size snapshot '" + path + "'"};
    }
    std::fseek(f, 0, SEEK_SET);
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(size));
    std::size_t got =
        buf.empty() ? 0 : std::fread(buf.data(), 1, buf.size(), f);
    std::fclose(f);
    if (got != buf.size())
        return Error{"short read from snapshot '" + path + "'"};
    return buf;
}

} // namespace sst::snap
