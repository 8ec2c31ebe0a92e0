/**
 * @file
 * Versioned, endian-stable binary serialization of machine state.
 *
 * Every stateful simulator component exposes a save(Writer&)/load(Reader&)
 * pair built on these two classes. The encoding is deliberately dumb:
 * fixed-width little-endian integers, length-prefixed strings, and
 * explicit tag markers at section boundaries so a corrupt or mismatched
 * snapshot fails with a named location instead of silently misaligned
 * reads. Writer output is a pure function of the saved state — no
 * pointers, no map iteration order, no host endianness — which is what
 * makes the FNV state hash (and the `sstsim diff` divergence search
 * built on it) meaningful across processes and machines.
 *
 * Error discipline: Reader failures call fatal(), matching the repo's
 * convention for bad user input; CLI entry points wrap restore paths in
 * trapFatal() to convert them into exit codes.
 */

#ifndef SSTSIM_SNAP_SNAP_HH
#define SSTSIM_SNAP_SNAP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hh"

namespace sst::snap
{

/** Bump on any incompatible change to a component's save() layout. */
constexpr std::uint32_t formatVersion =
    5; // v5: one chip format for any core count (a Machine is a
       // one-core chip); CPI stack carries provisional cycles

/** Leading bytes of every snapshot file. */
constexpr std::uint64_t fileMagic = 0x30504e53'54535353ULL; // "SSSTSNP0"

/** FNV-1a 64-bit over @p len bytes, chained from @p seed. */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/** Incremental FNV-1a accumulator for component-wise state hashing. */
class Hasher
{
  public:
    void mix(const void *data, std::size_t len)
    {
        hash_ = fnv1a(data, len, hash_);
    }
    void mixU64(std::uint64_t v);
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Append-only little-endian encoder. */
class Writer
{
  public:
    // The fixed-width writers are inline: cache and image save loops
    // emit millions of these and the call overhead across translation
    // units would dominate the actual byte stores.
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }
    void u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void f64(double v);
    void str(const std::string &s);
    void bytes(const void *data, std::size_t len);

    /** Section marker; Reader::tag() verifies it by name. */
    void tag(const char *name);

    const std::vector<std::uint8_t> &data() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

    /** FNV-1a over everything written so far. */
    std::uint64_t hash() const;

  private:
    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked little-endian decoder over a byte span. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    explicit Reader(const std::vector<std::uint8_t> &buf)
        : Reader(buf.data(), buf.size())
    {
    }

    // Inline for the same reason as the Writer side: restoring a warm
    // cache snapshot decodes six fields per line, and an out-of-line
    // call per field makes restore several times slower than the
    // underlying memory traffic. Only the cold failure paths stay in
    // the .cc file.
    std::uint8_t u8()
    {
        need(1);
        return data_[pos_++];
    }
    std::uint16_t u16()
    {
        need(2);
        std::uint16_t v =
            static_cast<std::uint16_t>(data_[pos_]) |
            static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
        pos_ += 2;
        return v;
    }
    std::uint32_t u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        return v;
    }
    std::uint64_t u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return v;
    }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool b()
    {
        std::uint8_t v = u8();
        if (v > 1)
            failBool(v);
        return v != 0;
    }
    double f64();
    std::string str();
    void bytes(void *out, std::size_t len);

    /** Consume a tag written by Writer::tag(); fatal on mismatch. */
    void tag(const char *name);

    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

    /** Assert the whole buffer was consumed (trailing garbage check). */
    void done() const;

  private:
    void need(std::size_t n) const
    {
        if (size_ - pos_ < n) [[unlikely]]
            failNeed(n);
    }
    [[noreturn]] void failNeed(std::size_t n) const;
    [[noreturn]] void failBool(std::uint8_t v) const;

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** Write @p bytes to @p path atomically and durably (tmp file + fsync
 *  + rename + fsync of the containing directory, so the replacement
 *  survives power loss, not just process death). */
Result<void> writeFile(const std::string &path,
                       const std::vector<std::uint8_t> &bytes);

/** Read a whole file into memory. */
Result<std::vector<std::uint8_t>> readFile(const std::string &path);

/**
 * Cheap sanity probe of a snapshot file: checks only the leading magic
 * and format version, without reading component state. Used to decide
 * whether a checkpoint handed off from a crashed worker is worth
 * attempting a full (fatal-on-corruption) restore from.
 */
Result<void> probeSnapshotFile(const std::string &path);

} // namespace sst::snap

#endif // SSTSIM_SNAP_SNAP_HH
