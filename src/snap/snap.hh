/**
 * @file
 * Versioned, endian-stable binary serialization of machine state.
 *
 * Every stateful simulator component exposes one io(Archive&) that
 * lists its serialized fields in order. An Archive wraps either a
 * Writer or a Reader, so the same walk saves and loads and the two
 * directions cannot drift apart: `ar.u64(field)` writes the field when
 * saving and reads into it when loading. The encoding is deliberately
 * dumb: fixed-width little-endian integers, length-prefixed strings,
 * and explicit tag markers at section boundaries so a corrupt or
 * mismatched snapshot fails with a named location instead of silently
 * misaligned reads. Writer output is a pure function of the saved
 * state — no pointers, no map iteration order, no host endianness —
 * which is what makes the FNV state hash (and the `sstsim diff`
 * divergence search built on it) meaningful across processes and
 * machines.
 *
 * Error discipline: Reader failures call fatal(), matching the repo's
 * convention for bad user input; CLI entry points wrap restore paths in
 * trapFatal() to convert them into exit codes.
 */

#ifndef SSTSIM_SNAP_SNAP_HH
#define SSTSIM_SNAP_SNAP_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hh"

namespace sst::snap
{

/** Bump on any incompatible change to a component's io() layout. */
constexpr std::uint32_t formatVersion =
    6; // v6: SST cores carry the youngest epoch's deferral count
       // (v5: one chip format for any core count; CPI stack carries
       // provisional cycles)

/** Leading bytes of every snapshot file. */
constexpr std::uint64_t fileMagic = 0x30504e53'54535353ULL; // "SSSTSNP0"

/** FNV-1a 64-bit offset basis. */
constexpr std::uint64_t fnvBasis = 0xcbf29ce484222325ULL;

/** FNV-1a 64-bit over @p len bytes, chained from @p seed. */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t seed = fnvBasis);

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
    std::uint64_t hash_ = fnvBasis;
};

/** Append-only little-endian encoder. */
class Writer
{
  public:
    /** A Writer that keeps no stream, only its hash(): buffered bytes
     *  are folded into the FNV state at every bytes() call (so a
     *  memory image's pages are hashed in place, never copied), and
     *  hash() equals a plain Writer's over the same writes. data() and
     *  release() hold only the bytes since the last fold. */
    static Writer hashing()
    {
        Writer w;
        w.hashOnly_ = true;
        return w;
    }

    // The fixed-width writers are inline: cache and image save loops
    // emit millions of these and the call overhead across translation
    // units would dominate the actual byte stores.
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { put(v); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }
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
    /** Make room for @p n more bytes in one allocation. */
    void reserve(std::size_t n)
    {
        if (!hashOnly_)
            buf_.reserve(buf_.size() + n);
    }
    /** Move the stream out; write nothing more afterwards. */
    std::vector<std::uint8_t> release() { return std::move(buf_); }

    /** FNV-1a over everything written so far. */
    std::uint64_t hash() const;

  private:
    /** Append @p v little-endian with one capacity check, not one per
     *  byte. */
    template <typename U>
    void put(U v)
    {
        std::uint8_t le[sizeof(U)];
        for (std::size_t i = 0; i < sizeof(U); ++i)
            le[i] = static_cast<std::uint8_t>(v >> (8 * i));
        buf_.insert(buf_.end(), le, le + sizeof(U));
    }

    std::vector<std::uint8_t> buf_;
    bool hashOnly_ = false;
    /** FNV-1a state of the bytes already folded out of buf_. */
    std::uint64_t folded_ = fnvBasis;
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

/**
 * One field walk for both directions: wraps a Writer (saving) or a
 * Reader (loading). Each field method writes the field when saving and
 * assigns it when loading; integer fields of any integral or enum type
 * travel at the method's wire width. The helpers below cover the
 * shapes that recur across components, each with the Reader-side check
 * that keeps a corrupt or mismatched snapshot from being applied.
 */
class Archive
{
  public:
    explicit Archive(Writer &w) : w_(&w) {}
    explicit Archive(Reader &r) : r_(&r) {}

    /** For a component whose two directions share no loop (only
     *  MemoryImage): dispatch to its own save()/load(). */
    bool saving() const { return w_ != nullptr; }
    Writer &writer() { return *w_; }
    Reader &reader() { return *r_; }

    template <typename T> void u8(T &v) { io<std::uint8_t>(v); }
    template <typename T> void u16(T &v) { io<std::uint16_t>(v); }
    template <typename T> void u32(T &v) { io<std::uint32_t>(v); }
    template <typename T> void u64(T &v) { io<std::uint64_t>(v); }
    template <typename T> void i32(T &v) { io<std::int32_t>(v); }
    template <typename T> void i64(T &v) { io<std::int64_t>(v); }
    void b(bool &v)
    {
        if (w_)
            w_->b(v);
        else
            v = r_->b();
    }
    void f64(double &v);
    void str(std::string &s);
    void bytes(void *data, std::size_t len);
    void tag(const char *name);

    /** A value stored through its `encode()` / `T::decode()` pair
     *  (an Inst travels as its 64-bit encoding). */
    template <typename T>
    void encoded(T &v)
    {
        if (w_)
            w_->u64(v.encode());
        else
            v = T::decode(r_->u64());
    }

    /** An enum stored as u8; the Reader rejects values >= @p end. */
    template <typename E>
    void enum8(E &e, E end, const char *what)
    {
        std::uint8_t v = static_cast<std::uint8_t>(e);
        u8(v);
        if (r_) {
            if (v >= static_cast<std::uint8_t>(end)) [[unlikely]]
                failRange(what, v, static_cast<std::uint64_t>(end));
            e = static_cast<E>(v);
        }
    }

    /** A u32 index the Reader rejects unless it is below @p bound. */
    void index32(std::uint32_t &v, std::uint64_t bound, const char *what)
    {
        u32(v);
        if (r_ && v >= bound) [[unlikely]]
            failRange(what, v, bound);
    }

    /** Configuration, not state: the Writer writes @p have, the Reader
     *  fails naming @p what unless it reads the same value back. N is
     *  the wire width. */
    template <typename N = std::uint32_t>
    void check(std::uint64_t have, const std::string &what)
    {
        static_assert(sizeof(N) == 4 || sizeof(N) == 8);
        N v = static_cast<N>(have);
        io<N>(v);
        if (r_ && v != have) [[unlikely]]
            failCheck(what, v, have);
    }
    void check(const std::string &have, const std::string &what);

    /**
     * A variable-length container behind a count prefix: the Writer
     * writes `c.size()`; the Reader reads a count, rejects one above
     * @p max or above the bytes left in the stream (corrupt snapshot),
     * and clears and resizes @p c to it. Then @p each walks every
     * element. N is the count's wire width.
     */
    template <typename N = std::uint32_t, typename C, typename F>
    void list(C &c, const char *what, std::uint64_t max, F &&each)
    {
        std::uint64_t n = count<N>(c.size(), what, max);
        if (r_) {
            c.clear();
            c.resize(static_cast<std::size_t>(n));
        }
        for (auto &e : c)
            each(e);
    }
    template <typename N = std::uint32_t, typename C, typename F>
    void list(C &c, const char *what, F &&each)
    {
        list<N>(c, what, ~std::uint64_t{0}, each);
    }

    /** A container of fixed extent (configuration): its size is
     *  written and checked as by check(), then @p each walks every
     *  element. */
    template <typename N = std::uint32_t, typename C, typename F>
    void fixed(C &c, const std::string &what, F &&each)
    {
        check<N>(c.size(), what);
        for (auto &e : c)
            each(e);
    }

    /** An unordered set of u64 keys, emitted in ascending order so equal
     *  state serializes (and hashes) equally; the Reader rejects keys
     *  out of order. */
    template <typename N = std::uint32_t, typename Set>
    void sortedSet(Set &s, const char *what)
    {
        if (w_) {
            std::vector<std::uint64_t> keys(s.begin(), s.end());
            std::sort(keys.begin(), keys.end());
            count<N>(keys.size(), what);
            for (std::uint64_t key : keys)
                w_->u64(key);
            return;
        }
        std::uint64_t n = count<N>(0, what);
        s.clear();
        s.reserve(n); // one rehash, not log2(n) incremental ones
        for (std::uint64_t i = 0, prev = 0; i < n; ++i)
            s.insert(orderedKey(i, prev, what));
    }

    /** An unordered map from u64 keys, emitted like sortedSet();
     *  @p value walks one mapped value. */
    template <typename N = std::uint32_t, typename Map, typename F>
    void sortedMap(Map &m, const char *what, F &&value)
    {
        if (w_) {
            std::vector<std::uint64_t> keys;
            keys.reserve(m.size());
            for (const auto &kv : m)
                keys.push_back(kv.first);
            std::sort(keys.begin(), keys.end());
            count<N>(keys.size(), what);
            for (std::uint64_t key : keys) {
                w_->u64(key);
                value(m.at(key));
            }
            return;
        }
        std::uint64_t n = count<N>(0, what);
        m.clear();
        m.reserve(n);
        for (std::uint64_t i = 0, prev = 0; i < n; ++i) {
            std::uint64_t key = orderedKey(i, prev, what);
            typename Map::mapped_type v{};
            value(v);
            m.emplace(key, v);
        }
    }

  private:
    template <typename W, typename T>
    void io(T &v)
    {
        if (w_) {
            W x = static_cast<W>(v);
            if constexpr (sizeof(W) == 1)
                w_->u8(x);
            else if constexpr (sizeof(W) == 2)
                w_->u16(x);
            else if constexpr (sizeof(W) == 4)
                w_->u32(static_cast<std::uint32_t>(x));
            else
                w_->u64(static_cast<std::uint64_t>(x));
        } else {
            W x;
            if constexpr (sizeof(W) == 1)
                x = r_->u8();
            else if constexpr (sizeof(W) == 2)
                x = r_->u16();
            else if constexpr (sizeof(W) == 4)
                x = static_cast<W>(r_->u32());
            else
                x = static_cast<W>(r_->u64());
            v = static_cast<T>(x);
        }
    }

    /** Count prefix at wire width N; the Reader bounds it by @p max
     *  and by the bytes left (every element takes at least one). */
    template <typename N>
    std::uint64_t count(std::uint64_t have, const char *what,
                        std::uint64_t max = ~std::uint64_t{0})
    {
        static_assert(sizeof(N) == 4 || sizeof(N) == 8);
        N n = static_cast<N>(have);
        io<N>(n);
        if (r_ && (n > max || n > r_->remaining())) [[unlikely]]
            failCount(what, n, max);
        return n;
    }

    std::uint64_t orderedKey(std::uint64_t i, std::uint64_t &prev,
                             const char *what)
    {
        std::uint64_t key = r_->u64();
        if (i > 0 && key <= prev) [[unlikely]]
            failOrder(what);
        prev = key;
        return key;
    }

    [[noreturn]] void failRange(const char *what, std::uint64_t v,
                                std::uint64_t bound) const;
    [[noreturn]] void failCheck(const std::string &what, std::uint64_t got,
                                std::uint64_t want) const;
    [[noreturn]] void failCount(const char *what, std::uint64_t n,
                                std::uint64_t max) const;
    [[noreturn]] void failOrder(const char *what) const;

    Writer *w_ = nullptr;
    Reader *r_ = nullptr;
};

/** Save @p x through its io() walk (which does not modify it). */
template <typename T>
void
save(Writer &w, const T &x)
{
    Archive ar(w);
    const_cast<T &>(x).io(ar);
}

/** Load @p x through its io() walk. */
template <typename T>
void
load(Reader &r, T &x)
{
    Archive ar(r);
    x.io(ar);
}

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
