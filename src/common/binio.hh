/**
 * @file
 * Fixed-layout binary serialization shared by the write-ahead event
 * journal and the checkpoint/restore machinery (engine/journal,
 * engine/checkpoint).  Every multi-byte value is written little-endian
 * byte by byte, so the on-disk format is identical across hosts, and
 * doubles round-trip through their IEEE-754 bit patterns — the property
 * the crash-recovery tests rely on for bit-identical resumed reports.
 *
 * There are exactly two archives, ByteWriter and ByteReader, and they
 * share one call surface: every wire record is described once, by a
 * `template <class Ar> void io(Ar &, T &)` field list (or a member
 * `io(Ar &)`), that writes through a ByteWriter and reads through a
 * ByteReader.  The writer takes each field by value; the reader takes
 * it by reference and fills it in.  Ar::kReading tells the two apart
 * where a record's wire is genuinely asymmetric (sorted emission of a
 * hash map, derived indexes rebuilt after a read).
 *
 * ByteReader is deliberately paranoid: every read is bounds-checked,
 * counts are bounded by the bytes left before anything is allocated,
 * and enum and flag bytes are range-checked; each failure raises
 * fatal() with the exact byte offset, so a truncated or gnawed-on file
 * can never be silently half-parsed.
 */

#ifndef EDGEREASON_COMMON_BINIO_HH
#define EDGEREASON_COMMON_BINIO_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "common/logging.hh"

namespace edgereason {

/** Append-only little-endian byte buffer: the writing archive. */
class ByteWriter
{
  public:
    static constexpr bool kReading = false;

    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /** IEEE-754 bit pattern: exact double round-trip. */
    void f64(double v);
    /** Length-prefixed string (u32 length + raw bytes). */
    void str(std::string_view s);

    // --- Field-list calls (ByteReader has the reading twins) --------
    /** A bool as one byte, 0 or 1. */
    void flag(bool b) { u8(b ? 1 : 0); }
    /** An enum (or small integer) as one byte; @p max bounds the read. */
    template <class E>
    void enum8(E v, E max)
    {
        (void)max;
        u8(static_cast<std::uint8_t>(v));
    }
    /** A u64 element count, then @p each over every element. */
    template <class C, class F>
    void seq(C &c, std::size_t min_elem_bytes, F &&each)
    {
        (void)min_elem_bytes;
        u64(c.size());
        for (auto &x : c)
            each(x);
    }

    const std::string &bytes() const { return buf_; }
    /** The offset of the next field (ByteReader's twin). */
    std::size_t offset() const { return buf_.size(); }

  private:
    std::string buf_;
};

/**
 * Bounds-checked reader over a byte buffer (borrowed; must outlive the
 * reader): the reading archive.  Reads past the end, counts larger
 * than the bytes left could hold, and out-of-range enum or flag bytes
 * raise fatal() with the offset.
 */
class ByteReader
{
  public:
    static constexpr bool kReading = true;

    /** @p base is added to every offset an error reports (the
     *  buffer's position in its file). */
    explicit ByteReader(std::string_view data, std::size_t base = 0)
        : data_(data), base_(base)
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    std::string str();

    // --- Field-list calls: read into the field, same names as the
    // writer's.
    void u8(std::uint8_t &v) { v = u8(); }
    template <class T>
    void u32(T &v) { v = static_cast<T>(u32()); }
    template <class T>
    void u64(T &v) { v = static_cast<T>(u64()); }
    template <class T>
    void i64(T &v) { v = static_cast<T>(i64()); }
    void f64(double &v) { v = f64(); }
    void str(std::string &s) { s = str(); }
    /** fatal() unless the byte is 0 or 1. */
    void flag(bool &b) { b = byteAtMost(1, "flag") != 0; }
    /** fatal() if the byte exceeds @p max. */
    template <class E>
    void enum8(E &v, E max)
    {
        v = static_cast<E>(
            byteAtMost(static_cast<std::uint8_t>(max), "enum"));
    }
    /**
     * Read a u64 element count; fatal() unless the bytes left could
     * hold that many elements of at least @p min_elem_bytes each, so a
     * corrupt count never reaches an allocation.
     */
    std::uint64_t count(std::size_t min_elem_bytes);
    /** Resize @p c to a checked count(), then @p each over it. */
    template <class C, class F>
    void seq(C &c, std::size_t min_elem_bytes, F &&each)
    {
        c.clear();
        c.resize(static_cast<std::size_t>(count(min_elem_bytes)));
        for (auto &x : c)
            each(x);
    }

    /** The file offset of the next field: base plus position. */
    std::size_t offset() const { return base_ + pos_; }
    std::size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return pos_ == data_.size(); }
    /** fatal() unless the buffer was consumed exactly. */
    void expectEnd(const char *what) const;

  private:
    void need(std::size_t n) const;
    std::uint8_t byteAtMost(std::uint8_t max, const char *what);

    std::string_view data_;
    std::size_t base_ = 0;
    std::size_t pos_ = 0;
};

/** fatal_if(@p bad) with @p msg and archive @p a's offset: how a field
 *  list refuses a state its bytes decode to but the run cannot hold. */
template <class Ar, class... M>
void
fatalAt(const Ar &a, bool bad, const M &...msg)
{
    fatal_if(bad, msg..., " (at offset ", a.offset(), ")");
}

/** Run @p v's field list through archive @p a: its member io(), or
 *  else a free io() found by ADL. */
template <class Ar, class T>
void
fields(Ar &a, T &v)
{
    if constexpr (requires { v.io(a); })
        v.io(a);
    else
        io(a, v);
}

/** Write a const @p v: the writing archive only reads the fields it
 *  is handed. */
template <class T>
void
put(ByteWriter &w, const T &v)
{
    fields(w, const_cast<T &>(v));
}

/**
 * FNV-1a over a byte range, seedable for chaining.  The journal and
 * checkpoint formats use it as their corruption checksum; it is not
 * cryptographic and does not need to be (the threat model is torn
 * writes and bit rot, not an adversary).
 */
std::uint64_t fnv1a(std::string_view data,
                    std::uint64_t h = 0xCBF29CE484222325ULL);

/**
 * Header-inline FNV-1a for small fixed-size keys on hot memoization
 * paths (OpenHashMap): identical output to fnv1a(), but the byte loop
 * is visible to the compiler, which fully unrolls it for the ~24-byte
 * trivially-copyable keys the caches use — the out-of-line call was a
 * measurable fraction of the serving fast-forward path.
 */
inline std::uint64_t
fnv1aInline(const char *data, std::size_t n,
            std::uint64_t h = 0xCBF29CE484222325ULL)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001B3ULL;
    }
    return h;
}

} // namespace edgereason

#endif // EDGEREASON_COMMON_BINIO_HH
