#include "common/binio.hh"

#include <bit>

namespace edgereason {

void ByteWriter::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void ByteWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void ByteWriter::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void ByteWriter::str(std::string_view s)
{
    fatal_if(s.size() > 0xFFFFFFFFULL, "binio: string too long to encode");
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
}

void ByteReader::need(std::size_t n) const
{
    fatal_if(data_.size() - pos_ < n,
             "binio: truncated buffer: need ", n, " byte(s) at offset ",
             offset(), " but only ", data_.size() - pos_, " remain");
}

std::uint8_t ByteReader::u8()
{
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t ByteReader::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(data_[pos_ + i]))
             << (8 * i);
    pos_ += 4;
    return v;
}

std::uint64_t ByteReader::u64()
{
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(data_[pos_ + i]))
             << (8 * i);
    pos_ += 8;
    return v;
}

double ByteReader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string ByteReader::str()
{
    const std::uint32_t n = u32();
    need(n);
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
}

std::uint8_t ByteReader::byteAtMost(std::uint8_t max, const char *what)
{
    const std::size_t at = offset();
    const std::uint8_t v = u8();
    fatal_if(v > max, "binio: ", what, " byte ", int(v), " at offset ",
             at, " is above its maximum ", int(max));
    return v;
}

std::uint64_t ByteReader::count(std::size_t min_elem_bytes)
{
    const std::size_t at = offset();
    const std::uint64_t n = u64();
    fatal_if(n > remaining() / min_elem_bytes,
             "binio: count ", n, " at offset ", at, " needs at least ",
             min_elem_bytes, " byte(s) each but only ", remaining(),
             " remain");
    return n;
}

void ByteReader::expectEnd(const char *what) const
{
    fatal_if(pos_ != data_.size(),
             "binio: ", what, ": ", data_.size() - pos_,
             " trailing byte(s) after offset ", offset());
}

std::uint64_t fnv1a(std::string_view data, std::uint64_t h)
{
    for (const char c : data) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001B3ULL;
    }
    return h;
}

} // namespace edgereason
