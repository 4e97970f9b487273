/**
 * @file
 * Byte-stable little-endian codec for snapshot serialization.
 *
 * The format must be identical across platforms and runs: fields are
 * written in a fixed declaration order, integers as explicit-width
 * little-endian bytes, doubles as their IEEE-754 bit patterns.
 * Containers are length-prefixed. Reader is fully bounds-checked and
 * throws sim::FatalError on any truncation or overrun — corrupt input
 * can reject, never crash (tests/snapshot runs it under ASan/UBSan).
 *
 * Writer and Reader answer the same calls — Writer::u64(v) writes v,
 * Reader::u64(v) reads into v — so one field walk, templated on the
 * archive, serves both directions (src/snapshot/snapshot.cc).
 */

#ifndef SNAPLE_SNAPSHOT_CODEC_HH
#define SNAPLE_SNAPSHOT_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace snaple::snapshot {

/** Append-only little-endian encoder. */
class Writer
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

    void
    u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    void b(bool v) { u8(v ? 1 : 0); }

    /** Doubles travel as raw IEEE-754 bits: bit-stable, including the
     *  exact ledger values the picojoule-equality tests pin. */
    void f64(double v);

    void str(std::string_view s);

    void
    u16vec(const std::vector<std::uint16_t> &v)
    {
        seq(v, [](auto &a, auto &w) { a.u16(w); });
    }

    /** A length-prefixed container: the size, then @p fn(*this, e)
     *  for each element — the walk Reader::seq replays. */
    template <class T, class Fn>
    void
    seq(const std::vector<T> &v, Fn fn)
    {
        u64(v.size());
        for (const T &e : v)
            fn(*this, e);
    }

    const std::string &bytes() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/**
 * Bytes @p fn writes for one value-initialised T: the least any T can
 * take on the wire, so the floor a count of Ts is checked against.
 */
template <class T, class Fn>
std::size_t
encodedSize(Fn fn)
{
    Writer w;
    const T e{};
    fn(w, e);
    return w.bytes().size();
}

/** Bounds-checked decoder; throws sim::FatalError on overrun. */
class Reader
{
  public:
    explicit Reader(std::string_view data) : data_(data) {}

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    bool b();
    double f64();
    std::string str();

    std::vector<std::uint16_t>
    u16vec()
    {
        std::vector<std::uint16_t> v;
        u16vec(v);
        return v;
    }

    // In-place forms, the Writer's calls mirrored for field walks.
    void u8(std::uint8_t &v) { v = u8(); }
    void u16(std::uint16_t &v) { v = u16(); }
    void u32(std::uint32_t &v) { v = u32(); }
    void u64(std::uint64_t &v) { v = u64(); }
    void b(bool &v) { v = b(); }
    void f64(double &v) { v = f64(); }
    void str(std::string &s) { s = str(); }

    void
    u16vec(std::vector<std::uint16_t> &v)
    {
        seq(v, [](auto &a, auto &w) { a.u16(w); });
    }

    /**
     * A length-prefixed container written by Writer::seq with the same
     * @p fn. The count is checked against encodedSize<T>(fn) before
     * anything is reserved, so a hostile prefix cannot make the vector
     * outgrow the input by more than sizeof(T) / encodedSize<T>(fn).
     */
    template <class T, class Fn>
    void
    seq(std::vector<T> &v, Fn fn)
    {
        const std::uint64_t n = count(encodedSize<T>(fn));
        v.clear();
        v.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i)
            fn(*this, v.emplace_back());
    }

    /** Remaining unread bytes (0 at a clean end of payload). */
    std::size_t remaining() const { return data_.size() - pos_; }

    /**
     * A sanity ceiling for length prefixes: any count must fit in the
     * bytes actually present, with at least @p elemBytes per element.
     * Rejects absurd counts before a vector reserve can OOM.
     */
    std::uint64_t count(std::size_t elemBytes);

  private:
    void need(std::size_t n);

    std::string_view data_;
    std::size_t pos_ = 0;
};

} // namespace snaple::snapshot

#endif // SNAPLE_SNAPSHOT_CODEC_HH
