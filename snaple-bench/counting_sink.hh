/**
 * @file
 * An output stream that counts what is written to it and keeps
 * nothing: the in-memory sink the benchmark hands to the metrics and
 * flow-span streams, so a run pays for formatting the records but not
 * for storing them.
 */

#ifndef SNAPLE_BENCH_COUNTING_SINK_HH
#define SNAPLE_BENCH_COUNTING_SINK_HH

#include <cstdint>
#include <ostream>
#include <streambuf>

namespace snaple::bench {

class CountingSink : public std::ostream
{
  public:
    CountingSink() : std::ostream(&buf_) {}

    std::uint64_t bytes() const { return buf_.bytes; }
    std::uint64_t lines() const { return buf_.lines; }

  private:
    struct Buf : std::streambuf
    {
        std::uint64_t bytes = 0;
        std::uint64_t lines = 0;

        int_type overflow(int_type c) override;
        std::streamsize xsputn(const char *s, std::streamsize n) override;
    };

    Buf buf_;
};

} // namespace snaple::bench

#endif // SNAPLE_BENCH_COUNTING_SINK_HH
