#include "counting_sink.hh"

#include <algorithm>

namespace snaple::bench {

CountingSink::Buf::int_type
CountingSink::Buf::overflow(int_type c)
{
    if (traits_type::eq_int_type(c, traits_type::eof()))
        return traits_type::not_eof(c);
    ++bytes;
    lines += traits_type::to_char_type(c) == '\n';
    return c;
}

std::streamsize
CountingSink::Buf::xsputn(const char *s, std::streamsize n)
{
    bytes += std::uint64_t(n);
    lines += std::uint64_t(std::count(s, s + n, '\n'));
    return n;
}

} // namespace snaple::bench
