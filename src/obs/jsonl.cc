#include "obs/jsonl.hh"

#include <charconv>
#include <fstream>
#include <iostream>

#include "sim/logging.hh"

namespace snaple::obs {

namespace {

constexpr std::string_view kPairs = "expected a list of [int,int] pairs";

/** Convert an integer token to T, range-checked against [min, max]. */
template <typename T>
T
toInt(const JsonlRecord &rec, std::string_view key, const std::string &t,
      T min, T max)
{
    T v{};
    const char *end = t.data() + t.size();
    const auto [p, ec] = std::from_chars(t.data(), end, v);
    if (ec != std::errc{} || p != end || v < min || v > max)
        rec.fail(key, sim::detail::concat("value ", t,
                                          " is not an integer in [", min,
                                          ", ", max, "]"));
    return v;
}

} // namespace

JsonlRecord::JsonlRecord(std::string_view s, std::string where)
    : where_(std::move(where))
{
    std::size_t i = 0;
    std::string key; // whose value is being parsed, for errors
    const auto error = [&](std::string_view msg) {
        const std::string at =
            sim::detail::concat("column ", i + 1, ": ", msg);
        if (key.empty())
            sim::fatal(where_, ": ", at);
        fail(key, at);
    };
    const auto peek = [&] { return i < s.size() ? s[i] : '\0'; };
    const auto ws = [&] {
        while (peek() == ' ' || peek() == '\t' || peek() == '\r')
            ++i;
    };
    const auto eat = [&](char c) {
        ws();
        return i < s.size() && s[i] == c && (++i, true);
    };
    const auto expect = [&](char c, std::string_view msg) {
        if (!eat(c))
            error(msg);
    };
    // The rest of a string whose opening quote was consumed.
    const auto quoted = [&] {
        std::string out;
        while (true) {
            if (i >= s.size())
                error("unterminated string");
            char c = s[i++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                error("control character in a string");
            if (c == '\\' && i < s.size()) {
                // \uXXXX only carries the control bytes the writer
                // escapes; wider code points travel as raw UTF-8.
                const std::size_t e =
                    std::string_view("\"\\/bfnrt").find(s[i]);
                unsigned cp = 0;
                const char *p = s.data() + i + 1;
                if (e != std::string_view::npos) {
                    c = "\"\\/\b\f\n\r\t"[e];
                } else if (s[i] == 'u' && s.size() - i >= 5 &&
                           std::from_chars(p, p + 4, cp, 16).ptr ==
                               p + 4 &&
                           cp < 0x80) {
                    c = char(cp);
                    i += 4;
                } else {
                    error("unsupported escape in a string");
                }
                ++i;
            }
            out += c;
        }
    };
    const auto pairMember = [&] {
        ws();
        std::uint64_t v = 0;
        const auto [p, ec] =
            std::from_chars(s.data() + i, s.data() + s.size(), v);
        if (ec != std::errc{})
            error(kPairs);
        i = std::size_t(p - s.data());
        return v;
    };

    expect('{', "expected '{'");
    if (!eat('}')) {
        do {
            expect('"', "expected a quoted key");
            key = quoted();
            expect(':', "expected ':'");
            Value v;
            if (eat('"')) {
                v.text = quoted();
            } else if (eat('[')) {
                v.kind = Kind::Buckets;
                if (!eat(']')) {
                    do {
                        expect('[', kPairs);
                        const std::uint64_t b = pairMember();
                        expect(',', kPairs);
                        v.buckets.emplace_back(b, pairMember());
                        expect(']', kPairs);
                    } while (eat(','));
                    expect(']', kPairs);
                }
            } else {
                // A number token; the typed getters check its form.
                const std::size_t from = i;
                while (std::string_view("+-.0123456789eE").find(peek()) !=
                       std::string_view::npos)
                    ++i;
                if (i == from)
                    error("expected a string, a number or a bucket list");
                v.kind = Kind::Number;
                v.text = s.substr(from, i - from);
            }
            if (!fields_.emplace(key, std::move(v)).second)
                error("duplicate key");
            key.clear();
        } while (eat(','));
        expect('}', "expected ',' or '}'");
    }
    ws();
    if (i != s.size())
        error("trailing characters after the object");
}

void
JsonlRecord::fail(std::string_view key, std::string_view msg) const
{
    sim::fatal(where_, ": key \"", key, "\": ", msg);
}

const JsonlRecord::Value &
JsonlRecord::get(std::string_view key, Kind kind) const
{
    const auto it = fields_.find(key);
    if (it == fields_.end())
        fail(key, "missing");
    if (it->second.kind != kind)
        fail(key, "value has the wrong type");
    return it->second;
}

const std::string &
JsonlRecord::str(std::string_view key) const
{
    return get(key, Kind::String).text;
}

std::uint64_t
JsonlRecord::u64(std::string_view key, std::uint64_t max) const
{
    return toInt<std::uint64_t>(*this, key, get(key, Kind::Number).text, 0,
                                max);
}

std::int64_t
JsonlRecord::i64(std::string_view key, std::int64_t min,
                 std::int64_t max) const
{
    return toInt(*this, key, get(key, Kind::Number).text, min, max);
}

double
JsonlRecord::f64(std::string_view key) const
{
    const std::string &t = get(key, Kind::Number).text;
    double v = 0.0;
    const char *end = t.data() + t.size();
    const auto [p, ec] = std::from_chars(t.data(), end, v);
    if (ec != std::errc{} || p != end)
        fail(key, "malformed or out-of-range number " + t);
    return v;
}

const JsonlBuckets &
JsonlRecord::buckets(std::string_view key, std::size_t numBuckets) const
{
    const JsonlBuckets &b = get(key, Kind::Buckets).buckets;
    for (const auto &[index, count] : b)
        if (index >= numBuckets)
            fail(key, sim::detail::concat("bucket index ", index,
                                          " out of range"));
    return b;
}

std::uint64_t
readJsonl(const std::string &path,
          const std::function<void(const JsonlRecord &)> &fn)
{
    std::ifstream file;
    if (path != "-") {
        file.open(path);
        sim::fatalIf(!file, "cannot open ", path);
    }
    std::istream &in = path == "-" ? std::cin : file;
    std::string line;
    std::uint64_t n = 0;
    while (std::getline(in, line))
        if (!(++n, line.empty()))
            fn(JsonlRecord(line, sim::detail::concat(path, ":", n)));
    return n;
}

} // namespace snaple::obs
