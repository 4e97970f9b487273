/**
 * @file
 * The one reader for the simulator's JSONL streams: metrics
 * (docs/METRICS.md) and flow spans (obs/flow.hh). snap-report and
 * snap-trace both parse through it.
 *
 * Every line is one flat JSON object whose values are strings, numbers
 * or the histogram bucket list `[[b,n],...]` of unsigned pairs; the
 * streams hold nothing else, so nothing else is accepted. Parsing is
 * strict (JSON grammar, no duplicate keys, nothing after the object)
 * and the typed getters range-check, so a negative or overflowing
 * field is an error rather than a wrapped value. Every error is a
 * sim::FatalError that starts with `file:line:` and names the key.
 */

#ifndef SNAPLE_OBS_JSONL_HH
#define SNAPLE_OBS_JSONL_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace snaple::obs {

/** A histogram bucket list: (bucket index, count) pairs. */
using JsonlBuckets = std::vector<std::pair<std::size_t, std::uint64_t>>;

/** One parsed line: a flat key -> value object. */
class JsonlRecord
{
  public:
    /** Parse @p line; @p where ("file:line") prefixes every error. */
    JsonlRecord(std::string_view line, std::string where);

    const std::string &str(std::string_view key) const;

    std::uint64_t u64(std::string_view key,
                      std::uint64_t max = ~std::uint64_t{0}) const;

    std::int64_t i64(std::string_view key, std::int64_t min,
                     std::int64_t max) const;

    double f64(std::string_view key) const;

    /** A bucket list whose indices are all below @p numBuckets. */
    const JsonlBuckets &buckets(std::string_view key,
                                std::size_t numBuckets) const;

    /** Throw a FatalError at this record's location naming @p key. */
    [[noreturn]] void fail(std::string_view key,
                           std::string_view msg) const;

  private:
    enum class Kind : std::uint8_t { String, Number, Buckets };

    struct Value
    {
        Kind kind = Kind::String;
        std::string text; ///< decoded string, or the number's token
        JsonlBuckets buckets;
    };

    const Value &get(std::string_view key, Kind kind) const;

    std::string where_;
    std::map<std::string, Value, std::less<>> fields_;
};

/**
 * Parse every non-empty line of @p path (`-` reads stdin) and hand the
 * record to @p fn. Returns the number of lines read.
 */
std::uint64_t readJsonl(const std::string &path,
                        const std::function<void(const JsonlRecord &)> &fn);

} // namespace snaple::obs

#endif // SNAPLE_OBS_JSONL_HH
