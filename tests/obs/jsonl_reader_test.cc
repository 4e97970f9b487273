/**
 * @file
 * Tests for the shared JSONL stream reader (obs/jsonl.hh): every record
 * the writers emit parses back field-equal, the defects of the
 * per-tool scanners it replaced stay fixed, and malformed lines fail
 * with an error naming file:line and the key.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flow.hh"
#include "obs/jsonl.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"

namespace {

using namespace snaple;
using obs::JsonlBuckets;
using obs::JsonlRecord;

/** readJsonl over @p path, collecting every record. */
std::vector<JsonlRecord>
readAll(const std::string &path, std::uint64_t *lines = nullptr)
{
    std::vector<JsonlRecord> out;
    const std::uint64_t n = obs::readJsonl(
        path, [&](const JsonlRecord &r) { out.push_back(r); });
    if (lines)
        *lines = n;
    return out;
}

/** Split a writer's output into its lines and parse each one. */
std::vector<JsonlRecord>
parseAll(const std::string &text)
{
    std::vector<JsonlRecord> out;
    std::istringstream in(text);
    std::string line;
    for (int n = 1; std::getline(in, line); ++n)
        out.emplace_back(line, "mem:" + std::to_string(n));
    return out;
}

/** Run @p f, expecting a FatalError whose message holds every needle. */
template <typename F>
void
expectFatal(F &&f, std::initializer_list<std::string> needles)
{
    try {
        f();
        ADD_FAILURE() << "no FatalError thrown";
    } catch (const sim::FatalError &e) {
        const std::string msg = e.what();
        for (const std::string &n : needles)
            EXPECT_NE(msg.find(n), std::string::npos)
                << "'" << n << "' not in: " << msg;
    }
}

void
expectBadLine(const std::string &line,
              std::initializer_list<std::string> needles)
{
    expectFatal([&] { JsonlRecord(line, "bad.jsonl:7"); }, needles);
}

TEST(JsonlReaderTest, MetaLineRoundTrips)
{
    std::ostringstream os;
    sim::MetricsRegistry::writeMetaJsonl(os, "n3", 0.9,
                                         10 * sim::kMillisecond);
    const auto recs = parseAll(os.str());
    ASSERT_EQ(recs.size(), 1u);
    const JsonlRecord &r = recs[0];
    EXPECT_EQ(r.str("kind"), "meta");
    EXPECT_EQ(r.u64("version"), 1u);
    EXPECT_EQ(r.str("node"), "n3");
    EXPECT_EQ(r.f64("volts"), 0.9);
    EXPECT_EQ(r.u64("interval"), 10 * sim::kMillisecond);
}

TEST(JsonlReaderTest, CounterGaugeAndHistSamplesRoundTrip)
{
    sim::MetricsRegistry reg;
    const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
    reg.counter("c.max").set(big);
    reg.gauge("g.third").set(1.0 / 3.0);
    reg.gauge("g.tiny").set(-4.9e-324);
    sim::MetricHistogram &h = reg.histogram("h.wait");
    for (std::uint64_t v : {0ull, 1ull, 300ull, 70000ull, 1ull << 40})
        h.record(v);

    std::ostringstream os;
    const sim::Tick t = 123456789012345ull;
    reg.writeJsonl(os, t, "all");
    const auto recs = parseAll(os.str());
    ASSERT_EQ(recs.size(), 4u); // name order: c, g, g, h
    for (const JsonlRecord &r : recs) {
        EXPECT_EQ(r.str("kind"), "sample");
        EXPECT_EQ(r.u64("t"), t);
        EXPECT_EQ(r.str("node"), "all");
    }
    EXPECT_EQ(recs[0].str("name"), "c.max");
    EXPECT_EQ(recs[0].str("type"), "counter");
    EXPECT_EQ(recs[0].u64("v"), big);
    EXPECT_EQ(recs[1].str("name"), "g.third");
    EXPECT_EQ(recs[1].str("type"), "gauge");
    EXPECT_EQ(recs[1].f64("v"), 1.0 / 3.0);
    EXPECT_EQ(recs[2].f64("v"), -4.9e-324);

    const JsonlRecord &hr = recs[3];
    EXPECT_EQ(hr.str("name"), "h.wait");
    EXPECT_EQ(hr.str("type"), "hist");
    EXPECT_EQ(hr.u64("count"), h.count());
    EXPECT_EQ(hr.u64("sum"), h.sum());
    EXPECT_EQ(hr.u64("min"), h.min());
    EXPECT_EQ(hr.u64("max"), h.max());
    JsonlBuckets want;
    for (std::size_t b = 0; b < sim::MetricHistogram::kNumBuckets; ++b)
        if (h.bucket(b))
            want.emplace_back(b, h.bucket(b));
    EXPECT_EQ(hr.buckets("buckets", sim::MetricHistogram::kNumBuckets),
              want);
}

TEST(JsonlReaderTest, ProfileLineRoundTrips)
{
    sim::ProfileRow row;
    row.handler = "Timer0";
    row.pc = 0xfff;
    row.count = 42;
    row.ticks = 9876543210ull;
    row.pj = 12.375;
    std::ostringstream os;
    sim::MetricsRegistry::writeProfileJsonl(os, "n1", row);
    const auto recs = parseAll(os.str());
    ASSERT_EQ(recs.size(), 1u);
    const JsonlRecord &r = recs[0];
    EXPECT_EQ(r.str("kind"), "profile");
    EXPECT_EQ(r.str("node"), "n1");
    EXPECT_EQ(r.str("handler"), "Timer0");
    EXPECT_EQ(r.u64("pc"), row.pc);
    EXPECT_EQ(r.u64("count"), row.count);
    EXPECT_EQ(r.u64("ticks"), row.ticks);
    EXPECT_EQ(r.f64("pj"), row.pj);
}

void
expectSpanRoundTrip(const obs::SpanRecord &s)
{
    std::ostringstream os;
    obs::writeSpanJsonl(os, s);
    const auto recs = parseAll(os.str());
    ASSERT_EQ(recs.size(), 1u);
    const JsonlRecord &r = recs[0];
    EXPECT_EQ(r.str("type"), "span");
    EXPECT_EQ(r.u64("origin", 0xffffffffu), s.origin);
    EXPECT_EQ(r.u64("id", 0xffffffffu), s.id);
    EXPECT_EQ(r.u64("node", 0xffffffffu), s.node);
    EXPECT_EQ(r.i64("parent", -1, obs::kNoNode - 1),
              s.parent == obs::kNoNode ? -1 : std::int64_t(s.parent));
    EXPECT_EQ(r.u64("hop", 0xffff), s.hop);
    EXPECT_EQ(r.u64("word", 0xffff), s.word);
    EXPECT_EQ(r.u64("rx_tick"), s.rxTick);
    EXPECT_EQ(r.u64("tx_tick"), s.txTick);
    EXPECT_EQ(r.f64("pj"), s.pj);
}

TEST(JsonlReaderTest, SpanLinesRoundTrip)
{
    obs::SpanRecord origin;
    origin.origin = origin.node = 5;
    origin.id = 7;
    origin.word = 0xbeef;
    origin.txTick = 3740163881ull;
    origin.pj = 3e7;
    expectSpanRoundTrip(origin); // parent kNoNode is written as -1

    obs::SpanRecord hop;
    hop.origin = hop.id = hop.node = 0xffffffffu;
    hop.parent = obs::kNoNode - 1;
    hop.hop = hop.word = 0xffff;
    hop.rxTick = std::numeric_limits<std::uint64_t>::max() - 1;
    hop.txTick = std::numeric_limits<std::uint64_t>::max();
    hop.pj = 0.1;
    expectSpanRoundTrip(hop);
}

TEST(JsonlReaderTest, EscapedStringsRoundTrip)
{
    const std::string name = "a\"b\\c\nd\te\x01f/\xc3\xa9";
    std::ostringstream os;
    os << "{\"name\":";
    sim::putJsonString(os, name);
    os << "}";
    EXPECT_EQ(JsonlRecord(os.str(), "mem:1").str("name"), name);
    // The other short escapes decode too; \u escapes stop at ASCII,
    // since the writer sends wider code points as raw UTF-8.
    EXPECT_EQ(JsonlRecord(R"({"s":"\u0041\/\r"})", "mem:1").str("s"),
              "A/\r");
    expectBadLine(R"({"s":"\u00e9"})", {"\"s\"", "unsupported escape"});
}

// snap-run prints "--metrics=- | snap-report -"; the reader must
// take "-" as stdin (snap-report used to reject it as an option).
TEST(JsonlReaderTest, DashReadsStdin)
{
    std::istringstream fake("{\"kind\":\"meta\",\"node\":\"n0\"}\n\n"
                            "{\"kind\":\"sample\",\"t\":5}\n");
    std::streambuf *saved = std::cin.rdbuf(fake.rdbuf());
    std::uint64_t lines = 0;
    const auto recs = readAll("-", &lines);
    std::cin.rdbuf(saved);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].str("kind"), "meta");
    EXPECT_EQ(recs[1].str("kind"), "sample");
    EXPECT_EQ(lines, 3u);
}

// snap-report used to read "t":-5 through strtoull and report the
// wrapped value as "last sample at 18446744073.710 ms".
TEST(JsonlReaderTest, NegativeUnsignedFieldIsAnErrorAtFileLineAndKey)
{
    const std::string path = testing::TempDir() + "negative_t.jsonl";
    {
        std::ofstream f(path);
        f << "{\"kind\":\"meta\",\"node\":\"n0\",\"volts\":1.8}\n"
          << "{\"kind\":\"sample\",\"t\":-5,\"node\":\"n0\"}\n";
    }
    const auto recs = readAll(path);
    ASSERT_EQ(recs.size(), 2u);
    expectFatal([&] { recs[1].u64("t"); },
                {path + ":2:", "\"t\"", "-5 is not an integer in [0,"});
    std::remove(path.c_str());
}

// snap-trace used to range-check every span field but "id", so id
// 2^32 wrapped to 0 and merged into flow 0.
TEST(JsonlReaderTest, SpanIdAbove32BitsIsARangeError)
{
    const JsonlRecord r(
        R"({"type":"span","origin":0,"id":4294967296,"node":0,)"
        R"("parent":-1,"hop":0,"word":1,"rx_tick":0,"tx_tick":4,"pj":3})",
        "flows.jsonl:2");
    EXPECT_EQ(r.u64("id"), 4294967296u);
    expectFatal([&] { r.u64("id", 0xffffffffu); },
                {"flows.jsonl:2:", "\"id\"", "4294967296"});
}

TEST(JsonlReaderTest, GettersRangeCheck)
{
    const JsonlRecord r(R"({"big":18446744073709551616,"neg":-2,)"
                        R"("frac":1.5,"s":"x","b":[[65,1]]})",
                        "r.jsonl:1");
    expectFatal([&] { r.u64("big"); }, {"\"big\"", "not an integer"});
    expectFatal([&] { r.i64("neg", -1, 5); }, {"\"neg\"", "[-1, 5]"});
    expectFatal([&] { r.u64("frac"); }, {"\"frac\"", "not an integer"});
    expectFatal([&] { r.u64("s"); }, {"\"s\"", "wrong type"});
    expectFatal([&] { r.str("neg"); }, {"\"neg\"", "wrong type"});
    expectFatal([&] { r.buckets("b", 65); },
                {"\"b\"", "bucket index 65"});
    EXPECT_EQ(r.f64("big"), 18446744073709551616.0);
}

TEST(JsonlReaderTest, MissingKeyNamesTheKey)
{
    const JsonlRecord r(R"({"kind":"sample"})", "m.jsonl:3");
    expectFatal([&] { r.u64("t"); }, {"m.jsonl:3:", "\"t\"", "missing"});
}

TEST(JsonlReaderTest, TruncatedLineIsRejected)
{
    expectBadLine(R"({"kind":"sample","t":5,"no)",
                  {"bad.jsonl:7:", "unterminated string"});
    expectBadLine(R"({"kind":"sample","t":5)", {"bad.jsonl:7:", "'}'"});
    expectBadLine(R"({"kind":"sample","t":)", {"\"t\"", "expected"});
}

TEST(JsonlReaderTest, TrailingGarbageIsRejected)
{
    expectBadLine(R"({"a":1}x)", {"bad.jsonl:7:", "trailing"});
    expectBadLine(R"({"a":1}{"b":2})", {"trailing"});
    expectBadLine(R"({"a":1x})", {"expected"});
}

TEST(JsonlReaderTest, DuplicateKeyIsRejected)
{
    expectBadLine(R"({"t":1,"node":"n0","t":2})",
                  {"bad.jsonl:7:", "\"t\"", "duplicate key"});
}

TEST(JsonlReaderTest, UnterminatedStringIsRejected)
{
    expectBadLine(R"({"node":"n0)",
                  {"bad.jsonl:7:", "\"node\"", "unterminated string"});
    expectBadLine(R"({"node":"n0\)", {"unterminated string"});
    expectBadLine(R"({"node":"n0\q"})", {"unsupported escape"});
}

TEST(JsonlReaderTest, BucketListThatIsNotIntPairsIsRejected)
{
    for (const char *bad :
         {R"({"buckets":[[1,2,3]]})", R"({"buckets":[1,2]})",
          R"({"buckets":[[1,-2]]})", R"({"buckets":[[1.5,2]]})",
          R"({"buckets":[["1",2]]})", R"({"buckets":[[1,2],]})",
          R"({"buckets":[[1,2])"})
        expectBadLine(bad, {"bad.jsonl:7:", "\"buckets\"",
                            "[int,int] pairs"});
}

TEST(JsonlReaderTest, OtherMalformedValuesAreRejected)
{
    expectBadLine(R"({"a":true})", {"\"a\"", "expected a string"});
    expectBadLine(R"({a:1})", {"quoted key"});
    expectBadLine(" ", {"bad.jsonl:7:", "'{'"});
    expectBadLine("{\"a\":\"x\ty\"}", {"control character"});
    // Standard JSON whitespace between tokens is fine.
    EXPECT_EQ(JsonlRecord(" { \"a\" : 1 , \"b\":[ [0 ,1] ] }\r", "ok:1")
                  .u64("a"),
              1u);
}

TEST(JsonlReaderTest, MalformedNumbersFailInTheirGetter)
{
    const JsonlRecord r(R"({"a":1.2.3,"b":-,"c":+1,"d":1e,"e":1.5})",
                        "n.jsonl:4");
    expectFatal([&] { r.f64("a"); }, {"n.jsonl:4:", "\"a\"", "1.2.3"});
    expectFatal([&] { r.f64("b"); }, {"\"b\""});
    expectFatal([&] { r.f64("c"); }, {"\"c\"", "+1"});
    expectFatal([&] { r.f64("d"); }, {"\"d\""});
    expectFatal([&] { r.u64("e"); }, {"\"e\"", "integer"});
    EXPECT_EQ(r.f64("e"), 1.5);
}

TEST(JsonlReaderTest, UnopenableFileIsAnError)
{
    const std::string path = testing::TempDir() + "no-such-dir/x.jsonl";
    expectFatal([&] { readAll(path); }, {"cannot open", path});
}

} // namespace
