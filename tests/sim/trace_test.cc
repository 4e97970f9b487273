/**
 * @file
 * Tests for the structured tracing subsystem: sink semantics (scope
 * interning, hashing, record-free mode), the properties of the trace
 * hash function (a pinned known answer, per-field bit sensitivity,
 * order, bijective steps, restore continuation), the Chrome
 * trace_event JSON exporter (syntactic well-formedness, required
 * structure), the VCD exporter (declared variables match the
 * value-change section), and the zero-impact guarantee when no sink is
 * attached.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "core/machine.hh"
#include "sim/trace.hh"

namespace {

using namespace snaple;
using assembler::assembleSnap;

// ---------------------------------------------------------------------
// A minimal JSON syntax checker (no external dependency): validates
// the full grammar and fails on trailing garbage.
// ---------------------------------------------------------------------

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        pos_ = 0;
        if (!value())
            return false;
        ws();
        return pos_ == s_.size();
    }

  private:
    void
    ws()
    {
        while (pos_ < s_.size() && std::isspace(
                   static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    lit(const char *t)
    {
        std::size_t n = std::char_traits<char>::length(t);
        if (s_.compare(pos_, n, t) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string()
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    value()
    {
        ws();
        if (pos_ >= s_.size())
            return false;
        char c = s_[pos_];
        if (c == '{') {
            ++pos_;
            ws();
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                ws();
                if (!string())
                    return false;
                ws();
                if (pos_ >= s_.size() || s_[pos_] != ':')
                    return false;
                ++pos_;
                if (!value())
                    return false;
                ws();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            if (pos_ >= s_.size() || s_[pos_] != '}')
                return false;
            ++pos_;
            return true;
        }
        if (c == '[') {
            ++pos_;
            ws();
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                if (!value())
                    return false;
                ws();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            if (pos_ >= s_.size() || s_[pos_] != ']')
                return false;
            ++pos_;
            return true;
        }
        if (c == '"')
            return string();
        if (c == 't')
            return lit("true");
        if (c == 'f')
            return lit("false");
        if (c == 'n')
            return lit("null");
        return number();
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Sink semantics.
// ---------------------------------------------------------------------

TEST(TraceSinkTest, ScopeInterningIsStable)
{
    sim::TraceSink sink;
    std::uint16_t a = sink.scope("alpha");
    std::uint16_t b = sink.scope("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(sink.scope("alpha"), a);
    EXPECT_EQ(sink.scope("beta"), b);
    ASSERT_EQ(sink.scopeNames().size(), 2u);
    EXPECT_EQ(sink.scopeNames()[a], "alpha");
    EXPECT_EQ(sink.scopeNames()[b], "beta");
}

TEST(TraceSinkTest, EveryEmitPerturbsTheHash)
{
    sim::TraceSink sink;
    std::uint16_t s = sink.scope("x");
    std::uint64_t h0 = sink.hash();
    sink.emit(100, s, sim::TraceEvent::CoreFetch, 1, 2);
    std::uint64_t h1 = sink.hash();
    sink.emit(100, s, sim::TraceEvent::CoreFetch, 1, 2);
    std::uint64_t h2 = sink.hash();
    EXPECT_NE(h0, h1);
    EXPECT_NE(h1, h2);
    EXPECT_EQ(sink.eventCount(), 2u);
}

TEST(TraceSinkTest, HashIsIndependentOfInterningOrder)
{
    // Two sinks intern the same scopes in opposite orders; the same
    // logical events must hash identically because the hash mixes the
    // scope *name*, not its table index.
    sim::TraceSink fwd, rev;
    std::uint16_t fa = fwd.scope("aa"), fb = fwd.scope("bb");
    std::uint16_t rb = rev.scope("bb"), ra = rev.scope("aa");
    fwd.emit(5, fa, sim::TraceEvent::FifoEnqueue, 1);
    fwd.emit(6, fb, sim::TraceEvent::FifoDequeue, 2);
    rev.emit(5, ra, sim::TraceEvent::FifoEnqueue, 1);
    rev.emit(6, rb, sim::TraceEvent::FifoDequeue, 2);
    EXPECT_EQ(fwd.hash(), rev.hash());
}

TEST(TraceSinkTest, RecordFreeModeHashesWithoutStoring)
{
    sim::TraceSink full(true), lean(false);
    std::uint16_t sf = full.scope("s"), sl = lean.scope("s");
    for (int i = 0; i < 10; ++i) {
        full.emit(i, sf, sim::TraceEvent::EnergyDebit, 0, 0, 1.5 * i);
        lean.emit(i, sl, sim::TraceEvent::EnergyDebit, 0, 0, 1.5 * i);
    }
    EXPECT_EQ(full.hash(), lean.hash());
    EXPECT_EQ(full.eventCount(), lean.eventCount());
    EXPECT_EQ(full.records().size(), 10u);
    EXPECT_TRUE(lean.records().empty());
}

// ---------------------------------------------------------------------
// The trace hash function (docs/TRACING.md, "The trace hash").
// ---------------------------------------------------------------------

/** One event as the sink sees it, by scope name. */
struct Ev
{
    const char *scope;
    sim::TraceEvent type;
    sim::Tick ts;
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
    double f = 0.0;
};

/** A fetch, a channel handshake, an exec and an energy debit. */
const std::vector<Ev> kFourEvents = {
    {"core.fetch", sim::TraceEvent::CoreFetch, 1000, 0x10, 0xbeef},
    {"core.imem", sim::TraceEvent::ChanHandshake, 1300},
    {"core.exec", sim::TraceEvent::CoreExec, 1600, 0xbeef, 2},
    {"energy.core", sim::TraceEvent::EnergyDebit, 1900, 0, 0, 2.5},
};

void
emitAll(sim::TraceSink &sink, const std::vector<Ev> &evs)
{
    for (const Ev &e : evs)
        sink.emit(e.ts, sink.scope(e.scope), e.type, e.a0, e.a1, e.f);
}

std::uint64_t
hashOf(const std::vector<Ev> &evs)
{
    sim::TraceSink sink(false);
    emitAll(sink, evs);
    return sink.hash();
}

TEST(TraceHashTest, KnownAnswerForAFixedStream)
{
    // Pinned so that an accidental change to the hash function fails
    // here, not only in the scenario goldens. An intended change bumps
    // the hash version (docs/TRACING.md) and this value together.
    EXPECT_EQ(hashOf({}), sim::kTraceHashSeed);
    EXPECT_EQ(hashOf(kFourEvents), 0x8c855bfbd04f849aull);
}

TEST(TraceHashTest, EveryBitOfEveryFieldChangesTheDigest)
{
    const std::uint64_t scopeHash = 0x0123456789abcdefull;
    const auto type = sim::TraceEvent::CoreExec;
    const sim::Tick ts = 123456789;
    const std::uint64_t a0 = 0x1234, a1 = 3;
    const std::uint64_t fBits = std::bit_cast<std::uint64_t>(2.5);
    const std::uint64_t base =
        sim::traceEventDigest(scopeHash, type, ts, a0, a1, fBits);
    for (int b = 0; b < 64; ++b) {
        const std::uint64_t m = std::uint64_t{1} << b;
        EXPECT_NE(sim::traceEventDigest(scopeHash ^ m, type, ts, a0, a1,
                                        fBits),
                  base) << "scope hash bit " << b;
        EXPECT_NE(sim::traceEventDigest(scopeHash, type, ts ^ m, a0, a1,
                                        fBits),
                  base) << "ts bit " << b;
        EXPECT_NE(sim::traceEventDigest(scopeHash, type, ts, a0 ^ m, a1,
                                        fBits),
                  base) << "a0 bit " << b;
        EXPECT_NE(sim::traceEventDigest(scopeHash, type, ts, a0, a1 ^ m,
                                        fBits),
                  base) << "a1 bit " << b;
        EXPECT_NE(sim::traceEventDigest(scopeHash, type, ts, a0, a1,
                                        fBits ^ m),
                  base) << "f bit " << b;
    }
    for (int b = 0; b < 8; ++b) {
        const auto flipped = static_cast<sim::TraceEvent>(
            static_cast<std::uint8_t>(type) ^ (1u << b));
        EXPECT_NE(sim::traceEventDigest(scopeHash, flipped, ts, a0, a1,
                                        fBits),
                  base) << "type bit " << b;
    }
}

TEST(TraceHashTest, EveryBitOfEveryEmittedFieldChangesTheHash)
{
    // The same property end to end through TraceSink::emit, for every
    // field a caller passes (the scope enters by name).
    const Ev e = kFourEvents[2];
    const std::uint64_t base = hashOf({e});
    for (int b = 0; b < 64; ++b) {
        const std::uint64_t m = std::uint64_t{1} << b;
        Ev x = e;
        x.ts ^= m;
        EXPECT_NE(hashOf({x}), base) << "ts bit " << b;
        x = e;
        x.a0 ^= m;
        EXPECT_NE(hashOf({x}), base) << "a0 bit " << b;
        x = e;
        x.a1 ^= m;
        EXPECT_NE(hashOf({x}), base) << "a1 bit " << b;
        x = e;
        x.f = std::bit_cast<double>(std::bit_cast<std::uint64_t>(e.f) ^ m);
        EXPECT_NE(hashOf({x}), base) << "f bit " << b;
    }
    for (int b = 0; b < 8; ++b) {
        Ev x = e;
        x.type = static_cast<sim::TraceEvent>(
            static_cast<std::uint8_t>(e.type) ^ (1u << b));
        EXPECT_NE(hashOf({x}), base) << "type bit " << b;
    }
    Ev x = e;
    x.scope = "core.fetch";
    EXPECT_NE(hashOf({x}), base) << "scope name";
}

TEST(TraceHashTest, SwappingAdjacentEventsChangesTheHash)
{
    const std::uint64_t base = hashOf(kFourEvents);
    for (std::size_t i = 0; i + 1 < kFourEvents.size(); ++i) {
        std::vector<Ev> swapped = kFourEvents;
        std::swap(swapped[i], swapped[i + 1]);
        EXPECT_NE(hashOf(swapped), base) << "swap " << i;
    }
}

TEST(TraceHashTest, StepIsABijectionOfTheRunningHash)
{
    // For one fixed event, distinct running hashes must stay distinct:
    // a divergence is never absorbed by a later event. A fifth of the
    // starting states are fully random; the rest differ from one base
    // only within one 16-bit window, the small differences a lossy
    // step would most easily drop.
    std::mt19937_64 rng(20041009);
    const std::uint64_t base = rng();
    const std::uint64_t masks[] = {~std::uint64_t{0}, 0xffffull,
                                   0xffffull << 16, 0xffffull << 32,
                                   0xffffull << 48};
    std::set<std::uint64_t> starts;
    for (std::size_t i = 0; starts.size() < 10000; ++i)
        starts.insert(base ^ (rng() & masks[i % 5]));
    std::set<std::uint64_t> results;
    sim::TraceSink sink(false);
    const Ev &e = kFourEvents[0];
    const std::uint16_t s = sink.scope(e.scope);
    for (std::uint64_t h : starts) {
        sink.restoreHash(h, 0);
        sink.emit(e.ts, s, e.type, e.a0, e.a1, e.f);
        results.insert(sink.hash());
    }
    EXPECT_EQ(results.size(), starts.size());
}

TEST(TraceHashTest, RestoreHashContinuesTheStream)
{
    // restoreHash(hash(A), count(A)) followed by B equals A+B straight
    // through, even though the second sink interns its scopes in a
    // different order.
    const std::vector<Ev> a(kFourEvents.begin(), kFourEvents.begin() + 2);
    const std::vector<Ev> b(kFourEvents.begin() + 2, kFourEvents.end());
    sim::TraceSink straight(false);
    emitAll(straight, a);
    const std::uint64_t hashA = straight.hash();
    const std::uint64_t countA = straight.eventCount();
    emitAll(straight, b);

    sim::TraceSink resumed(false);
    resumed.restoreHash(hashA, countA);
    emitAll(resumed, b);
    EXPECT_EQ(resumed.hash(), straight.hash());
    EXPECT_EQ(resumed.eventCount(), straight.eventCount());
}

TEST(TraceSinkTest, UnattachedKernelTracesNothing)
{
#ifdef SNAPLE_TRACE_DISABLED
    GTEST_SKIP() << "tracing compiled out (SNAPLE_TRACE=OFF)";
#endif
    // No sink on the kernel: scopes emit into the void, and the
    // simulation result is byte-identical to a traced run.
    auto run = [](sim::TraceSink *sink) {
        sim::Kernel kernel;
        if (sink)
            kernel.setTracer(sink);
        core::Machine m(kernel);
        m.load(assembleSnap(apps::blinkProgram()));
        m.start();
        kernel.runFor(20 * sim::kMillisecond);
        return std::make_pair(m.core().stats().instructions,
                              m.core().debugOut());
    };
    sim::TraceSink sink;
    auto traced = run(&sink);
    auto bare = run(nullptr);
    EXPECT_GT(sink.eventCount(), 0u);
    EXPECT_EQ(bare.first, traced.first);
    EXPECT_EQ(bare.second, traced.second);
}

TEST(TraceSinkTest, EventNamesAndCategoriesAreTotal)
{
    for (unsigned i = 0;
         i < static_cast<unsigned>(sim::TraceEvent::NumEvents); ++i) {
        auto e = static_cast<sim::TraceEvent>(i);
        EXPECT_FALSE(sim::traceEventName(e).empty());
        EXPECT_FALSE(sim::traceEventCategory(e).empty());
    }
}

// ---------------------------------------------------------------------
// Exporters, fed from a real Blink run.
// ---------------------------------------------------------------------

class TraceExportTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
#ifdef SNAPLE_TRACE_DISABLED
        GTEST_SKIP() << "tracing compiled out (SNAPLE_TRACE=OFF)";
#endif
        kernel_.setTracer(&sink_);
        machine_ = std::make_unique<core::Machine>(kernel_);
        machine_->load(assembleSnap(apps::blinkProgram()));
        machine_->start();
        kernel_.runFor(20 * sim::kMillisecond);
        ASSERT_GT(sink_.eventCount(), 0u);
    }

    sim::Kernel kernel_;
    sim::TraceSink sink_;
    std::unique_ptr<core::Machine> machine_;
};

TEST_F(TraceExportTest, ChromeJsonIsWellFormed)
{
    std::ostringstream out;
    sink_.writeChromeJson(out);
    std::string json = out.str();
    EXPECT_TRUE(JsonChecker(json).valid()) << "invalid JSON";
    // Structure the Chrome/Perfetto loader needs.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos); // metadata
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos); // instants
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos); // counters
    // The acceptance triple: channel, event-queue and energy activity.
    EXPECT_NE(json.find("timer-port"), std::string::npos);
    EXPECT_NE(json.find("event-queue"), std::string::npos);
    EXPECT_NE(json.find("energy."), std::string::npos);
}

TEST_F(TraceExportTest, VcdVariablesMatchValueChanges)
{
    std::ostringstream out;
    sink_.writeVcd(out);
    std::istringstream in(out.str());

    std::vector<std::string> declared;
    bool in_defs = true;
    bool saw_timescale = false;
    long long last_ts = -1;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (in_defs) {
            if (line.rfind("$timescale", 0) == 0)
                saw_timescale = true;
            if (line.rfind("$var", 0) == 0) {
                // $var wire 8 <id> <name> $end
                std::istringstream ls(line);
                std::string var, kind, width, id;
                ls >> var >> kind >> width >> id;
                EXPECT_TRUE(kind == "wire" || kind == "real") << line;
                declared.push_back(id);
            }
            if (line.rfind("$enddefinitions", 0) == 0)
                in_defs = false;
            continue;
        }
        if (line[0] == '#') {
            long long ts = std::stoll(line.substr(1));
            EXPECT_GE(ts, last_ts) << "timestamps must not go back";
            last_ts = ts;
            continue;
        }
        if (line[0] == 'b' || line[0] == 'r') {
            // "b<bits> <id>" / "r<real> <id>"
            std::size_t sp = line.rfind(' ');
            ASSERT_NE(sp, std::string::npos) << line;
            std::string id = line.substr(sp + 1);
            bool known = false;
            for (const auto &d : declared)
                known |= (d == id);
            EXPECT_TRUE(known) << "undeclared VCD id: " << id;
        }
    }
    EXPECT_TRUE(saw_timescale);
    EXPECT_FALSE(declared.empty());
    EXPECT_GE(last_ts, 0) << "no value changes emitted";
}

TEST_F(TraceExportTest, ExportersAreDeterministic)
{
    std::ostringstream a, b;
    sink_.writeChromeJson(a);
    sink_.writeChromeJson(b);
    EXPECT_EQ(a.str(), b.str());
    std::ostringstream va, vb;
    sink_.writeVcd(va);
    sink_.writeVcd(vb);
    EXPECT_EQ(va.str(), vb.str());
}

} // namespace
