/**
 * @file
 * snap-trace: offline analysis of flow-span streams.
 *
 * Usage: snap-trace FILE.jsonl [--validate] [--chrome=FILE] [--top=N]
 *
 * Reads the flow-span JSONL a run emits via `snap-run --flows`
 * (src/obs/flow.hh, docs/TRACING.md) — FILE may be `-` for stdin —
 * through the shared stream reader (obs/jsonl.hh) and folds the spans
 * into per-flow dissemination trees: which nodes a flow reached, along
 * which parent edges, at what hop depth, with per-hop forward latency
 * percentiles and attributed transmit energy per flow and per span.
 *
 * --validate checks every line against the canonical span schema and
 * the stream's ordering contract (globally sorted by (tx_tick, node),
 * hop 0 iff parent -1, rx latch never after tx) and exits nonzero on
 * the first violation; CI smokes the --jobs determinism with it.
 *
 * --chrome=FILE exports a Chrome trace (chrome://tracing /
 * ui.perfetto.dev): one track per node, each hop>0 span drawn as a
 * latch-to-transmit slice, origin transmissions as instants.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/flow.hh"
#include "obs/jsonl.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace {

using namespace snaple;
using obs::kNoNode;
using obs::SpanRecord;

/**
 * Read one span line (schema: src/obs/flow.hh writeSpanJsonl). Every
 * field is range-checked against its SpanRecord type and the span
 * against the canonical writer's contract.
 */
SpanRecord
readSpan(const obs::JsonlRecord &rec)
{
    if (rec.str("type") != "span")
        rec.fail("type", "not a span line");
    SpanRecord s;
    s.origin = std::uint32_t(rec.u64("origin", 0xffffffffu));
    s.id = std::uint32_t(rec.u64("id", 0xffffffffu));
    s.node = std::uint32_t(rec.u64("node", 0xffffffffu));
    // -1 wraps to kNoNode, which the range keeps from real parents.
    s.parent = std::uint32_t(rec.i64("parent", -1, kNoNode - 1));
    s.hop = std::uint16_t(rec.u64("hop", 0xffff));
    s.word = std::uint16_t(rec.u64("word", 0xffff));
    s.rxTick = rec.u64("rx_tick");
    s.txTick = rec.u64("tx_tick");
    s.pj = rec.f64("pj");
    if ((s.hop == 0) != (s.parent == kNoNode))
        rec.fail("parent", "hop/parent mismatch (hop 0 iff parent -1)");
    if (s.hop == 0 && s.rxTick != 0)
        rec.fail("rx_tick", "origin span with nonzero rx_tick");
    if (s.hop == 0 && s.origin != s.node)
        rec.fail("node", "origin span not emitted by its origin node");
    if (s.hop > 0 && s.rxTick > s.txTick)
        rec.fail("rx_tick", "rx latch after transmit");
    if (s.pj < 0)
        rec.fail("pj", "negative pj");
    return s;
}

double
toMs(std::uint64_t tick)
{
    return double(tick) / 1e9; // 1000 ticks per ns (sim/ticks.hh)
}

/** Exact percentile (nearest-rank) of an already-sorted vector. */
double
percentile(const std::vector<double> &sorted, double p)
{
    const auto idx = static_cast<std::size_t>(
        p * double(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/** Flows keyed by (origin, id). */
using FlowKey = std::pair<std::uint32_t, std::uint32_t>;

struct Flow
{
    std::vector<SpanRecord> spans; ///< stream order
    /** Per node: first span (earliest tx — the tree edge). */
    std::map<std::uint32_t, const SpanRecord *> first;
    std::uint32_t maxHop = 0;
    double pj = 0.0;
};

void
printTree(const Flow &f, std::uint32_t node,
          std::set<std::uint32_t> &visited, int depth)
{
    const auto it = f.first.find(node);
    if (it == f.first.end() || !visited.insert(node).second)
        return;
    const SpanRecord &s = *it->second;
    std::size_t count = 0;
    double pj = 0.0;
    for (const SpanRecord &sp : f.spans)
        if (sp.node == node) {
            ++count;
            pj += sp.pj;
        }
    std::printf("  %*snode %u hop %u", depth * 2, "", s.node, s.hop);
    if (s.hop > 0)
        std::printf(" rx@%.3fms", toMs(s.rxTick));
    std::printf(" tx@%.3fms (%zu span%s, %.1f nJ)\n", toMs(s.txTick),
                count, count == 1 ? "" : "s", pj / 1e3);
    // Children sorted by first-transmit tick: breadth-stable output.
    std::vector<const SpanRecord *> kids;
    for (const auto &[n, sp] : f.first)
        if (sp->parent == node)
            kids.push_back(sp);
    std::sort(kids.begin(), kids.end(),
              [](const SpanRecord *a, const SpanRecord *b) {
                  return a->txTick != b->txTick ? a->txTick < b->txTick
                                                : a->node < b->node;
              });
    for (const SpanRecord *k : kids)
        printTree(f, k->node, visited, depth + 1);
}

void
printReport(const std::vector<SpanRecord> &spans, std::size_t top)
{
    std::map<FlowKey, Flow> flows;
    std::set<std::uint32_t> nodes;
    double totalPj = 0.0;
    for (const SpanRecord &s : spans) {
        Flow &f = flows[{s.origin, s.id}];
        f.spans.push_back(s);
        f.maxHop = std::max<std::uint32_t>(f.maxHop, s.hop);
        f.pj += s.pj;
        nodes.insert(s.node);
        totalPj += s.pj;
    }
    for (auto &[key, f] : flows)
        for (const SpanRecord &s : f.spans) {
            auto [it, fresh] = f.first.try_emplace(s.node, &s);
            if (!fresh && s.txTick < it->second->txTick)
                it->second = &s;
        }

    std::printf("%zu spans, %zu flows, %zu node(s), %.1f nJ "
                "(%.1f pJ/span)\n\n",
                spans.size(), flows.size(), nodes.size(), totalPj / 1e3,
                spans.empty() ? 0.0 : totalPj / double(spans.size()));

    // Forward latency — rx latch to transmit — per hop depth.
    std::map<std::uint32_t, std::vector<double>> byHop;
    for (const SpanRecord &s : spans)
        if (s.hop > 0)
            byHop[s.hop].push_back(toMs(s.txTick - s.rxTick));
    if (!byHop.empty()) {
        std::printf("per-hop forward latency (rx latch -> tx), ms\n");
        std::printf("%-5s %7s %9s %9s %9s\n", "hop", "count", "p50",
                    "p90", "p99");
        for (auto &[hop, v] : byHop) {
            std::sort(v.begin(), v.end());
            std::printf("%-5u %7zu %9.3f %9.3f %9.3f\n", hop, v.size(),
                        percentile(v, 0.50), percentile(v, 0.90),
                        percentile(v, 0.99));
        }
        std::printf("\n");
    }

    // Largest flows, with their dissemination trees.
    std::vector<const std::pair<const FlowKey, Flow> *> order;
    for (const auto &kv : flows)
        order.push_back(&kv);
    std::sort(order.begin(), order.end(), [](auto *a, auto *b) {
        if (a->second.spans.size() != b->second.spans.size())
            return a->second.spans.size() > b->second.spans.size();
        return a->first < b->first;
    });
    std::size_t shown = 0, singles = 0;
    for (const auto *kv : order)
        if (kv->second.spans.size() < 2)
            ++singles;
    std::printf("flows (top %zu by span count; %zu single-span flows "
                "elided)\n",
                std::min(top, order.size() - singles), singles);
    for (const auto *kv : order) {
        const auto &[key, f] = *kv;
        if (shown >= top || f.spans.size() < 2)
            break;
        ++shown;
        std::printf("flow %u/%u: %zu spans, %zu nodes, max hop %u, "
                    "%.1f nJ\n",
                    key.first, key.second, f.spans.size(),
                    f.first.size(), f.maxHop, f.pj / 1e3);
        std::set<std::uint32_t> visited;
        printTree(f, key.first, visited, 0);
        // Orphan subtrees: the parent's own first span may postdate
        // the transmission this node latched (retransmit chains).
        for (const auto &[n, sp] : f.first)
            if (!visited.count(n))
                printTree(f, n, visited, 0);
    }
}

/**
 * Chrome trace_event JSON: pid 0, one tid (track) per node. Hop>0
 * spans become "X" slices from rx latch to transmit; origin
 * transmissions become "i" instants.
 */
int
writeChrome(const std::vector<SpanRecord> &spans, const char *path)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    sim::ChromeTraceWriter chrome(out);
    std::set<std::uint32_t> nodes;
    for (const SpanRecord &s : spans)
        nodes.insert(s.node);
    for (std::uint32_t n : nodes)
        chrome.threadName(n, "node " + std::to_string(n));
    char buf[64];
    for (const SpanRecord &s : spans) {
        const double tsUs =
            double(s.hop > 0 ? s.rxTick : s.txTick) / 1e6;
        chrome.event() << "{\"name\":\"flow " << s.origin << "/"
                       << s.id << " hop " << s.hop << "\",\"ph\":\""
                       << (s.hop > 0 ? 'X' : 'i')
                       << "\",\"pid\":0,\"tid\":" << s.node << ",\"ts\":";
        std::snprintf(buf, sizeof buf, "%.3f", tsUs);
        out << buf;
        if (s.hop > 0) {
            std::snprintf(buf, sizeof buf, "%.3f",
                          double(s.txTick - s.rxTick) / 1e6);
            out << ",\"dur\":" << buf;
        } else {
            out << ",\"s\":\"t\"";
        }
        out << ",\"args\":{\"origin\":" << s.origin << ",\"id\":"
            << s.id << ",\"parent\":"
            << (s.parent == kNoNode ? -1 : static_cast<long long>(s.parent))
            << ",\"word\":" << s.word << ",\"pj\":" << s.pj << "}}";
    }
    chrome.finish();
    out.flush();
    return out ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *path = nullptr;
    const char *chrome = nullptr;
    bool validate = false;
    std::size_t top = 10;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--validate"))
            validate = true;
        else if (!std::strncmp(argv[i], "--chrome=", 9))
            chrome = argv[i] + 9;
        else if (!std::strncmp(argv[i], "--top=", 6))
            top = std::strtoull(argv[i] + 6, nullptr, 10);
        else if (argv[i][0] == '-' && std::strcmp(argv[i], "-"))
            path = nullptr, i = argc; // unknown flag -> usage
        else if (!path)
            path = argv[i];
        else
            path = nullptr, i = argc; // extra positional -> usage
    }
    if (!path) {
        std::fprintf(stderr,
                     "usage: snap-trace FILE.jsonl [--validate] "
                     "[--chrome=FILE] [--top=N]\n"
                     "FILE may be - for stdin\n");
        return 2;
    }

    std::vector<SpanRecord> spans;
    try {
        obs::readJsonl(path, [&](const obs::JsonlRecord &rec) {
            const SpanRecord s = readSpan(rec);
            // Ordering contract: globally sorted by (tx_tick, node).
            if (!spans.empty() &&
                (s.txTick < spans.back().txTick ||
                 (s.txTick == spans.back().txTick &&
                  s.node <= spans.back().node)))
                rec.fail("tx_tick", "stream not sorted by (tx_tick, node)");
            spans.push_back(s);
        });
    } catch (const sim::FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    if (validate) {
        std::map<FlowKey, std::size_t> flows;
        for (const SpanRecord &s : spans)
            ++flows[{s.origin, s.id}];
        std::printf("OK: %zu spans, %zu flows, schema and ordering "
                    "valid\n",
                    spans.size(), flows.size());
        return 0;
    }
    if (chrome) {
        const int rc = writeChrome(spans, chrome);
        if (rc)
            return rc;
        std::printf("wrote %s (%zu events)\n", chrome, spans.size());
        return 0;
    }
    printReport(spans, top);
    return 0;
}
