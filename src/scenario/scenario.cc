#include "scenario/scenario.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"
#include "sim/metrics.hh" // formatDouble: canonical shortest doubles

namespace snaple::scenario {

NodeSettings
NodeSettings::overlaid(const NodeSettings &over) const
{
    NodeSettings r = *this;
    if (over.program)
        r.program = over.program;
    if (over.volts)
        r.volts = over.volts;
    if (over.batteryUj)
        r.batteryUj = over.batteryUj;
    if (over.sensor)
        r.sensor = over.sensor;
    if (over.fidelityFast)
        r.fidelityFast = over.fidelityFast;
    if (over.position)
        r.position = over.position;
    for (const auto &[k, v] : over.params)
        r.params[k] = v;
    return r;
}

NodeSettings
Scenario::resolved(std::size_t i) const
{
    const auto it = overrides.find(static_cast<std::uint32_t>(i));
    return it == overrides.end() ? defaults
                                 : defaults.overlaid(it->second);
}

namespace {

/** Split one line into whitespace-separated tokens, '#' comments
 *  stripped. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> toks;
    std::string cur;
    for (char c : line) {
        if (c == '#')
            break;
        if (std::isspace(static_cast<unsigned char>(c))) {
            if (!cur.empty())
                toks.push_back(std::move(cur)), cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        toks.push_back(std::move(cur));
    return toks;
}

/** Parse state shared by the directive handlers: the error prefix. */
struct Ctx
{
    const std::string &origin;
    std::size_t line;

    template <typename... Args>
    [[noreturn]] void
    fail(Args &&...args) const
    {
        sim::fatal(origin, ":", line, ": ",
                   std::forward<Args>(args)...);
    }
};

std::uint64_t
parseU64(const Ctx &c, const std::string &t, const char *what)
{
    std::uint64_t v = 0;
    const auto [p, ec] =
        std::from_chars(t.data(), t.data() + t.size(), v);
    if (ec != std::errc{} || p != t.data() + t.size())
        c.fail("expected a non-negative integer ", what, ", got '", t,
               "'");
    return v;
}

/** A finite double, sign allowed (positions, dBm field keys). */
double
parseSignedF64(const Ctx &c, const std::string &t, const char *what)
{
    char *end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    if (end != t.c_str() + t.size() || t.empty() || !std::isfinite(v))
        c.fail("expected a number ", what, ", got '", t, "'");
    return v;
}

double
parseF64(const Ctx &c, const std::string &t, const char *what)
{
    const double v = parseSignedF64(c, t, what);
    if (!(v >= 0))
        c.fail(what, " must be non-negative, got '", t, "'");
    return v;
}

std::int32_t
parseParamValue(const Ctx &c, const std::string &t)
{
    std::int32_t v = 0;
    // Accept the assembler's immediate forms: decimal and 0x hex.
    const bool hex = t.size() > 2 && t[0] == '0' &&
                     (t[1] == 'x' || t[1] == 'X');
    const char *first = t.data() + (hex ? 2 : 0);
    const auto [p, ec] =
        std::from_chars(first, t.data() + t.size(), v, hex ? 16 : 10);
    if (ec != std::errc{} || p != t.data() + t.size())
        c.fail("expected an integer parameter value, got '", t, "'");
    if (v < -32768 || v > 65535)
        c.fail("parameter value ", v,
               " outside the 16-bit range [-32768, 65535]");
    return v;
}

bool
validSymbol(const std::string &s)
{
    if (s.empty() ||
        (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_'))
        return false;
    return std::all_of(s.begin(), s.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    });
}

/** Handle one `node <*|id> <key> <value...>` directive. */
void
parseNodeLine(const Ctx &c, Scenario &sc,
              const std::vector<std::string> &t)
{
    if (t.size() < 4)
        c.fail("node directive needs: node <*|id> <key> <value>");
    NodeSettings *ns;
    if (t[1] == "*") {
        ns = &sc.defaults;
    } else {
        const std::uint64_t id = parseU64(c, t[1], "node id");
        if (id > 0xffffffffull)
            c.fail("node id ", t[1], " out of range");
        ns = &sc.overrides[static_cast<std::uint32_t>(id)];
    }
    const std::string &key = t[2];
    if (key == "program") {
        if (t.size() != 4)
            c.fail("program takes one path");
        ns->program = t[3];
    } else if (key == "volts") {
        if (t.size() != 4)
            c.fail("volts takes one value");
        ns->volts = parseF64(c, t[3], "for volts");
        if (*ns->volts <= 0)
            c.fail("volts must be positive");
    } else if (key == "battery_uj") {
        if (t.size() != 4)
            c.fail("battery_uj takes one value");
        ns->batteryUj = parseF64(c, t[3], "for battery_uj");
    } else if (key == "sensor") {
        if (t.size() != 4 || (t[3] != "on" && t[3] != "off"))
            c.fail("sensor takes on|off");
        ns->sensor = t[3] == "on";
    } else if (key == "fidelity") {
        if (t.size() != 4 || (t[3] != "fast" && t[3] != "cycle"))
            c.fail("fidelity takes fast|cycle");
        ns->fidelityFast = t[3] == "fast";
    } else if (key == "param") {
        if (t.size() != 5)
            c.fail("param takes: param <NAME> <value>");
        if (!validSymbol(t[3]))
            c.fail("'", t[3], "' is not a valid parameter name");
        ns->params[t[3]] = parseParamValue(c, t[4]);
    } else if (key == "position") {
        if (t.size() != 5)
            c.fail("position takes: position <x_m> <y_m>");
        ns->position = {parseSignedF64(c, t[3], "for position x"),
                        parseSignedF64(c, t[4], "for position y")};
    } else {
        c.fail("unknown node key '", key, "'");
    }
}

/** Handle one `field <key> <value>` directive (path-loss block). */
void
parseFieldLine(const Ctx &c, Scenario &sc,
               const std::vector<std::string> &t,
               std::map<std::string, std::size_t> &seenField)
{
    if (t.size() != 3)
        c.fail("field directive needs: field <key> <value>");
    if (const auto [it, fresh] = seenField.emplace(t[1], c.line);
        !fresh)
        c.fail("duplicate 'field ", t[1], "' (first on line ",
               it->second, ")");
    if (!sc.field)
        sc.field.emplace();
    radio::FieldConfig &f = *sc.field;
    const std::string &key = t[1];
    if (key == "cell_m")
        f.cellM = parseF64(c, t[2], "for cell_m");
    else if (key == "tx_dbm")
        f.txDbm = parseSignedF64(c, t[2], "for tx_dbm");
    else if (key == "pl0_db")
        f.pl0Db = parseSignedF64(c, t[2], "for pl0_db");
    else if (key == "ref_m")
        f.refM = parseF64(c, t[2], "for ref_m");
    else if (key == "exponent")
        f.exponent = parseF64(c, t[2], "for exponent");
    else if (key == "noise_dbm")
        f.noiseDbm = parseSignedF64(c, t[2], "for noise_dbm");
    else if (key == "sensitivity_dbm")
        f.sensitivityDbm =
            parseSignedF64(c, t[2], "for sensitivity_dbm");
    else if (key == "capture_db")
        f.captureDb = parseSignedF64(c, t[2], "for capture_db");
    else
        c.fail("unknown field key '", key,
               "' (want cell_m, tx_dbm, pl0_db, ref_m, exponent, "
               "noise_dbm, sensitivity_dbm or capture_db)");
}

/** Handle one `fault <kind> ...` directive. */
void
parseFaultLine(const Ctx &c, Scenario &sc,
               const std::vector<std::string> &t)
{
    Fault f{};
    std::size_t timeAt; // index of the "at_ms" keyword
    if (t.size() >= 2 && t[1] == "kill") {
        if (t.size() != 5)
            c.fail("fault kill needs: fault kill <id> at_ms <t>");
        f.kind = Fault::Kind::Kill;
        f.a = static_cast<std::uint32_t>(
            parseU64(c, t[2], "node id"));
        f.b = f.a;
        timeAt = 3;
    } else if (t.size() >= 2 &&
               (t[1] == "link_down" || t[1] == "link_up")) {
        if (t.size() != 6)
            c.fail("fault ", t[1], " needs: fault ", t[1],
                   " <a> <b> at_ms <t>");
        f.kind = t[1] == "link_down" ? Fault::Kind::LinkDown
                                     : Fault::Kind::LinkUp;
        f.a = static_cast<std::uint32_t>(
            parseU64(c, t[2], "node id"));
        f.b = static_cast<std::uint32_t>(
            parseU64(c, t[3], "node id"));
        timeAt = 4;
    } else {
        c.fail("unknown fault kind",
               t.size() >= 2 ? " '" + t[1] + "'" : "",
               " (want kill, link_down or link_up)");
    }
    if (t[timeAt] != "at_ms")
        c.fail("expected 'at_ms', got '", t[timeAt], "'");
    f.atMs = parseF64(c, t[timeAt + 1], "for at_ms");
    sc.faults.push_back(f);
}

/** Handle one `checkpoint at_ms <t> [<path>]` directive. */
void
parseCheckpointLine(const Ctx &c, Scenario &sc,
                    const std::vector<std::string> &t)
{
    if (t.size() != 3 && t.size() != 4)
        c.fail("checkpoint needs: checkpoint at_ms <t> [<path>]");
    if (t[1] != "at_ms")
        c.fail("expected 'at_ms', got '", t[1], "'");
    Checkpoint ck;
    ck.atMs = parseF64(c, t[2], "for at_ms");
    if (t.size() == 4)
        ck.path = t[3];
    sc.checkpoints.push_back(ck);
}

/** Canonical checkpoint order: (time, path). */
bool
checkpointLess(const Checkpoint &x, const Checkpoint &y)
{
    if (x.atMs != y.atMs)
        return x.atMs < y.atMs;
    return x.path < y.path;
}

/** Canonical fault order: (time, kind, endpoints). */
bool
faultLess(const Fault &x, const Fault &y)
{
    if (x.atMs != y.atMs)
        return x.atMs < y.atMs;
    if (x.kind != y.kind)
        return static_cast<int>(x.kind) < static_cast<int>(y.kind);
    if (x.a != y.a)
        return x.a < y.a;
    return x.b < y.b;
}

void
validate(const Scenario &sc, const std::string &origin)
{
    const auto fail = [&](auto &&...args) {
        sim::fatal(origin, ": ", args...);
    };
    if (sc.nodes == 0)
        fail("scenario needs a positive 'nodes' count");
    if (sc.durationMs <= 0)
        fail("scenario needs a positive 'duration_ms'");
    if (sc.topology != "full" && sc.topology != "line" &&
        sc.topology != "ring")
        fail("unknown topology '", sc.topology,
             "' (want full, line or ring)");
    for (const auto &[id, ns] : sc.overrides) {
        (void)ns;
        if (id >= sc.nodes)
            fail("override for node ", id, " but only ", sc.nodes,
                 " nodes");
    }
    for (std::size_t i = 0; i < sc.nodes; ++i)
        if (!sc.resolved(i).program)
            fail("node ", i, " resolves no program (add a 'node * "
                 "program' default or a per-node override)");
    if (sc.field) {
        if (sc.topology != "full")
            fail("field mode requires topology full (connectivity "
                 "comes from positions and path loss)");
        if (sc.field->refM <= 0)
            fail("field ref_m must be positive");
        if (sc.field->exponent <= 0)
            fail("field exponent must be positive");
        if (sc.field->cellM <= 0)
            fail("field cell_m must be positive");
        if (sc.field->sensitivityDbm < sc.field->noiseDbm)
            fail("field sensitivity_dbm below the noise floor");
        for (std::size_t i = 0; i < sc.nodes; ++i)
            if (!sc.resolved(i).position)
                fail("field mode: node ", i, " has no position");
    } else {
        const auto placed = [](const NodeSettings &ns) {
            return ns.position.has_value();
        };
        if (placed(sc.defaults) ||
            std::any_of(sc.overrides.begin(), sc.overrides.end(),
                        [&](const auto &kv) {
                            return placed(kv.second);
                        }))
            fail("node positions need a 'field' block");
    }
    for (const Fault &f : sc.faults) {
        if (f.a >= sc.nodes || f.b >= sc.nodes)
            fail("fault references node ", std::max(f.a, f.b),
                 " but only ", sc.nodes, " nodes");
        if (f.kind != Fault::Kind::Kill && f.a == f.b)
            fail("link fault needs two distinct endpoints");
    }
    for (const Checkpoint &ck : sc.checkpoints)
        if (ck.atMs > sc.durationMs)
            fail("checkpoint at_ms ", ck.atMs,
                 " is past duration_ms ", sc.durationMs);
}

} // namespace

Scenario
parseScenario(const std::string &text, const std::string &origin)
{
    Scenario sc;
    bool sawNodes = false, sawDuration = false;
    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;
    // Scalar directives may appear at most once; the canonical form
    // is then unambiguous and parse∘serialize is a fixed point.
    std::map<std::string, std::size_t> seen;
    std::map<std::string, std::size_t> seenField;
    while (std::getline(in, line)) {
        ++lineNo;
        const Ctx c{origin, lineNo};
        const std::vector<std::string> t = tokenize(line);
        if (t.empty())
            continue;
        const std::string &d = t[0];
        if (d == "node") {
            parseNodeLine(c, sc, t);
            continue;
        }
        if (d == "field") {
            parseFieldLine(c, sc, t, seenField);
            continue;
        }
        if (d == "fault") {
            parseFaultLine(c, sc, t);
            continue;
        }
        if (d == "checkpoint") {
            parseCheckpointLine(c, sc, t);
            continue;
        }
        if (const auto [it, fresh] = seen.emplace(d, lineNo); !fresh)
            c.fail("duplicate '", d, "' (first on line ", it->second,
                   ")");
        if (t.size() != 2)
            c.fail("'", d, "' takes exactly one value");
        if (d == "scenario") {
            sc.name = t[1];
        } else if (d == "nodes") {
            sc.nodes = parseU64(c, t[1], "node count");
            if (sc.nodes > kMaxNodes)
                c.fail("node count ", sc.nodes, " exceeds the limit of ",
                       kMaxNodes);
            sawNodes = true;
        } else if (d == "topology") {
            sc.topology = t[1];
        } else if (d == "seed") {
            sc.seed = parseU64(c, t[1], "seed");
        } else if (d == "duration_ms") {
            sc.durationMs = parseF64(c, t[1], "for duration_ms");
            sawDuration = true;
        } else if (d == "metrics_ms") {
            sc.metricsMs = parseF64(c, t[1], "for metrics_ms");
        } else if (d == "propagation_us") {
            sc.propagationUs = parseF64(c, t[1], "for propagation_us");
        } else if (d == "window_us") {
            sc.windowUs = parseF64(c, t[1], "for window_us");
        } else if (d == "flow_window_ms") {
            sc.flowWindowMs = parseF64(c, t[1], "for flow_window_ms");
        } else {
            c.fail("unknown directive '", d, "'");
        }
    }
    if (!sawNodes)
        sim::fatal(origin, ": missing 'nodes' directive");
    if (!sawDuration)
        sim::fatal(origin, ": missing 'duration_ms' directive");
    std::stable_sort(sc.faults.begin(), sc.faults.end(), faultLess);
    std::stable_sort(sc.checkpoints.begin(), sc.checkpoints.end(),
                     checkpointLess);
    validate(sc, origin);
    return sc;
}

Scenario
loadScenario(const std::string &path)
{
    std::ifstream in(path);
    sim::fatalIf(!in, "cannot open scenario file ", path);
    std::ostringstream text;
    text << in.rdbuf();
    Scenario sc = parseScenario(text.str(), path);
    const std::size_t slash = path.find_last_of('/');
    sc.baseDir = slash == std::string::npos ? std::string(".")
                                            : path.substr(0, slash);
    return sc;
}

namespace {

void
writeSettings(std::ostream &os, const std::string &who,
              const NodeSettings &ns)
{
    if (ns.program)
        os << "node " << who << " program " << *ns.program << "\n";
    if (ns.volts)
        os << "node " << who << " volts "
           << sim::formatDouble(*ns.volts) << "\n";
    if (ns.batteryUj)
        os << "node " << who << " battery_uj "
           << sim::formatDouble(*ns.batteryUj) << "\n";
    if (ns.sensor)
        os << "node " << who << " sensor "
           << (*ns.sensor ? "on" : "off") << "\n";
    if (ns.fidelityFast)
        os << "node " << who << " fidelity "
           << (*ns.fidelityFast ? "fast" : "cycle") << "\n";
    if (ns.position)
        os << "node " << who << " position "
           << sim::formatDouble(ns.position->first) << " "
           << sim::formatDouble(ns.position->second) << "\n";
    for (const auto &[k, v] : ns.params) // std::map: sorted by name
        os << "node " << who << " param " << k << " " << v << "\n";
}

} // namespace

std::string
serializeScenario(const Scenario &sc)
{
    std::ostringstream os;
    os << "scenario " << sc.name << "\n";
    os << "nodes " << sc.nodes << "\n";
    os << "topology " << sc.topology << "\n";
    os << "seed " << sc.seed << "\n";
    os << "duration_ms " << sim::formatDouble(sc.durationMs) << "\n";
    if (sc.metricsMs > 0)
        os << "metrics_ms " << sim::formatDouble(sc.metricsMs) << "\n";
    os << "propagation_us " << sim::formatDouble(sc.propagationUs)
       << "\n";
    if (sc.windowUs > 0)
        os << "window_us " << sim::formatDouble(sc.windowUs) << "\n";
    if (sc.flowWindowMs > 0)
        os << "flow_window_ms " << sim::formatDouble(sc.flowWindowMs)
           << "\n";
    if (sc.field) {
        const radio::FieldConfig &f = *sc.field;
        os << "field cell_m " << sim::formatDouble(f.cellM) << "\n";
        os << "field tx_dbm " << sim::formatDouble(f.txDbm) << "\n";
        os << "field pl0_db " << sim::formatDouble(f.pl0Db) << "\n";
        os << "field ref_m " << sim::formatDouble(f.refM) << "\n";
        os << "field exponent " << sim::formatDouble(f.exponent)
           << "\n";
        os << "field noise_dbm " << sim::formatDouble(f.noiseDbm)
           << "\n";
        os << "field sensitivity_dbm "
           << sim::formatDouble(f.sensitivityDbm) << "\n";
        os << "field capture_db " << sim::formatDouble(f.captureDb)
           << "\n";
    }
    writeSettings(os, "*", sc.defaults);
    for (const auto &[id, ns] : sc.overrides) // sorted by id
        writeSettings(os, std::to_string(id), ns);
    std::vector<Fault> faults = sc.faults;
    std::stable_sort(faults.begin(), faults.end(), faultLess);
    for (const Fault &f : faults) {
        os << "fault ";
        switch (f.kind) {
          case Fault::Kind::Kill:
            os << "kill " << f.a;
            break;
          case Fault::Kind::LinkDown:
            os << "link_down " << f.a << " " << f.b;
            break;
          case Fault::Kind::LinkUp:
            os << "link_up " << f.a << " " << f.b;
            break;
        }
        os << " at_ms " << sim::formatDouble(f.atMs) << "\n";
    }
    std::vector<Checkpoint> cks = sc.checkpoints;
    std::stable_sort(cks.begin(), cks.end(), checkpointLess);
    for (const Checkpoint &ck : cks) {
        os << "checkpoint at_ms " << sim::formatDouble(ck.atMs);
        if (!ck.path.empty())
            os << " " << ck.path;
        os << "\n";
    }
    return os.str();
}

} // namespace snaple::scenario
