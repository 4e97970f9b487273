#include "workloads.hh"

#include <fstream>
#include <sstream>

#include "sim/logging.hh"
#include "sim/metrics.hh"

namespace snaple::bench {

namespace {

/** splitmix64: the generator's only source of randomness. */
class Draw
{
  public:
    explicit Draw(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [lo, hi]. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return lo + std::int64_t(next() % std::uint64_t(hi - lo + 1));
    }

  private:
    std::uint64_t s_;
};

std::string
fmt(double v)
{
    return sim::formatDouble(v);
}

/** The scalar head every workload shares, in canonical order. */
void
writeHead(std::ostream &os, const std::string &name, std::size_t nodes,
          const std::string &topology, std::uint64_t seed,
          double durationMs, double metricsMs, double flowWindowMs)
{
    os << "scenario " << name << "\n"
       << "nodes " << nodes << "\n"
       << "topology " << topology << "\n"
       << "seed " << seed << "\n"
       << "duration_ms " << fmt(durationMs) << "\n";
    if (metricsMs > 0)
        os << "metrics_ms " << fmt(metricsMs) << "\n";
    os << "propagation_us 1\n";
    if (flowWindowMs > 0)
        os << "flow_window_ms " << fmt(flowWindowMs) << "\n";
}

/**
 * trickle_line: Trickle dissemination down a 16-node line, every node
 * on the cycle tier. One link in the near half flaps and one node in
 * the far half dies; the seed draws which and when.
 */
std::string
trickleLine(Draw &d)
{
    constexpr std::size_t kNodes = 16;
    std::ostringstream os;
    writeHead(os, "trickle_line", kNodes, "line", d.range(1, 65535),
              8000, 0, 0);
    os << "node * program trickle_node.s\n"
       << "node * fidelity cycle\n"
       << "node * param IS_SEED 0\n"
       << "node * param SEED_PERIOD_TK 60000\n"
       << "node * param TMAX_TK 16384\n"
       << "node * param TMIN_TK 4096\n"
       << "node 0 param IS_SEED 1\n";
    const std::int64_t a = d.range(2, 5);
    const std::int64_t downMs = d.range(1000, 2000);
    const std::int64_t upMs = downMs + d.range(300, 600);
    const std::int64_t victim = d.range(11, 14);
    const std::int64_t killMs = d.range(6000, 7000);
    os << "fault link_down " << a << " " << a + 1 << " at_ms " << downMs
       << "\n"
       << "fault link_up " << a << " " << a + 1 << " at_ms " << upMs
       << "\n"
       << "fault kill " << victim << " at_ms " << killMs << "\n";
    return os.str();
}

/**
 * field_grid: 64x64 nodes on a 10 m grid with seed-drawn jitter, all
 * on the fast tier. Every 8th node in both directions is a fixed
 * clusterhead; the 16 ids of each 4x4 block of heads stagger their
 * adverts, and the members' ids (their place in the 4x4 block) share
 * slots with members 40 m away, so deliveries, collisions and
 * captures all occur.
 */
std::string
fieldGrid(Draw &d)
{
    constexpr int kSide = 64;
    constexpr double kSpacingM = 10;
    std::ostringstream os;
    writeHead(os, "field_grid", kSide * kSide, "full",
              d.range(1, 65535), 400, 0, 0);
    os << "field cell_m 25\n"
       << "field tx_dbm 0\n"
       << "field pl0_db 40\n"
       << "field ref_m 1\n"
       << "field exponent 2.7\n"
       << "field noise_dbm -100\n"
       << "field sensitivity_dbm -75\n"
       << "field capture_db 10\n"
       << "node * program rssi_cluster_node.s\n"
       << "node * fidelity fast\n"
       << "node * param IS_HEAD 0\n"
       << "node * param ROUND_TK 50000\n"
       << "node * param SLOT_BASE_TK 4096\n"
       << "node * param SLOT_SHIFT 11\n";
    for (int i = 0; i < kSide * kSide; ++i) {
        const int gx = i % kSide, gy = i / kSide;
        // Jitter in decimeters keeps the text short and exact.
        const double x = gx * kSpacingM + double(d.range(-10, 10)) / 10;
        const double y = gy * kSpacingM + double(d.range(-10, 10)) / 10;
        const bool head = gx % 8 == 3 && gy % 8 == 3;
        const int id = head ? (gx / 8 % 4) * 4 + gy / 8 % 4
                            : (gx % 4) * 4 + gy % 4;
        os << "node " << i << " position " << fmt(x) << " " << fmt(y)
           << "\n";
        if (head)
            os << "node " << i << " param IS_HEAD 1\n";
        os << "node " << i << " param MY_ID " << id << "\n";
    }
    return os.str();
}

/**
 * dutycycle_obs: 32 duty-cycled sensing nodes reporting to one sink
 * over a full topology, mixed tiers, with a metrics stream, flow
 * spans and a checkpoint every 500 ms. Eight sensors carry batteries
 * the seed sizes so that they run out in the second half of the run.
 */
std::string
dutycycleObs(Draw &d)
{
    constexpr std::size_t kNodes = 32;
    constexpr double kDurationMs = 5000;
    std::ostringstream os;
    writeHead(os, "dutycycle_obs", kNodes, "full", d.range(1, 65535),
              kDurationMs, 100, 10);
    os << "node * program dutycycle_node.s\n"
       << "node * volts 0.6\n"
       << "node * sensor on\n"
       << "node * fidelity fast\n"
       << "node * param IS_SINK 0\n"
       << "node * param PERIOD_TK 20000\n"
       << "node * param REPORT_EVERY 4\n";
    for (std::size_t i = 0; i < kNodes; ++i) {
        if (i == 0) {
            os << "node 0 volts 1.8\n"
               << "node 0 sensor off\n"
               << "node 0 fidelity cycle\n"
               << "node 0 param IS_SINK 1\n";
            continue;
        }
        if (i <= 8)
            os << "node " << i << " battery_uj " << d.range(1300, 1500)
               << "\n";
        if (i % 4 == 1)
            os << "node " << i << " fidelity cycle\n";
    }
    for (int k = 1; k * 500 < kDurationMs; ++k)
        os << "checkpoint at_ms " << k * 500 << "\n";
    return os.str();
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"trickle_line", 1, false},
        {"field_grid", 4, false},
        {"dutycycle_obs", 4, true},
    };
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::string
generateScenario(const Workload &w, std::uint64_t seed)
{
    // Decorrelate the workloads: seed n draws different streams for
    // each of them.
    std::uint64_t tag = 0;
    for (char c : w.name)
        tag = tag * 131 + std::uint8_t(c);
    Draw d(seed ^ (tag * 0x9e3779b97f4a7c15ull));
    if (w.name == "trickle_line")
        return trickleLine(d);
    if (w.name == "field_grid")
        return fieldGrid(d);
    if (w.name == "dutycycle_obs")
        return dutycycleObs(d);
    sim::fatal("no generator for workload ", w.name);
}

std::map<std::string, std::string>
loadPrograms(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const char *f : {"trickle_node.s", "rssi_cluster_node.s",
                          "dutycycle_node.s"}) {
        const std::string path = dir + "/" + f;
        std::ifstream in(path);
        sim::fatalIf(!in, "cannot open program file ", path);
        std::ostringstream text;
        text << in.rdbuf();
        out[f] = text.str();
    }
    return out;
}

std::string
checkExercised(const Workload &w, const scenario::Scenario &sc,
               const scenario::RunResult &res, std::uint64_t flowSpans,
               std::uint64_t captures, const Rerun &rerun)
{
    std::ostringstream why;
    if (w.name == "trickle_line") {
        // A prefix run that stops where the link comes back shows how
        // many versions the far endpoint had logged by then; the full
        // run must log more, i.e. versions crossed after the flap.
        using scenario::Fault;
        for (const Fault &f : sc.faults) {
            if (f.kind != Fault::Kind::LinkUp)
                continue;
            scenario::Scenario prefix = sc;
            prefix.durationMs = f.atMs;
            prefix.checkpoints.clear();
            const std::size_t before =
                rerun(prefix).outcomes.at(f.b).dbgWords;
            if (res.outcomes.at(f.b).dbgWords <= before)
                why << "node " << f.b << " logged no version after the "
                    << "flap ended at " << f.atMs << " ms; ";
        }
    } else if (w.name == "field_grid") {
        if (res.air.wordsDelivered == 0)
            why << "no deliveries; ";
        if (res.air.collisions == 0)
            why << "no collisions; ";
        if (res.rxInRange == 0)
            why << "no in-range receptions; ";
    } else if (w.name == "dutycycle_obs") {
        std::size_t batteryDeaths = 0;
        for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
            const auto b = sc.resolved(i).batteryUj;
            if (res.outcomes[i].dead && b && *b > 0)
                ++batteryDeaths;
        }
        if (batteryDeaths == 0)
            why << "no battery death; ";
        if (res.checkpoints.size() != sc.checkpoints.size() ||
            captures != sc.checkpoints.size())
            why << res.checkpoints.size() << " of "
                << sc.checkpoints.size() << " checkpoints taken; ";
        if (flowSpans == 0)
            why << "no flow spans; ";
    }
    return why.str();
}

} // namespace snaple::bench
