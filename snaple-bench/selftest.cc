/**
 * @file
 * Self-test of the seeded workload generator and the traced driver
 * (README.md, "Self-test"):
 *
 *  - the same seed gives byte-identical `.scn` text;
 *  - the text is canonical: serializeScenario(parseScenario(text))
 *    returns it unchanged;
 *  - a held-out seed moves positions, fault times and batteries but
 *    keeps the kernel event count within kEventTolerance;
 *  - the reference run of every workload exercises its layers, and
 *    the traced driver reproduces runScenario()'s rows.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "driver.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "workloads.hh"

namespace snaple::bench {
namespace {

constexpr std::uint64_t kSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 1001;

/** Largest relative change of sim.kernel_events a held-out seed may
 *  cause: seeds vary the input, not the amount of work. */
constexpr double kEventTolerance = 0.05;

const std::map<std::string, std::string> &
programs()
{
    static const auto p = loadPrograms(SNAPLE_BENCH_PROGRAMS);
    return p;
}

scenario::RunResult
runReference(const scenario::Scenario &sc)
{
    scenario::RunOptions opt;
    opt.loadSource = [](const std::string &path) {
        return programs().at(path);
    };
    return scenario::runScenario(sc, opt);
}

class Generator : public ::testing::TestWithParam<std::string>
{
  protected:
    const Workload &
    workload() const
    {
        const Workload *w = findWorkload(GetParam());
        EXPECT_NE(w, nullptr);
        return *w;
    }
};

TEST_P(Generator, SameSeedGivesIdenticalText)
{
    EXPECT_EQ(generateScenario(workload(), kSeed),
              generateScenario(workload(), kSeed));
}

TEST_P(Generator, TextIsCanonical)
{
    for (std::uint64_t seed : {kSeed, kHeldOutSeed}) {
        const std::string text = generateScenario(workload(), seed);
        EXPECT_EQ(scenario::serializeScenario(
                      scenario::parseScenario(text, "<generated>")),
                  text)
            << "seed " << seed;
    }
}

TEST_P(Generator, HeldOutSeedChangesInputsNotWork)
{
    const std::string a = generateScenario(workload(), kSeed);
    const std::string b = generateScenario(workload(), kHeldOutSeed);
    const scenario::Scenario sa = scenario::parseScenario(a);
    const scenario::Scenario sb = scenario::parseScenario(b);
    EXPECT_NE(sa.seed, sb.seed);

    bool moved = false;
    for (std::size_t i = 0; i < sa.nodes; ++i) {
        const scenario::NodeSettings na = sa.resolved(i);
        const scenario::NodeSettings nb = sb.resolved(i);
        moved |= na.position != nb.position ||
                 na.batteryUj != nb.batteryUj;
    }
    for (std::size_t k = 0; k < sa.faults.size(); ++k)
        moved |= sa.faults[k].atMs != sb.faults.at(k).atMs;
    EXPECT_TRUE(moved) << "the held-out seed changed no position, "
                          "battery or fault time";

    TracedOptions opt;
    const double ea = double(
        runTraced(a, programs(), opt).layers.kernelEvents);
    const double eb = double(
        runTraced(b, programs(), opt).layers.kernelEvents);
    EXPECT_LE(std::abs(eb - ea) / ea, kEventTolerance)
        << "kernel events " << ea << " vs " << eb;
}

TEST_P(Generator, ReferenceExercisesItsLayers)
{
    const Workload &w = workload();
    const std::string text = generateScenario(w, kSeed);
    const scenario::Scenario sc = scenario::parseScenario(text);

    TracedOptions opt;
    opt.streams = w.streams;
    const TracedRun traced = runTraced(text, programs(), opt);
    const Layers &L = traced.layers;
    const auto rerun = [&](const scenario::Scenario &s) {
        return runReference(s);
    };
    EXPECT_EQ(checkExercised(w, sc, traced.result, L.flowSpans,
                             L.captures, rerun),
              "");

    // Streams off, the runner's rows; the traced driver without
    // streams must match them hash for hash.
    TracedOptions quiet;
    EXPECT_EQ(runTraced(text, programs(), quiet).result.rows(),
              runReference(sc).rows());
}

INSTANTIATE_TEST_SUITE_P(Workloads, Generator,
                         ::testing::Values("trickle_line", "field_grid",
                                           "dutycycle_obs"));

} // namespace
} // namespace snaple::bench
