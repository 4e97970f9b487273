/**
 * @file
 * Scenario parser properties: parse ∘ serialize is a fixed point
 * (canonical form), and malformed files are rejected with
 * line-numbered errors.
 */

#include <string>

#include <gtest/gtest.h>

#include "scenario/scenario.hh"
#include "sim/logging.hh"

namespace {

using namespace snaple;
using scenario::Fault;
using scenario::parseScenario;
using scenario::Scenario;
using scenario::serializeScenario;

const char *kFull = R"(# a kitchen-sink scenario
scenario everything
nodes 4
topology ring
seed 99
duration_ms 123.5
metrics_ms 10
propagation_us 2
window_us 500

node * program proto.s
node * volts 0.9
node * param PERIOD 2000
node * param ZETA 0x1f
node 0 program sink.s     # overrides win
node 0 sensor on
node 2 battery_uj 1500.25
node 2 param PERIOD 4000

fault kill 3 at_ms 50
fault link_down 0 1 at_ms 10.5
fault link_up 0 1 at_ms 20
)";

TEST(ScenarioParser, RoundTripIsFixedPoint)
{
    const Scenario sc1 = parseScenario(kFull, "full.scn");
    const std::string s1 = serializeScenario(sc1);
    const Scenario sc2 = parseScenario(s1, "full.scn#2");
    const std::string s2 = serializeScenario(sc2);
    EXPECT_EQ(s1, s2);

    // And the parsed values themselves survive the round trip.
    EXPECT_EQ(sc2.name, "everything");
    EXPECT_EQ(sc2.nodes, 4u);
    EXPECT_EQ(sc2.topology, "ring");
    EXPECT_EQ(sc2.seed, 99u);
    EXPECT_DOUBLE_EQ(sc2.durationMs, 123.5);
    EXPECT_DOUBLE_EQ(sc2.metricsMs, 10.0);
    EXPECT_DOUBLE_EQ(sc2.propagationUs, 2.0);
    EXPECT_DOUBLE_EQ(sc2.windowUs, 500.0);
    EXPECT_EQ(sc2.defaults, sc1.defaults);
    EXPECT_EQ(sc2.overrides, sc1.overrides);
    EXPECT_EQ(sc2.faults, sc1.faults);
}

TEST(ScenarioParser, ResolvedMergesDefaultsAndOverrides)
{
    const Scenario sc = parseScenario(kFull, "full.scn");
    const scenario::NodeSettings n0 = sc.resolved(0);
    EXPECT_EQ(*n0.program, "sink.s"); // override wins
    EXPECT_EQ(*n0.volts, 0.9);        // default survives
    EXPECT_TRUE(*n0.sensor);
    EXPECT_EQ(n0.params.at("PERIOD"), 2000);

    const scenario::NodeSettings n2 = sc.resolved(2);
    EXPECT_EQ(*n2.program, "proto.s");
    EXPECT_EQ(n2.params.at("PERIOD"), 4000); // param merged by name
    EXPECT_EQ(n2.params.at("ZETA"), 0x1f);
    EXPECT_DOUBLE_EQ(*n2.batteryUj, 1500.25);
}

TEST(ScenarioParser, FidelityStanzaRoundTripsAndResolves)
{
    const Scenario sc = parseScenario("scenario f\n"
                                      "nodes 3\n"
                                      "duration_ms 10\n"
                                      "node * program a.s\n"
                                      "node * fidelity fast\n"
                                      "node 1 fidelity cycle\n",
                                      "f.scn");
    ASSERT_TRUE(sc.defaults.fidelityFast.has_value());
    EXPECT_TRUE(*sc.defaults.fidelityFast);
    EXPECT_TRUE(*sc.resolved(0).fidelityFast);  // default applies
    EXPECT_FALSE(*sc.resolved(1).fidelityFast); // override wins
    EXPECT_TRUE(*sc.resolved(2).fidelityFast);

    const std::string s1 = serializeScenario(sc);
    EXPECT_NE(s1.find("node * fidelity fast"), std::string::npos);
    EXPECT_NE(s1.find("node 1 fidelity cycle"), std::string::npos);
    EXPECT_EQ(s1, serializeScenario(parseScenario(s1, "f.scn#2")));
}

TEST(ScenarioParser, CanonicalFormSortsFaults)
{
    const Scenario sc = parseScenario(kFull, "full.scn");
    ASSERT_EQ(sc.faults.size(), 3u);
    EXPECT_EQ(sc.faults[0].kind, Fault::Kind::LinkDown); // 10.5 ms
    EXPECT_EQ(sc.faults[1].kind, Fault::Kind::LinkUp);   // 20 ms
    EXPECT_EQ(sc.faults[2].kind, Fault::Kind::Kill);     // 50 ms
}

/** EXPECT that parsing @p text throws and the message contains
 *  @p needle (typically "origin:line:"). */
void
expectRejects(const std::string &text, const std::string &needle)
{
    try {
        parseScenario(text, "bad.scn");
        FAIL() << "accepted malformed scenario; wanted error with '"
               << needle << "'";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << "error was: " << e.what();
    }
}

TEST(ScenarioParser, RejectsWithLineNumbers)
{
    const std::string ok = "nodes 2\nduration_ms 5\n"
                           "node * program p.s\n";
    // Line 4 in each: the directives above are lines 1-3.
    expectRejects(ok + "bogus 1\n", "bad.scn:4");
    expectRejects(ok + "nodes 3\n", "bad.scn:4"); // duplicate scalar
    expectRejects(ok + "node x program p.s\n", "bad.scn:4");
    expectRejects(ok + "node 0 param 9NAME 1\n", "bad.scn:4");
    expectRejects(ok + "node 0 param P 99999\n", "bad.scn:4");
    expectRejects(ok + "node 0 sensor maybe\n", "bad.scn:4");
    expectRejects(ok + "node 0 fidelity turbo\n", "bad.scn:4");
    expectRejects(ok + "fault melt 0 at_ms 1\n", "bad.scn:4");
    expectRejects(ok + "fault kill 0 at 1\n", "bad.scn:4");
    expectRejects(ok + "duration_ms -5\n", "bad.scn:4");
    // Node counts are bounded (2^20): a huge count fails at parse time
    // with its location instead of building a network that never ends.
    expectRejects("duration_ms 5\nnode * program p.s\nnodes 4000000000\n",
                  "bad.scn:3");
    expectRejects("nodes 1048577\nduration_ms 5\nnode * program p.s\n",
                  "exceeds the limit of 1048576");
    EXPECT_EQ(parseScenario("nodes 1048576\nduration_ms 5\n"
                            "node * program p.s\n",
                            "max.scn")
                  .nodes,
              std::size_t{1} << 20);
}

TEST(ScenarioParser, RejectsInvalidWholes)
{
    expectRejects("duration_ms 5\nnode * program p.s\n",
                  "missing 'nodes'");
    expectRejects("nodes 2\nnode * program p.s\n",
                  "missing 'duration_ms'");
    expectRejects("nodes 2\nduration_ms 5\n", "resolves no program");
    expectRejects("nodes 2\nduration_ms 5\ntopology mesh\n"
                  "node * program p.s\n",
                  "unknown topology");
    expectRejects("nodes 2\nduration_ms 5\nnode * program p.s\n"
                  "node 7 volts 1.8\n",
                  "override for node 7");
    expectRejects("nodes 2\nduration_ms 5\nnode * program p.s\n"
                  "fault kill 5 at_ms 1\n",
                  "fault references node 5");
    expectRejects("nodes 2\nduration_ms 5\nnode * program p.s\n"
                  "fault link_down 1 1 at_ms 1\n",
                  "distinct endpoints");
}

const char *kField = R"(
scenario spatial
nodes 2
topology full
duration_ms 5

field cell_m 25
field tx_dbm -3
field exponent 3.1
field sensitivity_dbm -92.5

node * program p.s
node 0 position 0 0
node 1 position -12.5 40
)";

TEST(ScenarioParser, FieldBlockRoundTripsThroughCanonicalForm)
{
    const Scenario sc1 = parseScenario(kField, "f.scn");
    const std::string s1 = serializeScenario(sc1);
    const Scenario sc2 = parseScenario(s1, "f.scn#2");
    EXPECT_EQ(s1, serializeScenario(sc2));

    ASSERT_TRUE(sc2.field.has_value());
    EXPECT_DOUBLE_EQ(sc2.field->cellM, 25.0);
    EXPECT_DOUBLE_EQ(sc2.field->txDbm, -3.0);
    EXPECT_DOUBLE_EQ(sc2.field->exponent, 3.1);
    EXPECT_DOUBLE_EQ(sc2.field->sensitivityDbm, -92.5);
    // Unset keys keep their defaults through the round trip.
    EXPECT_DOUBLE_EQ(sc2.field->pl0Db, radio::FieldConfig{}.pl0Db);

    // Signed positions survive, and overrides overlay them.
    ASSERT_TRUE(sc2.resolved(1).position.has_value());
    EXPECT_DOUBLE_EQ(sc2.resolved(1).position->first, -12.5);
    EXPECT_DOUBLE_EQ(sc2.resolved(1).position->second, 40.0);
}

TEST(ScenarioParser, RejectsInvalidFieldScenarios)
{
    const std::string ok = "nodes 2\nduration_ms 5\ntopology full\n"
                           "node * program p.s\n";
    // Positions only make sense under a path-loss model.
    expectRejects(ok + "node 0 position 1 2\nnode 1 position 3 4\n",
                  "positions need a 'field' block");
    // Field mode needs every node placed...
    expectRejects(ok + "field cell_m 30\nnode 0 position 1 2\n",
                  "node 1 has no position");
    // ...full connectivity (the field decides who hears whom)...
    expectRejects("nodes 2\nduration_ms 5\ntopology line\n"
                  "node * program p.s\nfield cell_m 30\n"
                  "node * position 0 0\n",
                  "requires topology full");
    // ...and well-formed keys.
    expectRejects(ok + "field gain 3\nnode * position 0 0\n",
                  "unknown field key");
    expectRejects(ok + "field cell_m 30\nfield cell_m 40\n"
                       "node * position 0 0\n",
                  "duplicate 'field cell_m'");
    expectRejects(ok + "field cell_m -1\nnode * position 0 0\n",
                  "cell_m");
    expectRejects(ok + "field sensitivity_dbm -120\n"
                       "field noise_dbm -90\nnode * position 0 0\n",
                  "below the noise floor");
    expectRejects(ok + "node 0 position 5\n", "position <x_m> <y_m>");
}

TEST(ScenarioParser, CommentsAndBlanksAreIgnored)
{
    const Scenario sc = parseScenario(
        "# header\n\n  nodes 1  # trailing\n\nduration_ms 1\n"
        "node * program p.s\n",
        "c.scn");
    EXPECT_EQ(sc.nodes, 1u);
}

} // namespace
