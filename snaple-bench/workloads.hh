/**
 * @file
 * The benchmark's seeded workloads (README.md, "Workloads").
 *
 * Each workload is a scenario shape plus the host-side settings it
 * runs with. generateScenario() turns a workload seed into canonical
 * `.scn` text (serializeScenario(parseScenario(text)) == text), so
 * the same seed always yields byte-identical input. The node programs
 * are the shipped ones under examples/scenarios/.
 */

#ifndef SNAPLE_BENCH_WORKLOADS_HH
#define SNAPLE_BENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "scenario/runner.hh"
#include "scenario/scenario.hh"

namespace snaple::bench {

/** One workload: its name, lane count and output streams. */
struct Workload
{
    std::string name;
    unsigned lanes = 1; ///< worker lanes of the traced run
    /** Stream metrics and flow spans into counting sinks. */
    bool streams = false;
};

/** Every workload, in the order BENCHMARK.json lists them. */
const std::vector<Workload> &workloads();

/** The workload named @p name, or null. */
const Workload *findWorkload(const std::string &name);

/** Canonical `.scn` text for @p w drawn from @p seed. */
std::string generateScenario(const Workload &w, std::uint64_t seed);

/**
 * The program sources the workloads reference, read from @p dir
 * (examples/scenarios/), keyed by file name. Fatal when one is
 * missing.
 */
std::map<std::string, std::string>
loadPrograms(const std::string &dir);

/** Runs a variant of the scenario (checkExercised's prefix runs). */
using Rerun =
    std::function<scenario::RunResult(const scenario::Scenario &)>;

/**
 * Check that a reference run exercised the layers its workload is
 * meant to load (README.md, "Correctness"). @p flowSpans and
 * @p captures are what the run's streams recorded; @p rerun runs the
 * shorter prefixes some checks compare against. Returns an empty
 * string when it did, else what is missing.
 */
std::string checkExercised(const Workload &w,
                           const scenario::Scenario &sc,
                           const scenario::RunResult &res,
                           std::uint64_t flowSpans,
                           std::uint64_t captures, const Rerun &rerun);

} // namespace snaple::bench

#endif // SNAPLE_BENCH_WORKLOADS_HH
