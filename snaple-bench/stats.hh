/**
 * @file
 * Host clocks and the small statistics the benchmark reports.
 */

#ifndef SNAPLE_BENCH_STATS_HH
#define SNAPLE_BENCH_STATS_HH

#include <vector>

namespace snaple::bench {

/** Monotonic host time, seconds. */
double wallNow();

/** User plus system CPU time of this process (all threads), seconds. */
double cpuNow();

/** Peak resident set size of this process so far (VmHWM), MiB. */
double peakRssMb();

/** Median of @p v (the mean of the middle two for even sizes); 0 when
 *  empty. */
double median(std::vector<double> v);

} // namespace snaple::bench

#endif // SNAPLE_BENCH_STATS_HH
