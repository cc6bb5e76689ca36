/**
 * @file
 * One benchmark run: repeat passes of a workload until the requested
 * host time has elapsed, check every output, and print the metrics.
 */

#ifndef PERFBENCH_DRIVER_HH
#define PERFBENCH_DRIVER_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "workloads.hh"

namespace perfbench
{

struct RunOptions
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10;
    /**
     * false: end-to-end metrics from untraced passes.  true: passes
     * alternate untraced/traced and the per-layer metrics are printed.
     */
    bool trace = false;
    unsigned stepsPerPass = 0; //!< 0 = the workload's full size
    unsigned minPasses = 3;
    /** Where a traced run writes its first traced pass's spans. */
    std::string spanFile;
};

/** What a run found, for the self-tests. */
struct RunSummary
{
    bool correct = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    unsigned passes = 0;
    SimCounters sim; //!< the first pass's
};

/**
 * Run @p opt and print a human-readable table followed, as the last
 * line, by the JSON result object to @p out.
 */
RunSummary runBenchmark(const RunOptions &opt, std::FILE *out);

} // namespace perfbench

#endif // PERFBENCH_DRIVER_HH
