/**
 * @file
 * Machine-readable benchmark output.
 *
 * Every benchmark binary accepts `--json <path>`; when given, the
 * measured values are also written to @p path as a JSON array of
 *
 *     {"benchmark": ..., "arch": ..., "metric": ..., "value": ...,
 *      "unit": ...}
 *
 * records.  tools/check_bench.py compares such a file against the
 * checked-in baselines under bench/baselines/ and fails CI on drift.
 * Units drive the comparison tolerance: "count" metrics must match
 * exactly (the simulation is deterministic), "ns" (simulated time)
 * and "ratio" metrics allow a small relative slack.
 */

#ifndef MACH_BENCH_BENCH_REPORT_HH
#define MACH_BENCH_BENCH_REPORT_HH

#include <memory>
#include <string>
#include <vector>

#include "hw/machine.hh"
#include "sim/trace.hh"

namespace mach::bench
{

class Report
{
  public:
    /**
     * @param benchmark name recorded in every emitted record
     *                  (conventionally the binary name)
     *
     * Consumes `--json <path>` and `--trace-out <path>` (also the
     * `--trace-out=<path>` spelling) from the command line if
     * present; anything else is left for the caller.
     */
    Report(std::string benchmark, int argc, char **argv);

    /** True when `--json <path>` was given. */
    bool jsonRequested() const { return !path.empty(); }

    /** True when `--trace-out <path>` was given. */
    bool traceRequested() const { return !tracePath.empty(); }

    /**
     * Attach the (lazily created) trace sink to @p machine's clock,
     * resetting it first: the exported file covers the last attached
     * machine.  Every bench calls this on every machine it builds.
     * No-op unless `--trace-out` was given.  Tracing charges no
     * simulated time and runs no other code, so the gated metrics
     * are unaffected (CI reruns every bench traced to prove it).
     */
    void attachTrace(Machine &machine);

    /** Record one measured value. */
    void add(const std::string &arch, const std::string &metric,
             double value, const std::string &unit);

    /**
     * Write the JSON file, then the Chrome trace, if requested.
     * Returns the process exit code: non-zero when a file cannot be
     * written or `--trace-out` was given but nothing was attached.
     */
    int finish() const;

  private:
    struct Record
    {
        std::string arch;
        std::string metric;
        double value;
        std::string unit;
    };

    std::string benchmark;
    std::string path;
    std::string tracePath;
    std::unique_ptr<TraceSink> sink;
    unsigned traceCpus = 1;
    std::vector<Record> records;
};

} // namespace mach::bench

#endif // MACH_BENCH_BENCH_REPORT_HH
