/**
 * @file
 * The benchmark's workloads.  Each is a closed loop driven from one
 * host thread: the next step starts only when the previous one has
 * returned.  A pass boots a fresh simulated machine, sets it up, runs
 * a fixed number of steps generated from the seed (the timed phase),
 * then checks the simulator's outputs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>

#include "counters.hh"
#include "ctx.hh"

namespace perfbench
{

/** What one pass measured. */
struct PassResult
{
    double setupSec = 0; //!< host: boot, files, warm-up
    double timedSec = 0; //!< host: the timed steps
    unsigned steps = 0;
    /** Simulated state over the timed phase. */
    SimCounters sim;
};

using PassFn = PassResult (*)(Ctx &ctx, std::uint64_t seed,
                              unsigned steps);

struct Workload
{
    const char *name;
    PassFn run;
    unsigned stepsPerPass; //!< full-size pass
    /** The paper's elapsed time for a full pass, in s (0 = none). */
    double paperSec;
};

/** Task-churn storm on a memory-starved uVAX II. */
PassResult runChurn(Ctx &ctx, std::uint64_t seed, unsigned steps);
/** Table 7-2's generic-configuration kernel build on a VAX 8650. */
PassResult runCompile(Ctx &ctx, std::uint64_t seed, unsigned steps);
/** Four-CPU Encore MultiMax TLB and shootdown rounds. */
PassResult runSmp(Ctx &ctx, std::uint64_t seed, unsigned steps);

/** The workload called @p name, or nullptr. */
const Workload *findWorkload(const char *name);

/** Deterministic 64-bit LCG (host randomness is never used). */
struct Lcg
{
    std::uint64_t s;

    explicit Lcg(std::uint64_t seed)
        : s(seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull)
    {
    }

    std::uint32_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return std::uint32_t(s >> 33);
    }
    std::uint32_t nextBelow(std::uint32_t n) { return next() % n; }
};

/** Seconds between two hostNs() readings. */
inline double
seconds(std::uint64_t from, std::uint64_t to)
{
    return double(to - from) / 1e9;
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
