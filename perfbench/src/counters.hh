/**
 * @file
 * Simulated-side measurements of one pass, read through the
 * simulator's public accessors: VmSys statistics and metrics registry,
 * PmapSystem and Machine counters, pager and disk counters, and the
 * SimClock split by CostKind.  All of them are exact and repeat
 * bit-for-bit for a fixed seed.
 */

#ifndef PERFBENCH_COUNTERS_HH
#define PERFBENCH_COUNTERS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_clock.hh"

namespace mach
{
class Kernel;
}

namespace perfbench
{

/** Event counts read at a layer boundary (index into SimCounters). */
enum Count : unsigned
{
    // vm
    VmFaults = 0,
    VmZeroFills,
    VmCowFaults,
    VmPageins,
    VmPageouts,
    VmReactivations,
    VmCollapses,
    VmObjectsCached,
    VmPageoutPasses,
    VmLookups,
    VmLookupHits,
    VmPagesScanned,
    VmPagesReclaimed,
    // pmap
    PmapShootdownIpis,
    PmapBatchFlushes,
    PmapCoalesced,
    PmapDeferredFlushes,
    PmapTablePagesBuilt,
    // hw
    HwTlbHits,
    HwTlbMisses,
    HwFaults,
    HwIpis,
    // pager and fs
    PagerDefaultPageins,
    PagerDefaultPageouts,
    PagerVnodePageins,
    PagerVnodePageouts,
    PagerIoRetries,
    PagerSwapBytes,
    FsDiskOps,
    FsDiskBytes,
    NumCounts,
};

/** A snapshot (or, after delta(), a difference) of simulated state. */
struct SimCounters
{
    std::array<std::uint64_t, NumCounts> count{};
    std::array<mach::SimTime, mach::SimClock::numKinds> kindNs{};
    mach::SimTime simNs = 0;
    /** Bytes of zone slots live at the zones' high-water marks. */
    std::uint64_t zoneHighWaterBytes = 0;

    bool operator==(const SimCounters &) const = default;

    /** Sum of kindNs; equals simNs exactly when accounting is whole. */
    mach::SimTime kindSum() const;
};

/**
 * Read every counter of @p kernel.  Vnode pager counters are summed
 * over @p files, the files the workload has already opened (asking for
 * another file's pager would create one).
 */
SimCounters readCounters(mach::Kernel &kernel,
                         const std::vector<std::string> &files);

/** @p after - @p before; the zone high water is taken from @p after. */
SimCounters delta(const SimCounters &after, const SimCounters &before);

} // namespace perfbench

#endif // PERFBENCH_COUNTERS_HH
