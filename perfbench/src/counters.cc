#include "counters.hh"

#include "kern/kernel.hh"

namespace perfbench
{

using namespace mach;

namespace
{

std::uint64_t
zoneBytes(const Zone &z)
{
    return z.highWater * z.slotSize();
}

} // namespace

SimTime
SimCounters::kindSum() const
{
    SimTime sum = 0;
    for (SimTime ns : kindNs)
        sum += ns;
    return sum;
}

SimCounters
readCounters(Kernel &kernel, const std::vector<std::string> &files)
{
    SimCounters s;
    auto &c = s.count;

    VmSys &vm = *kernel.vm;
    VmStatistics st = vm.statistics();
    c[VmFaults] = st.faults;
    c[VmZeroFills] = st.zeroFillCount;
    c[VmCowFaults] = st.cowFaults;
    c[VmPageins] = st.pageins;
    c[VmPageouts] = st.pageouts;
    c[VmReactivations] = st.reactivations;
    c[VmCollapses] = st.objectCollapses;
    c[VmObjectsCached] = st.objectsCached;
    c[VmLookups] = st.lookups;
    c[VmLookupHits] = st.hits;
    c[PagerIoRetries] = st.pageinRetries + st.pageoutRetries;
    c[VmPageoutPasses] = vm.metrics.value(vm.daemonMetrics.passes);
    c[VmPagesScanned] = vm.metrics.value(vm.daemonMetrics.scanned);
    c[VmPagesReclaimed] = vm.metrics.value(vm.daemonMetrics.reclaimed);

    PmapSystem &pm = *kernel.pmaps;
    c[PmapShootdownIpis] = pm.shootdownIpis;
    c[PmapBatchFlushes] = pm.batchFlushes;
    c[PmapCoalesced] = pm.shootdownsCoalesced;
    c[PmapDeferredFlushes] = pm.deferredFlushes;
    c[PmapTablePagesBuilt] = pm.tablePagesBuilt;

    Machine &m = kernel.machine;
    c[HwTlbHits] = m.tlbHits();
    c[HwTlbMisses] = m.tlbMisses();
    c[HwFaults] = m.faultCount();
    c[HwIpis] = m.ipiCount();

    c[PagerDefaultPageins] = kernel.defaultPager.pageinsServed();
    c[PagerDefaultPageouts] = kernel.defaultPager.pageoutsServed();
    for (const std::string &f : files) {
        if (VnodePager *p = kernel.pagerForFile(f)) {
            c[PagerVnodePageins] += p->pageinsServed();
            c[PagerVnodePageouts] += p->pageoutsServed();
        }
    }
    c[PagerSwapBytes] = kernel.swapDisk.bytesTransferred();
    c[FsDiskOps] = kernel.disk.readOps() + kernel.disk.writeOps();
    c[FsDiskBytes] = kernel.disk.bytesTransferred();

    const SimClock &clock = m.clock();
    for (std::size_t k = 0; k < SimClock::numKinds; ++k)
        s.kindNs[k] = clock.kindTotal(static_cast<CostKind>(k));
    s.simNs = clock.now();

    s.zoneHighWaterBytes = zoneBytes(vm.resident.pageZone) +
                           zoneBytes(vm.mapEntryZone) +
                           zoneBytes(vm.radixZone);
    return s;
}

SimCounters
delta(const SimCounters &after, const SimCounters &before)
{
    SimCounters d;
    for (unsigned i = 0; i < NumCounts; ++i)
        d.count[i] = after.count[i] - before.count[i];
    for (std::size_t k = 0; k < d.kindNs.size(); ++k)
        d.kindNs[k] = after.kindNs[k] - before.kindNs[k];
    d.simNs = after.simNs - before.simNs;
    d.zoneHighWaterBytes = after.zoneHighWaterBytes;
    return d;
}

} // namespace perfbench
