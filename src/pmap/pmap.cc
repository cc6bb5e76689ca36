#include "pmap/pmap.hh"

#include <algorithm>

#include "sim/trace.hh"

#include "pmap/pv_table.hh"

#include "pmap/ns32082_pmap.hh"
#include "pmap/rt_pmap.hh"
#include "pmap/sun3_pmap.hh"
#include "pmap/tlbsoft_pmap.hh"
#include "pmap/vax_pmap.hh"

namespace mach
{

Pmap::Pmap(PmapSystem &sys, bool kernel) : sys(sys), isKernel(kernel)
{
}

void
Pmap::activate(CpuId cpu)
{
    MACH_ASSERT(cpu < kMaxCpus);
    cpus.set(cpu);
    onActivate(cpu);
}

void
Pmap::deactivate(CpuId cpu)
{
    MACH_ASSERT(cpu < kMaxCpus);
    cpus.reset(cpu);
    onDeactivate(cpu);
}

void
Pmap::hwMarkReferenced(VmOffset va)
{
    if (auto pa = extract(va))
        sys.setReferencedAttr(*pa);
}

void
Pmap::hwMarkModified(VmOffset va)
{
    if (auto pa = extract(va)) {
        sys.setModifiedAttr(*pa);
        sys.setReferencedAttr(*pa);
    }
}

void
Pmap::update()
{
    sys.getMachine().timerTick();
}

void
Pmap::enter(VmOffset va, PhysAddr pa, VmProt prot, bool wired)
{
    SimClock &clock = sys.getMachine().clock();
    traceEmit(clock, TraceEventType::PmapEnter, wired ? 1 : 0, va, pa);
    SimTime t0 = clock.now();
    enterImpl(va, pa, prot, wired);
    sys.pmapOpLatency.record(clock.now() - t0);
}

void
Pmap::remove(VmOffset start, VmOffset end)
{
    SimClock &clock = sys.getMachine().clock();
    traceEmit(clock, TraceEventType::PmapRemove, 0, start, end);
    SimTime t0 = clock.now();
    removeImpl(start, end);
    sys.pmapOpLatency.record(clock.now() - t0);
}

void
Pmap::protect(VmOffset start, VmOffset end, VmProt prot)
{
    SimClock &clock = sys.getMachine().clock();
    traceEmit(clock, TraceEventType::PmapProtect,
              static_cast<std::uint8_t>(prot), start, end);
    SimTime t0 = clock.now();
    protectImpl(start, end, prot);
    sys.pmapOpLatency.record(clock.now() - t0);
}

void
Pmap::shootdown(VmOffset start, VmOffset end, ShootdownMode mode)
{
    sys.shootdownRange(*this, start, end, mode);
}

PmapSystem::PmapSystem(Machine &machine) : machine(machine)
{
}

std::unique_ptr<PmapSystem>
PmapSystem::build(Machine &machine)
{
    switch (machine.spec.arch) {
      case ArchType::Vax:
        return std::make_unique<VaxPmapSystem>(machine);
      case ArchType::RtPc:
        return std::make_unique<RtPmapSystem>(machine);
      case ArchType::Sun3:
        return std::make_unique<Sun3PmapSystem>(machine);
      case ArchType::Ns32082:
        return std::make_unique<Ns32082PmapSystem>(machine);
      case ArchType::TlbOnly:
        return std::make_unique<TlbSoftPmapSystem>(machine);
    }
    panic("unknown architecture");
}

void
PmapSystem::init(VmSize mach_page_size)
{
    VmSize hw = hwPageSize();
    if (mach_page_size < hw || !isPowerOf2(mach_page_size) ||
        mach_page_size % hw != 0) {
        fatal("Mach page size %llu is not a power-of-two multiple of "
              "the hardware page size %llu",
              (unsigned long long)mach_page_size, (unsigned long long)hw);
    }
    machPage = mach_page_size;
    framesPerPage = FrameNum(machPage >> machine.spec.hwPageShift);
    attrs.assign(machine.spec.physMemBytes / hw, PhysAttr{});

    auto kp = allocatePmap(true);
    kernel = kp.get();
    allPmaps.push_back(std::move(kp));
    // The kernel map is in use on every CPU at all times.
    for (unsigned i = 0; i < machine.numCpus(); ++i)
        kernel->activate(i);
}

Pmap *
PmapSystem::create()
{
    MACH_ASSERT(machPage != 0);
    machine.clock().charge(CostKind::PmapOp, machine.spec.costs.pmapCreate);
    auto p = allocatePmap(false);
    Pmap *raw = p.get();
    allPmaps.push_back(std::move(p));
    return raw;
}

void
PmapSystem::destroy(Pmap *pmap)
{
    MACH_ASSERT(pmap && !pmap->kernel());
    if (!pmap->release())
        return;
    MACH_ASSERT(pmap->cpusUsing().none());
    // Remove every mapping so shared structures (inverted tables,
    // PMEG pools) are released.
    {
        PmapBatch batch(*this);
        pmap->remove(0, machine.spec.effectiveVaLimit());
    }
    // If an enclosing batch is still open its pending ranges may
    // reference the dying pmap; flush those before it goes away.
    drainBatched(*pmap);
    onPmapDestroy(pmap);
    auto it = std::find_if(allPmaps.begin(), allPmaps.end(),
                           [&](const auto &p) { return p.get() == pmap; });
    MACH_ASSERT(it != allPmaps.end());
    allPmaps.erase(it);
}

bool
PmapSystem::isModified(PhysAddr pa)
{
    FrameNum first = frameOf(pa);
    FrameNum count = framesPerPage;
    for (FrameNum f = first; f < first + count; ++f) {
        if (attrs[f].modified)
            return true;
    }
    return false;
}

bool
PmapSystem::isReferenced(PhysAddr pa)
{
    FrameNum first = frameOf(pa);
    FrameNum count = framesPerPage;
    for (FrameNum f = first; f < first + count; ++f) {
        if (attrs[f].referenced)
            return true;
    }
    return false;
}

bool
PmapSystem::pvQuiet(PhysAddr pa) const
{
    FrameNum first = pa >> machine.spec.hwPageShift;
    for (FrameNum f = first; f < first + framesPerPage; ++f) {
        if (!pvView->empty(f))
            return false;
    }
    return true;
}

void
PmapSystem::removeAll(PhysAddr pa, ShootdownMode mode)
{
    // An empty PV chain makes the Impl a pure no-op (no charges, no
    // flushes), so the call is skipped before it is traced or timed.
    if (pvView && pvQuiet(pa))
        return;
    SimClock &clock = machine.clock();
    traceEmit(clock, TraceEventType::PmapRemoveAll,
              static_cast<std::uint8_t>(mode), pa, 0);
    SimTime t0 = clock.now();
    removeAllImpl(pa, mode);
    pmapOpLatency.record(clock.now() - t0);
}

void
PmapSystem::copyOnWrite(PhysAddr pa, ShootdownMode mode)
{
    if (pvView && pvQuiet(pa))
        return;
    SimClock &clock = machine.clock();
    traceEmit(clock, TraceEventType::PmapCow,
              static_cast<std::uint8_t>(mode), pa, 0);
    SimTime t0 = clock.now();
    copyOnWriteImpl(pa, mode);
    pmapOpLatency.record(clock.now() - t0);
}

void
PmapSystem::clearModify(PhysAddr pa, ShootdownMode mode)
{
    FrameNum first = frameOf(pa);
    FrameNum count = framesPerPage;
    for (FrameNum f = first; f < first + count; ++f)
        attrs[f].modified = false;
    // Resynchronize: drop the page's mappings so the next write
    // faults (or misses the TLB) and is observed again.
    removeAll(pa, mode);
}

void
PmapSystem::clearReference(PhysAddr pa, ShootdownMode mode)
{
    FrameNum first = frameOf(pa);
    FrameNum count = framesPerPage;
    for (FrameNum f = first; f < first + count; ++f)
        attrs[f].referenced = false;
    removeAll(pa, mode);
}

void
PmapSystem::setModifiedAttr(PhysAddr pa)
{
    FrameNum f = frameOf(pa);
    if (f < attrs.size())
        attrs[f].modified = true;
}

void
PmapSystem::setReferencedAttr(PhysAddr pa)
{
    FrameNum f = frameOf(pa);
    if (f < attrs.size())
        attrs[f].referenced = true;
}

namespace
{

/** Ranges at most this many hardware pages flush entry-by-entry. */
constexpr VmSize kByPageFlushPages = 8;

/** One TLB tag plus the merged ranges to flush under it. */
struct TagFlush
{
    const void *tag;
    std::vector<PmapFlushRange> ranges;
};

/**
 * Sort and merge adjacent/overlapping ranges in place; returns the
 * number of ranges eliminated by merging.
 */
std::size_t
mergeRanges(std::vector<PmapFlushRange> &ranges)
{
    std::sort(ranges.begin(), ranges.end(),
              [](const PmapFlushRange &a, const PmapFlushRange &b) {
                  return a.start < b.start;
              });
    std::size_t out = 0;
    for (std::size_t i = 1; i < ranges.size(); ++i) {
        if (ranges[i].start <= ranges[out].end) {
            ranges[out].end = std::max(ranges[out].end, ranges[i].end);
        } else {
            ranges[++out] = ranges[i];
        }
    }
    std::size_t eliminated = ranges.empty() ? 0 : ranges.size() - (out + 1);
    if (!ranges.empty())
        ranges.resize(out + 1);
    return eliminated;
}

/**
 * Per-CPU flush command for one contiguous range of one tag.  A
 * concrete functor (not a lambda behind std::function) so
 * dispatchFlush instantiates it directly and the Deferred path can
 * move it into the machine's inline queue without allocating.
 */
struct RangeFlushCmd
{
    const void *tag;
    VmOffset start;
    VmOffset end;
    VmSize hw;
    unsigned shift;
    bool byPage;

    void
    operator()(Cpu &c) const
    {
        if (byPage) {
            for (VmOffset va = truncTo(start, hw); va < end; va += hw)
                c.tlb.flushPage(tag, va >> shift);
        } else {
            c.tlb.flushTag(tag);
        }
    }
};

/**
 * Per-CPU flush command for a coalesced command list.  Small ranges
 * flush entry-by-entry; any large range flushes the whole tag, after
 * which that tag's remaining ranges are moot.
 */
struct BatchFlushCmd
{
    std::vector<TagFlush> cmds;
    VmSize hw;
    unsigned shift;

    void
    operator()(Cpu &c) const
    {
        for (const auto &cmd : cmds) {
            for (const auto &r : cmd.ranges) {
                if ((r.end - r.start) >> shift <= kByPageFlushPages) {
                    for (VmOffset va = truncTo(r.start, hw); va < r.end;
                         va += hw)
                        c.tlb.flushPage(cmd.tag, va >> shift);
                } else {
                    c.tlb.flushTag(cmd.tag);
                    break;
                }
            }
        }
    }
};

} // namespace

void
PmapSystem::shootdownRange(Pmap &pmap, VmOffset start, VmOffset end,
                           ShootdownMode mode)
{
    // Every consistency request is traced here, whether it is
    // dispatched now, absorbed into a batch, deferred or skipped.
    traceEmit(machine.clock(), TraceEventType::Shootdown,
              static_cast<std::uint8_t>(mode), start, end);
    if (batching() && coalesceShootdowns) {
        // Record the range; the batch close issues one merged round
        // honoring the strictest mode seen.
        ++shootdownsCoalesced;
        batchMode = stricterMode(mode, batchMode);
        batchPending[&pmap].push_back({start, end});
        return;
    }
    shootdownNow(pmap, start, end, mode);
}

void
PmapSystem::shootdownNow(Pmap &pmap, VmOffset start, VmOffset end,
                         ShootdownMode mode)
{
    if (mode == ShootdownMode::Lazy) {
        // Section 5.2 case 3: the semantics of the operation permit
        // temporary inconsistency; remote TLBs converge later.
        ++lazySkips;
        return;
    }

    // Flushing page-by-page only pays for small ranges.
    VmSize hw = hwPageSize();
    bool byPage =
        (end - start) >> machine.spec.hwPageShift <= kByPageFlushPages;

    dispatchFlush(flushTargets(pmap),
                  RangeFlushCmd{pmap.tlbTag(), start, end, hw,
                                machine.spec.hwPageShift, byPage},
                  mode, false);
}

std::bitset<kMaxCpus>
PmapSystem::flushTargets(const Pmap &pmap) const
{
    std::bitset<kMaxCpus> targets = pmap.cpusUsing();
    if (pmap.kernel() || machine.spec.tlbTaggedByContext) {
        // Kernel mappings are live on every CPU; and on hardware
        // whose translation cache is tagged by context (SUN 3), a
        // deactivated map's entries survive context switches, so
        // every CPU may hold them.
        for (unsigned i = 0; i < machine.numCpus(); ++i)
            targets.set(i);
    }
    return targets;
}

template <typename FlushFn>
void
PmapSystem::dispatchFlush(const std::bitset<kMaxCpus> &targets,
                          FlushFn flushCpu, ShootdownMode mode,
                          bool batched)
{
    MACH_ASSERT(mode != ShootdownMode::Lazy);

    if (mode == ShootdownMode::Deferred) {
        // Section 5.2 case 2: queue the flush; the caller must not
        // reuse the page until the next timer tick has been taken.
        ++deferredFlushes;
        Machine &m = machine;
        m.deferUntilTick(
            [&m, targets, flushCpu = std::move(flushCpu)]() {
                for (unsigned i = 0; i < m.numCpus(); ++i) {
                    if (targets.test(i))
                        flushCpu(m.cpu(i));
                }
            });
        return;
    }

    // Immediate (case 1): local flush plus an IPI per remote CPU.
    // Every IPI of the round carries the same round id so the trace
    // analyzer can recover the fan-out of each dispatch.
    SimTime t0 = machine.clock().now();
    const std::uint64_t round = ++shootdownRoundSeq;
    for (unsigned i = 0; i < machine.numCpus(); ++i) {
        if (!targets.test(i))
            continue;
        if (i == machine.currentCpu()) {
            flushCpu(machine.cpu(i));
        } else {
            ++shootdownIpis;
            if (batched)
                ++batchedIpis;
            traceEmit(machine.clock(), TraceEventType::Ipi, 0, i,
                      round);
            machine.ipi(i, flushCpu);
        }
    }
    shootdownLatency.record(machine.clock().now() - t0);
}

void
PmapSystem::openBatch()
{
    if (batchDepth++ == 0) {
        batchMode = ShootdownMode::Lazy;
        batchPending.clear();
    }
}

void
PmapSystem::closeBatch()
{
    MACH_ASSERT(batchDepth > 0);
    if (--batchDepth == 0)
        flushBatch();
}

void
PmapSystem::flushBatch()
{
    auto pending = std::move(batchPending);
    batchPending.clear();
    ShootdownMode mode = batchMode;
    batchMode = ShootdownMode::Lazy;

    if (pending.empty())
        return;
    if (mode == ShootdownMode::Lazy) {
        // Every shootdown in the batch permitted inconsistency.
        ++lazySkips;
        return;
    }

    std::bitset<kMaxCpus> targets;
    std::vector<TagFlush> cmds;
    cmds.reserve(pending.size());
    std::size_t rangesOut = 0;
    for (auto &[pmap, ranges] : pending) {
        batchRangesMerged += mergeRanges(ranges);
        rangesOut += ranges.size();
        targets |= flushTargets(*pmap);
        cmds.push_back({pmap->tlbTag(), std::move(ranges)});
    }

    ++batchFlushes;
    chargePmap(SimTime(rangesOut) * machine.spec.costs.shootdownPerRange);
    dispatchFlush(targets,
                  BatchFlushCmd{std::move(cmds), hwPageSize(),
                                machine.spec.hwPageShift},
                  mode, true);
}

void
PmapSystem::drainBatched(Pmap &pmap)
{
    auto it = batchPending.find(&pmap);
    if (it == batchPending.end())
        return;
    auto ranges = std::move(it->second);
    batchPending.erase(it);

    if (batchMode == ShootdownMode::Lazy) {
        ++lazySkips;
        return;
    }

    batchRangesMerged += mergeRanges(ranges);
    chargePmap(SimTime(ranges.size()) *
               machine.spec.costs.shootdownPerRange);
    std::vector<TagFlush> cmds;
    cmds.push_back({pmap.tlbTag(), std::move(ranges)});
    ++batchFlushes;
    dispatchFlush(flushTargets(pmap),
                  BatchFlushCmd{std::move(cmds), hwPageSize(),
                                machine.spec.hwPageShift},
                  batchMode, true);
}

} // namespace mach
