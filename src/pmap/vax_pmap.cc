#include "pmap/vax_pmap.hh"

#include <algorithm>

namespace mach
{

LinearPmap::LinearPmap(LinearPmapSystem &lsys, bool kernel)
    : Pmap(lsys, kernel), lsys(lsys)
{
}

LinearPmap::PteRef
LinearPmap::lookupPte(VmOffset va)
{
    VmOffset vpn = va >> lsys.getMachine().spec.hwPageShift;
    VmOffset index = vpn >> lsys.pteIndexShift();
    if (index != cachedIndex) {
        auto it = tables.find(index);
        if (it == tables.end())
            return {};
        cachedIndex = index;
        cachedPage = it->second.get();
    }
    return {&cachedPage->ptes[vpn & (lsys.ptesPerTablePage() - 1)],
            cachedPage};
}

LinearPmap::PteRef
LinearPmap::forcePte(VmOffset va)
{
    VmOffset vpn = va >> lsys.getMachine().spec.hwPageShift;
    VmOffset index = vpn >> lsys.pteIndexShift();
    if (index != cachedIndex) {
        auto it = tables.find(index);
        if (it == tables.end()) {
            auto pt = std::make_unique<PtPage>();
            pt->ptes.resize(lsys.ptesPerTablePage());
            it = tables.emplace(index, std::move(pt)).first;
            lsys.chargePmap(lsys.getMachine().spec.costs.ptePageAlloc);
            ++lsys.tablePagesBuilt;
        }
        cachedIndex = index;
        cachedPage = it->second.get();
    }
    return {&cachedPage->ptes[vpn & (lsys.ptesPerTablePage() - 1)],
            cachedPage};
}

void
LinearPmap::invalidatePte(VmOffset va, PtPage &pt, Pte &pte)
{
    MACH_ASSERT(pte.valid);
    lsys.pv().remove(pte.pageBase >> lsys.getMachine().spec.hwPageShift,
                     this, va);
    pte.valid = false;
    if (pte.wired) {
        pte.wired = false;
        --pt.wiredCount;
    }
    --pt.validCount;
    --nMappings;
}

void
LinearPmap::enterImpl(VmOffset va, PhysAddr pa, VmProt prot, bool wired)
{
    const MachineSpec &spec = lsys.getMachine().spec;
    VmSize hw = spec.hwPageSize();
    VmSize machPage = lsys.machPageSize();
    MACH_ASSERT((va & (machPage - 1)) == 0 &&
                (pa & (machPage - 1)) == 0);

    // One machine-independent page expands to machPage/hw PTEs.
    unsigned entered = 0;
    for (VmSize off = 0; off < machPage; off += hw) {
        PteRef ref = forcePte(va + off);
        if (ref.pte->valid)
            invalidatePte(va + off, *ref.page, *ref.pte);
        ref.pte->valid = true;
        ref.pte->pageBase = pa + off;
        ref.pte->prot = prot;
        ref.pte->wired = wired;
        if (wired)
            ++ref.page->wiredCount;
        ++ref.page->validCount;
        ++nMappings;
        ++entered;
        lsys.pv().add((pa + off) >> spec.hwPageShift, this, va + off);
    }
    // One batched charge: per-PTE cost, identical total to charging
    // inside the loop (nothing in the loop observes the clock).
    lsys.chargePmap(SimTime(entered) * spec.costs.pmapEnter);
    // The entered translation may shadow a stale TLB entry.
    shootdown(va, va + machPage, ShootdownMode::Immediate);
}

void
LinearPmap::removeImpl(VmOffset start, VmOffset end)
{
    const MachineSpec &spec = lsys.getMachine().spec;
    VmSize hw = spec.hwPageSize();
    unsigned removed = 0;

    // Walk only the table pages that overlap [start, end).
    VmOffset first_index =
        (start >> spec.hwPageShift) / lsys.ptesPerTablePage();
    auto it = tables.lower_bound(first_index);
    while (it != tables.end()) {
        VmOffset base = it->first * lsys.ptesPerTablePage() * hw;
        if (base >= end)
            break;
        PtPage &pt = *it->second;
        // Clip [start, end) against this table's span once, instead
        // of range-testing every PTE.
        VmOffset top = base + VmOffset(lsys.ptesPerTablePage()) * hw;
        if (top > end)
            top = end;
        unsigned i = base < start
            ? unsigned((start - base) >> spec.hwPageShift) : 0;
        unsigned iEnd = unsigned((top - base) >> spec.hwPageShift);
        for (; i < iEnd; ++i) {
            Pte &pte = pt.ptes[i];
            if (pte.valid) {
                invalidatePte(base + VmOffset(i) * hw, pt, pte);
                ++removed;
            }
        }
        if (pt.validCount == 0) {
            it = tables.erase(it);
            ++lsys.tablePagesFreed;
            invalidateTableCache();
        } else {
            ++it;
        }
    }

    if (removed) {
        lsys.chargePmap(SimTime(removed) * spec.costs.pmapRemovePerPage);
        shootdown(start, end, lsys.policy.remove);
    }
}

void
LinearPmap::protectImpl(VmOffset start, VmOffset end, VmProt prot)
{
    if (protEmpty(prot)) {
        removeImpl(start, end);
        return;
    }
    const MachineSpec &spec = lsys.getMachine().spec;
    VmSize hw = spec.hwPageSize();
    unsigned changed = 0;
    for (VmOffset va = truncTo(start, hw); va < end; va += hw) {
        PteRef ref = lookupPte(va);
        if (ref && ref.pte->valid) {
            ref.pte->prot &= prot;  // restrict only
            ++changed;
        }
    }
    if (changed) {
        lsys.chargePmap(SimTime(changed) * spec.costs.pmapProtectPerPage);
        shootdown(start, end, lsys.policy.protect);
    }
}

std::optional<PhysAddr>
LinearPmap::extract(VmOffset va)
{
    const MachineSpec &spec = lsys.getMachine().spec;
    PteRef ref = lookupPte(va);
    if (!ref || !ref.pte->valid)
        return std::nullopt;
    return ref.pte->pageBase + (va & (spec.hwPageSize() - 1));
}

std::optional<HwTranslation>
LinearPmap::hwLookup(VmOffset va, AccessType access)
{
    (void)access;  // a linear table serves any requester
    PteRef ref = lookupPte(va);
    if (!ref || !ref.pte->valid)
        return std::nullopt;
    return HwTranslation{ref.pte->pageBase, ref.pte->prot,
                         ref.pte->wired};
}

void
LinearPmap::copyFrom(Pmap &src, VmOffset dst_addr, VmSize len,
                     VmOffset src_addr)
{
    auto *sp = dynamic_cast<LinearPmap *>(&src);
    if (!sp)
        return;
    const MachineSpec &spec = lsys.getMachine().spec;
    VmSize hw = spec.hwPageSize();
    unsigned copied = 0;
    for (VmSize off = 0; off < len; off += hw) {
        PteRef theirs = sp->lookupPte(src_addr + off);
        if (!theirs || !theirs.pte->valid || theirs.pte->wired)
            continue;
        PteRef mine = forcePte(dst_addr + off);
        if (mine.pte->valid)
            continue;  // never overwrite an existing mapping
        mine.pte->valid = true;
        mine.pte->pageBase = theirs.pte->pageBase;
        // Read-only: a write must still take the COW fault.
        mine.pte->prot = theirs.pte->prot & ~VmProt::Write;
        mine.pte->wired = false;
        ++mine.page->validCount;
        ++nMappings;
        ++copied;
        lsys.pv().add(theirs.pte->pageBase >> spec.hwPageShift, this,
                      dst_addr + off);
    }
    lsys.chargePmap(SimTime(copied) * (spec.costs.pmapEnter / 2));
}

void
LinearPmap::garbageCollect()
{
    // Kernel mappings must stay complete and accurate.
    if (kernel())
        return;
    const MachineSpec &spec = lsys.getMachine().spec;
    VmSize hw = spec.hwPageSize();
    VmOffset flush_lo = ~VmOffset(0);
    VmOffset flush_hi = 0;
    for (auto it = tables.begin(); it != tables.end();) {
        PtPage &pt = *it->second;
        if (pt.wiredCount > 0) {
            ++it;
            continue;
        }
        // Drop the whole table page: the machine-independent layer
        // can rebuild every mapping at fault time.
        VmOffset base = it->first * lsys.ptesPerTablePage() * hw;
        for (unsigned i = 0; i < lsys.ptesPerTablePage(); ++i) {
            Pte &pte = pt.ptes[i];
            if (pte.valid)
                invalidatePte(base + VmOffset(i) * hw, pt, pte);
        }
        flush_lo = std::min(flush_lo, base);
        flush_hi = std::max(flush_hi,
                            base + lsys.ptesPerTablePage() * hw);
        it = tables.erase(it);
        ++lsys.tablePagesFreed;
        invalidateTableCache();
    }
    if (flush_hi > flush_lo)
        shootdown(flush_lo, flush_hi, ShootdownMode::Immediate);
}

LinearPmapSystem::LinearPmapSystem(Machine &machine)
    : PmapSystem(machine)
{
    pvView = &pvTable;
}

std::unique_ptr<Pmap>
LinearPmapSystem::allocatePmap(bool kernel)
{
    return std::make_unique<VaxPmap>(*this, kernel);
}

void
LinearPmapSystem::removeAllImpl(PhysAddr pa, ShootdownMode mode)
{
    const MachineSpec &spec = machine.spec;
    VmSize hw = spec.hwPageSize();
    // Coalesce the per-sharer flushes into one round even when the
    // caller did not open a batch of its own.
    PmapBatch batch(*this);
    for (VmSize off = 0; off < machPageSize(); off += hw) {
        FrameNum frame = (pa + off) >> spec.hwPageShift;
        // Drain the chain head-first: invalidatePte removes the head
        // entry, so each round of the loop sees the next mapping —
        // the same order the snapshot walk processed, sans the copy.
        while (const PvEntry *e = pvTable.first(frame)) {
            auto *lp = static_cast<LinearPmap *>(e->pmap);
            VmOffset va = e->va;
            LinearPmap::PteRef ref = lp->lookupPte(va);
            MACH_ASSERT(ref && ref.pte->valid);
            lp->invalidatePte(va, *ref.page, *ref.pte);
            chargePmap(spec.costs.pmapRemovePerPage);
            shootdownRange(*lp, va, va + hw, mode);
        }
    }
}

void
LinearPmapSystem::copyOnWriteImpl(PhysAddr pa, ShootdownMode mode)
{
    const MachineSpec &spec = machine.spec;
    VmSize hw = spec.hwPageSize();
    PmapBatch batch(*this);
    for (VmSize off = 0; off < machPageSize(); off += hw) {
        FrameNum frame = (pa + off) >> spec.hwPageShift;
        pvTable.forEach(frame, [&](const PvEntry &e) {
            auto *lp = static_cast<LinearPmap *>(e.pmap);
            LinearPmap::PteRef ref = lp->lookupPte(e.va);
            MACH_ASSERT(ref && ref.pte->valid);
            ref.pte->prot &= ~VmProt::Write;
            chargePmap(spec.costs.pmapProtectPerPage);
            shootdownRange(*lp, e.va, e.va + hw, mode);
        });
    }
}

} // namespace mach
