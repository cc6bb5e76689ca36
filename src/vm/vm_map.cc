#include "vm/vm_map.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"
#include "pmap/pmap.hh"
#include "vm/vm_object.hh"

namespace mach
{

VmMap::VmMap(VmSys &sys, Pmap *pmap, VmOffset min_addr, VmOffset max_addr)
    : sys(sys), pmap(pmap), minAddr(min_addr), maxAddr(max_addr),
      entries(ZoneAllocator<VmMapEntry>(&sys.mapEntryZone))
{
    MACH_ASSERT(min_addr < max_addr);
    hint = entries.end();
}

VmMap::~VmMap()
{
    for (VmMapEntry &e : entries)
        releaseBacking(e);
}

void
VmMap::deallocateRef()
{
    MACH_ASSERT(refCount > 0);
    if (--refCount == 0)
        delete this;
}

void
VmMap::chargeEntryOp()
{
    sys.chargeSoftware(sys.machine.spec.costs.mapEntryOp);
}

void
VmMap::releaseBacking(VmMapEntry &entry)
{
    if (entry.submap) {
        entry.submap->deallocateRef();
        entry.submap = nullptr;
    } else if (entry.object) {
        entry.object->deallocate();
        entry.object = nullptr;
    }
}

bool
VmMap::lookupEntry(VmOffset addr, Iter &out)
{
    ++sys.stats.lookups;
    chargeEntryOp();

    const SimTime visit_cost = sys.machine.spec.costs.mapEntryOp / 8;

    // Last-fault hint (paper section 3.2): most faults land in or
    // near the entry of the previous fault.
    if (useHint && hint != entries.end()) {
        if (hint->start <= addr && addr < hint->end) {
            ++sys.stats.hits;
            out = hint;
            return true;
        }
        Iter next = std::next(hint);
        if (next != entries.end() && next->start <= addr &&
            addr < next->end) {
            ++sys.stats.hits;
            hint = next;
            out = next;
            return true;
        }

        // Hint miss: the list is sorted, so walk out from the hint
        // in the direction of addr rather than rescanning from
        // begin().  Addresses above the hint always walk forward;
        // addresses below walk backward only when the target is
        // nearer the hint than the map's front (address distance as
        // the estimator) — otherwise the ordered front scan below
        // is the shorter walk.
        if (addr >= hint->end) {
            for (Iter it = std::next(hint); it != entries.end();
                 ++it) {
                sys.chargeSoftware(visit_cost);
                if (addr < it->start)
                    return false;  // fell into a hole
                if (addr < it->end) {
                    hint = it;
                    out = it;
                    return true;
                }
            }
            return false;
        }
        if (addr > entries.front().start &&
            hint->start - addr < addr - entries.front().start) {
            for (Iter it = std::prev(hint);; --it) {
                sys.chargeSoftware(visit_cost);
                if (addr >= it->end)
                    return false;  // fell into a hole
                if (addr >= it->start) {
                    hint = it;
                    out = it;
                    return true;
                }
                if (it == entries.begin())
                    return false;
            }
        }
    }

    // Ordered fallback (and the whole search when the hint is off or
    // invalid): scan forward from the front.
    for (Iter it = entries.begin(); it != entries.end(); ++it) {
        sys.chargeSoftware(visit_cost);
        if (addr < it->start)
            return false;  // sorted: we've gone past it
        if (addr < it->end) {
            hint = it;
            out = it;
            return true;
        }
    }
    return false;
}

VmMap::Iter
VmMap::eraseEntry(Iter it)
{
    // Keeping the hint on the exact-match test alone is only safe
    // because every erase funnels through here; hint repair policy
    // (drop to end()) must not change, as a smarter hint would shift
    // the gated hit-rate counters.
    if (hint == it)
        hint = entries.end();
    chargeEntryOp();
    return entries.erase(it);
}

bool
VmMap::rangeFree(VmOffset start, VmSize size)
{
    VmOffset end = start + size;
    for (const VmMapEntry &e : entries) {
        if (e.start >= end)
            break;
        if (e.end > start)
            return false;
    }
    return true;
}

KernReturn
VmMap::findSpace(VmSize size, VmOffset *addr)
{
    VmOffset candidate = minAddr;
    for (const VmMapEntry &e : entries) {
        if (e.start >= candidate && e.start - candidate >= size) {
            *addr = candidate;
            return KernReturn::Success;
        }
        candidate = std::max(candidate, e.end);
    }
    if (maxAddr > candidate && maxAddr - candidate >= size) {
        *addr = candidate;
        return KernReturn::Success;
    }
    return KernReturn::NoSpace;
}

KernReturn
VmMap::allocate(VmOffset *addr, VmSize size, bool anywhere)
{
    return allocateObject(addr, size, anywhere, nullptr, 0, false,
                          VmProt::Default, VmProt::All, VmInherit::Copy);
}

KernReturn
VmMap::allocateObject(VmOffset *addr, VmSize size, bool anywhere,
                      VmObject *object, VmOffset offset, bool needs_copy,
                      VmProt prot, VmProt max_prot, VmInherit inherit)
{
    if (size == 0)
        return KernReturn::InvalidArgument;
    size = sys.pageRound(size);

    VmOffset start;
    if (anywhere) {
        KernReturn kr = findSpace(size, &start);
        if (kr != KernReturn::Success)
            return kr;
    } else {
        start = *addr;
        // Regions must be aligned on page boundaries (section 2.1).
        if (start % sys.pageSize() != 0)
            return KernReturn::InvalidArgument;
        if (start < minAddr || start + size > maxAddr)
            return KernReturn::InvalidAddress;
        if (!rangeFree(start, size))
            return KernReturn::NoSpace;
    }

    VmMapEntry entry;
    entry.start = start;
    entry.end = start + size;
    entry.object = object;
    entry.offset = offset;
    entry.needsCopy = needs_copy;
    entry.protection = prot;
    entry.maxProtection = max_prot;
    entry.inheritance = inherit;

    // Insert in sorted position.
    Iter pos = entries.begin();
    while (pos != entries.end() && pos->start < start)
        ++pos;
    entries.insert(pos, entry);
    chargeEntryOp();

    *addr = start;
    simplify();
    return KernReturn::Success;
}

void
VmMap::clipStart(Iter it, VmOffset addr)
{
    if (addr <= it->start || addr >= it->end)
        return;
    VmMapEntry head = *it;
    head.end = addr;
    it->offset += addr - it->start;
    it->start = addr;
    if (head.object)
        head.object->reference();
    if (head.submap)
        head.submap->reference();
    entries.insert(it, head);
    chargeEntryOp();
}

void
VmMap::clipEnd(Iter it, VmOffset addr)
{
    if (addr <= it->start || addr >= it->end)
        return;
    VmMapEntry tail = *it;
    tail.start = addr;
    tail.offset += addr - it->start;
    it->end = addr;
    if (tail.object)
        tail.object->reference();
    if (tail.submap)
        tail.submap->reference();
    entries.insert(std::next(it), tail);
    chargeEntryOp();
}

KernReturn
VmMap::deallocate(VmOffset start, VmSize size)
{
    if (size == 0)
        return KernReturn::Success;
    VmOffset end = start + sys.pageRound(size);
    start = sys.pageTrunc(start);
    if (start < minAddr || end > maxAddr)
        return KernReturn::InvalidAddress;

    Iter it = entries.begin();
    while (it != entries.end() && it->end <= start)
        ++it;
    // One coalesced shootdown round covers every entry removed; the
    // batch closes (flushing) before control returns to anything
    // that could reallocate the freed frames.
    PmapBatch batch(sys.pmaps);
    while (it != entries.end() && it->start < end) {
        clipStart(it, start);
        clipEnd(it, end);
        if (it->start < start) {
            ++it;
            continue;
        }
        // Unwire any wired pages in the doomed range.
        if (it->wiredCount > 0 && it->object) {
            for (VmOffset va = it->start; va < it->end;
                 va += sys.pageSize()) {
                VmOffset off = it->offset + (va - it->start);
                if (VmPage *p = it->object->pageAt(off)) {
                    if (p->wireCount > 0)
                        sys.resident.unwire(p);
                }
            }
        }
        if (pmap)
            pmap->remove(it->start, it->end);
        releaseBacking(*it);
        it = eraseEntry(it);
    }
    return KernReturn::Success;
}

KernReturn
VmMap::protect(VmOffset start, VmSize size, bool set_max, VmProt new_prot)
{
    VmOffset end = start + sys.pageRound(size);
    start = sys.pageTrunc(start);

    Iter it;
    if (!lookupEntry(start, it))
        return KernReturn::InvalidAddress;

    // Validate first: the whole range must be allocated (checked in
    // full before permissions, so a hole anywhere wins) and must
    // allow the requested protection.
    {
        Iter probe = it;
        VmOffset covered = start;
        while (covered < end) {
            if (probe == entries.end() || probe->start > covered)
                return KernReturn::InvalidAddress;
            covered = probe->end;
            ++probe;
        }
    }
    if (!set_max) {
        Iter probe = it;
        VmOffset covered = start;
        while (covered < end) {
            if (!probe->isSubMap() &&
                !protIncludes(probe->maxProtection, new_prot))
                return KernReturn::ProtectionFailure;
            covered = probe->end;
            ++probe;
        }
    }

    while (it != entries.end() && it->start < end) {
        clipStart(it, start);
        if (it->start < start) {
            ++it;
            continue;
        }
        clipEnd(it, end);
        chargeEntryOp();

        if (it->isSubMap()) {
            // Operations on shared regions apply to the sharing map
            // (section 3.4), affecting every task sharing the data.
            VmOffset sub_start = it->offset;
            it->submap->protect(sub_start, it->size(), set_max,
                                new_prot);
            ++it;
            continue;
        }

        if (set_max) {
            // The maximum protection can never be raised (2.1).
            it->maxProtection = it->maxProtection & new_prot;
            if (!protIncludes(it->maxProtection, it->protection))
                it->protection = it->protection & it->maxProtection;
        } else {
            it->protection = new_prot;
        }

        // Reflect the change in hardware.  A sharing map has no pmap
        // of its own: invalidate the physical pages so every sharer
        // refaults with the new protection.
        if (pmap) {
            VmProt hw = it->protection;
            if (it->needsCopy)
                hw = hw & ~VmProt::Write;
            pmap->protect(it->start, it->end, hw);
        } else if (it->object) {
            PmapBatch batch(sys.pmaps);
            for (VmOffset va = it->start; va < it->end;
                 va += sys.pageSize()) {
                VmOffset off = it->offset + (va - it->start);
                if (VmPage *p = it->object->pageAt(off)) {
                    sys.pmaps.removeAll(p->physAddr,
                                        ShootdownMode::Immediate);
                }
            }
        }
        ++it;
    }
    simplify();
    return KernReturn::Success;
}

KernReturn
VmMap::inherit(VmOffset start, VmSize size, VmInherit inh)
{
    VmOffset end = start + sys.pageRound(size);
    start = sys.pageTrunc(start);

    Iter it;
    if (!lookupEntry(start, it))
        return KernReturn::InvalidAddress;

    // The whole range must be allocated.
    {
        Iter probe = it;
        VmOffset covered = start;
        while (covered < end) {
            if (probe == entries.end() || probe->start > covered)
                return KernReturn::InvalidAddress;
            covered = probe->end;
            ++probe;
        }
    }

    while (it != entries.end() && it->start < end) {
        clipStart(it, start);
        if (it->start < start) {
            ++it;
            continue;
        }
        clipEnd(it, end);
        it->inheritance = inh;
        chargeEntryOp();
        ++it;
    }
    simplify();
    return KernReturn::Success;
}

void
VmMap::protectForCopy(VmMapEntry &entry)
{
    if (!entry.object)
        return;
    // Write-protect every resident page the entry can reach, in
    // every pmap that maps it (pmap_copy_on_write, Table 3-3).
    VmOffset lo = entry.offset;
    VmOffset hi = entry.offset + entry.size();
    std::vector<VmPage *> snapshot;
    snapshot.reserve(entry.object->residentCount);
    for (VmPage *p : entry.object->pages) {
        if (p->offset >= lo && p->offset < hi)
            snapshot.push_back(p);
    }
    // One coalesced round write-protects the whole entry — the fork
    // / vm_copy hot path of Table 7-1.
    PmapBatch batch(sys.pmaps);
    for (VmPage *p : snapshot)
        sys.pmaps.copyOnWrite(p->physAddr);
}

void
VmMap::makeShareMap(Iter it)
{
    if (it->isSubMap())
        return;
    auto *share = new VmMap(sys, nullptr, it->start, it->end);
    VmMapEntry inner = *it;  // takes over the object reference
    inner.inheritance = VmInherit::Share;
    share->entries.push_back(inner);
    share->hint = share->entries.end();
    it->object = nullptr;
    it->submap = share;
    it->offset = it->start;  // identity address translation
    it->needsCopy = false;
    chargeEntryOp();
}

VmMap *
VmMap::fork(Pmap *child_pmap)
{
    auto *child = new VmMap(sys, child_pmap, minAddr, maxAddr);

    for (Iter it = entries.begin(); it != entries.end(); ++it) {
        switch (it->inheritance) {
          case VmInherit::None:
            // The child's corresponding range is left unallocated.
            break;

          case VmInherit::Share: {
            // Read/write sharing requires a map-like structure that
            // can be referenced by other maps: the sharing map
            // (section 3.4).
            if (!it->isSubMap() && it->object == nullptr) {
                // Untouched zero-fill region: materialize an object
                // now so parent and child see the same pages later.
                it->object = VmObject::allocate(sys, it->size());
                it->offset = 0;
            }
            makeShareMap(it);
            VmMapEntry e = *it;
            e.submap->reference();
            e.wiredCount = 0;
            child->entries.push_back(e);
            chargeEntryOp();
            break;
          }

          case VmInherit::Copy: {
            if (it->isSubMap()) {
                // Copy-inheritance of an already-shared region: the
                // child gets a virtual copy of what the sharing map
                // holds, as vm_copy out of a shared region does.
                std::list<VmMapEntry> inner;
                if (it->submap->copyIn(it->offset, it->size(), &inner) !=
                    KernReturn::Success)
                    panic("fork: sharing map does not cover its entry");
                for (VmMapEntry &e : inner) {
                    e.start += it->start;
                    e.end += it->start;
                    child->entries.push_back(e);
                }
                break;
            }
            VmMapEntry e = *it;
            e.wiredCount = 0;
            if (it->object) {
                e.object->reference();
                bool was_needs_copy = it->needsCopy;
                it->needsCopy = true;
                e.needsCopy = true;
                if (!was_needs_copy)
                    protectForCopy(*it);
                // Optional pmap_copy (Table 3-4): pre-seed the
                // child's hardware map with read-only mappings.
                if (sys.pmaps.usePmapCopy && pmap && child_pmap) {
                    child_pmap->copyFrom(*pmap, it->start,
                                         it->size(), it->start);
                }
            }
            // Entries with no object yet stay lazily zero-filled on
            // both sides: contents are (zero) copies by definition.
            child->entries.push_back(e);
            chargeEntryOp();
            break;
          }
        }
    }
    child->hint = child->entries.end();
    return child;
}

KernReturn
VmMap::lookup(VmOffset va, FaultType type, LookupResult &out)
{
    Iter it;
    if (!lookupEntry(va, it))
        return KernReturn::InvalidAddress;

    if (it->isSubMap()) {
        VmOffset sub_va = it->offset + (va - it->start);
        return it->submap->lookup(sub_va, type, out);
    }

    if (!protIncludes(it->protection, faultProt(type)))
        return KernReturn::ProtectionFailure;

    // pager_readonly (Table 3-2): a write to this object must force
    // allocation of a new memory object for the modified data.
    bool needs_copy = it->needsCopy ||
        (it->object && it->object->copyOnWriteOnly);

    if (type == FaultType::Write && needs_copy) {
        // First write into a virtually copied region: interpose a
        // shadow object to collect the modified pages (section 3.4).
        if (it->object) {
            VmObject *obj = it->object;
            VmOffset off = it->offset;
            VmObject::makeShadow(obj, off, it->size());
            it->object = obj;
            it->offset = off;
        }
        it->needsCopy = false;
    }

    if (!it->object) {
        // Lazy zero-fill backing.
        it->object = VmObject::allocate(sys, it->size());
        it->offset = 0;
        it->needsCopy = false;
    }

    out.object = it->object;
    out.offset = it->offset + (va - it->start);
    out.prot = it->protection;
    out.wired = it->wiredCount > 0;
    out.cowReadOnly = it->needsCopy ||
        (it->object && it->object->copyOnWriteOnly);
    return KernReturn::Success;
}

KernReturn
VmMap::virtualCopy(VmMap &dst_map, VmOffset src, VmSize size,
                   VmOffset dst)
{
    if (size == 0)
        return KernReturn::Success;
    size = sys.pageRound(size);
    if (src % sys.pageSize() || dst % sys.pageSize())
        return KernReturn::InvalidArgument;
    VmOffset src_end = src + size;

    // Overlapping source and destination in the same map would
    // destroy source data while rebuilding the destination.
    if (&dst_map == this && dst < src_end && dst + size > src)
        return KernReturn::InvalidArgument;

    // The whole source range must be allocated and readable.
    {
        Iter probe;
        if (!lookupEntry(src, probe))
            return KernReturn::InvalidAddress;
        VmOffset covered = src;
        while (covered < src_end) {
            if (probe == entries.end() || probe->start > covered)
                return KernReturn::InvalidAddress;
            if (!probe->isSubMap() &&
                !protIncludes(probe->protection, VmProt::Read))
                return KernReturn::ProtectionFailure;
            covered = probe->end;
            ++probe;
        }
    }

    // Destination range is replaced.
    KernReturn kr = dst_map.deallocate(dst, size);
    if (kr != KernReturn::Success)
        return kr;

    Iter it;
    if (!lookupEntry(src, it))
        return KernReturn::InvalidAddress;
    while (it != entries.end() && it->start < src_end) {
        clipStart(it, src);
        if (it->start < src) {
            ++it;
            continue;
        }
        clipEnd(it, src_end);

        VmOffset dst_start = dst + (it->start - src);
        if (it->isSubMap()) {
            // Virtually copy out of a shared region: copy each
            // underlying entry copy-on-write.
            VmOffset sub_start = it->offset;
            kr = it->submap->virtualCopy(dst_map, sub_start, it->size(),
                                         dst_start);
            if (kr != KernReturn::Success)
                return kr;
            ++it;
            continue;
        }

        VmMapEntry e = *it;
        e.start = dst_start;
        e.end = dst_start + it->size();
        e.wiredCount = 0;
        e.inheritance = VmInherit::Copy;
        if (it->object) {
            e.object->reference();
            bool was_needs_copy = it->needsCopy;
            it->needsCopy = true;
            e.needsCopy = true;
            if (!was_needs_copy)
                protectForCopy(*it);
        }

        // Insert into destination (the range is known free now).
        Iter pos = dst_map.entries.begin();
        while (pos != dst_map.entries.end() && pos->start < e.start)
            ++pos;
        dst_map.entries.insert(pos, e);
        dst_map.chargeEntryOp();
        ++it;
    }
    return KernReturn::Success;
}

KernReturn
VmMap::copyIn(VmOffset src, VmSize size, std::list<VmMapEntry> *out)
{
    if (size == 0)
        return KernReturn::InvalidArgument;
    if (src % sys.pageSize())
        return KernReturn::InvalidArgument;
    size = sys.pageRound(size);
    VmOffset src_end = src + size;

    // Validate coverage.
    {
        Iter probe;
        if (!lookupEntry(src, probe))
            return KernReturn::InvalidAddress;
        VmOffset covered = src;
        while (covered < src_end) {
            if (probe == entries.end() || probe->start > covered)
                return KernReturn::InvalidAddress;
            covered = probe->end;
            ++probe;
        }
    }

    Iter it;
    lookupEntry(src, it);
    while (it != entries.end() && it->start < src_end) {
        clipStart(it, src);
        if (it->start < src) {
            ++it;
            continue;
        }
        clipEnd(it, src_end);

        if (it->isSubMap()) {
            // Copy out of the sharing map recursively.
            std::list<VmMapEntry> inner;
            KernReturn kr = it->submap->copyIn(it->offset, it->size(),
                                               &inner);
            if (kr != KernReturn::Success) {
                discardCopy(std::move(*out));
                return kr;
            }
            VmOffset base = it->start - src;
            for (VmMapEntry &e : inner) {
                e.start += base;
                e.end += base;
                out->push_back(e);
            }
            ++it;
            continue;
        }

        VmMapEntry e = *it;
        e.start = it->start - src;
        e.end = e.start + it->size();
        e.wiredCount = 0;
        e.inheritance = VmInherit::Copy;
        if (it->object) {
            e.object->reference();
            bool was_needs_copy = it->needsCopy;
            it->needsCopy = true;
            e.needsCopy = true;
            if (!was_needs_copy)
                protectForCopy(*it);
        }
        out->push_back(e);
        chargeEntryOp();
        ++it;
    }
    return KernReturn::Success;
}

KernReturn
VmMap::copyOut(std::list<VmMapEntry> &&snapshot, VmSize size,
               VmOffset *addr)
{
    size = sys.pageRound(size);
    VmOffset base;
    KernReturn kr = findSpace(size, &base);
    if (kr != KernReturn::Success) {
        discardCopy(std::move(snapshot));
        return kr;
    }

    Iter pos = entries.begin();
    while (pos != entries.end() && pos->start < base)
        ++pos;
    for (VmMapEntry &e : snapshot) {
        e.start += base;
        e.end += base;
        entries.insert(pos, e);
        chargeEntryOp();
    }
    snapshot.clear();
    *addr = base;
    return KernReturn::Success;
}

void
VmMap::discardCopy(std::list<VmMapEntry> &&snapshot)
{
    for (VmMapEntry &e : snapshot) {
        if (e.submap)
            e.submap->deallocateRef();
        else if (e.object)
            e.object->deallocate();
    }
    snapshot.clear();
}

KernReturn
VmMap::region(VmOffset *addr, VmRegionInfo *info)
{
    for (const VmMapEntry &e : entries) {
        if (e.end <= *addr)
            continue;
        info->start = e.start;
        info->size = e.size();
        info->inheritance = e.inheritance;
        info->shared = e.isSubMap();
        info->needsCopy = e.needsCopy;
        if (e.isSubMap() && !e.submap->entries.empty()) {
            const VmMapEntry &inner = e.submap->entries.front();
            info->protection = inner.protection;
            info->maxProtection = inner.maxProtection;
        } else {
            info->protection = e.protection;
            info->maxProtection = e.maxProtection;
        }
        *addr = e.end;
        return KernReturn::Success;
    }
    return KernReturn::InvalidAddress;
}

void
VmMap::simplify()
{
    if (entries.size() < 2)
        return;
    Iter it = entries.begin();
    Iter next = std::next(it);
    while (next != entries.end()) {
        bool mergeable = !it->isSubMap() && !next->isSubMap() &&
            it->end == next->start && it->object == next->object &&
            (!it->object ||
             it->offset + it->size() == next->offset) &&
            it->protection == next->protection &&
            it->maxProtection == next->maxProtection &&
            it->inheritance == next->inheritance &&
            it->needsCopy == next->needsCopy &&
            it->wiredCount == next->wiredCount;
        if (mergeable) {
            it->end = next->end;
            if (next->object)
                next->object->deallocate();  // merged entry: one ref
            next = eraseEntry(next);
        } else {
            it = next;
            ++next;
        }
    }
}

KernReturn
VmMap::setPageable(VmOffset start, VmSize size, bool pageable)
{
    VmOffset end = start + sys.pageRound(size);
    start = sys.pageTrunc(start);

    Iter it;
    if (!lookupEntry(start, it))
        return KernReturn::InvalidAddress;

    while (it != entries.end() && it->start < end) {
        clipStart(it, start);
        if (it->start < start) {
            ++it;
            continue;
        }
        clipEnd(it, end);
        if (pageable) {
            if (it->wiredCount > 0) {
                --it->wiredCount;
                if (it->wiredCount == 0 && it->object) {
                    for (VmOffset va = it->start; va < it->end;
                         va += sys.pageSize()) {
                        VmOffset off = it->offset + (va - it->start);
                        if (VmPage *p = it->object->pageAt(off)) {
                            if (p->wireCount > 0)
                                sys.resident.unwire(p);
                        }
                    }
                }
            }
        } else {
            ++it->wiredCount;
        }
        if (pmap)
            pmap->pageable(it->start, it->end, pageable);
        ++it;
    }
    return KernReturn::Success;
}

VmSize
VmMap::virtualSize() const
{
    VmSize total = 0;
    for (const VmMapEntry &e : entries)
        total += e.size();
    return total;
}

} // namespace mach
