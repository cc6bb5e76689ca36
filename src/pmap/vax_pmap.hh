/**
 * @file
 * VAX-style pmap: lazily constructed linear page tables.
 *
 * The paper (section 5.1): a full 2GB VAX address space would need
 * 8MB of linear page table, so Mach keeps page tables in physical
 * memory but "only constructs those parts of the table which were
 * needed to actually map virtual to real addresses for pages
 * currently in use", creating and destroying VAX page tables as
 * necessary to conserve space or improve runtime.
 *
 * The mechanism (a sparse set of page-table pages, built on demand
 * and garbage-collectable) is shared with the NS32082 module, which
 * differs only in geometry and its address-space limits; the common
 * machinery lives in LinearPmap / LinearPmapSystem here.
 */

#ifndef MACH_PMAP_VAX_PMAP_HH
#define MACH_PMAP_VAX_PMAP_HH

#include <bit>
#include <map>
#include <memory>

#include "pmap/pmap.hh"
#include "pmap/pv_table.hh"

namespace mach
{

class LinearPmapSystem;

/** A pmap backed by lazily-built linear page-table pages. */
class LinearPmap : public Pmap
{
  public:
    LinearPmap(LinearPmapSystem &lsys, bool kernel);

    std::optional<PhysAddr> extract(VmOffset va) override;
    void garbageCollect() override;

    std::optional<HwTranslation> hwLookup(VmOffset va,
                                          AccessType access) override;

    /**
     * Optional pmap_copy (Table 3-4): seed this map with read-only
     * copies of @p src's mappings in the range — the child of a fork
     * then takes no read faults for the parent's resident pages.
     */
    void copyFrom(Pmap &src, VmOffset dst_addr, VmSize len,
                  VmOffset src_addr) override;

    /** Number of page-table pages currently built (statistics). */
    std::size_t tablePages() const { return tables.size(); }

  protected:
    void enterImpl(VmOffset va, PhysAddr pa, VmProt prot,
                   bool wired) override;
    void removeImpl(VmOffset start, VmOffset end) override;
    void protectImpl(VmOffset start, VmOffset end,
                     VmProt prot) override;

  private:
    friend class LinearPmapSystem;

    /** One hardware page-table entry. */
    struct Pte
    {
        bool valid = false;
        bool wired = false;
        PhysAddr pageBase = 0;
        VmProt prot = VmProt::None;
    };

    /** One lazily-built page of page table. */
    struct PtPage
    {
        std::vector<Pte> ptes;
        unsigned validCount = 0;
        unsigned wiredCount = 0;
    };

    /**
     * A PTE together with its containing table page, so callers that
     * need both (enterImpl must bump the page's counts) perform one
     * map lookup, not two.
     */
    struct PteRef
    {
        Pte *pte = nullptr;
        PtPage *page = nullptr;
        explicit operator bool() const { return pte != nullptr; }
    };

    /** Find the PTE for @p va; null ref if its table is absent. */
    PteRef lookupPte(VmOffset va);

    /** Find-or-create the PTE for @p va (builds the table page). */
    PteRef forcePte(VmOffset va);

    /** Remove one hw mapping (PTE + pv entry); table GC separate. */
    void invalidatePte(VmOffset va, PtPage &pt, Pte &pte);

    /** Forget the cached table page (call after any tables.erase). */
    void
    invalidateTableCache()
    {
        cachedIndex = ~VmOffset(0);
        cachedPage = nullptr;
    }

    LinearPmapSystem &lsys;
    /** table-page index -> table page, sorted for ranged walks. */
    std::map<VmOffset, std::unique_ptr<PtPage>> tables;
    /**
     * Last table page touched: sequential fault/enter streams hit the
     * same 128-PTE page repeatedly, skipping the std::map descent.
     */
    VmOffset cachedIndex = ~VmOffset(0);
    PtPage *cachedPage = nullptr;
};

/** Shared system half for linear-page-table architectures. */
class LinearPmapSystem : public PmapSystem
{
  public:
    explicit LinearPmapSystem(Machine &machine);

    void removeAllImpl(PhysAddr pa, ShootdownMode mode) override;
    void copyOnWriteImpl(PhysAddr pa, ShootdownMode mode) override;

    /** PTEs that fit in one page-table page. */
    unsigned ptesPerTablePage() const { return ptesPerPage; }

    /** log2 of ptesPerTablePage (always a power of two). */
    unsigned
    pteIndexShift() const
    {
        MACH_ASSERT(std::has_single_bit(ptesPerPage));
        return unsigned(std::countr_zero(ptesPerPage));
    }

    PvTable &pv() { return pvTable; }

  protected:
    std::unique_ptr<Pmap> allocatePmap(bool kernel) override;

    /** PTE slots per table page; 512-byte page / 4-byte PTE = 128. */
    unsigned ptesPerPage = 128;

    PvTable pvTable;
};

/**
 * The VAX pmap proper: the linear-table machinery unchanged, made a
 * leaf so the MMU's per-type dispatch table (kHwOpsFor) resolves the
 * miss-path calls statically.
 */
class VaxPmap final : public LinearPmap
{
  public:
    VaxPmap(LinearPmapSystem &lsys, bool kernel) : LinearPmap(lsys, kernel)
    {
        setHwOps(&kHwOpsFor<VaxPmap>);
    }
};

/** The VAX instantiation of the linear-table pmap module. */
class VaxPmapSystem : public LinearPmapSystem
{
  public:
    explicit VaxPmapSystem(Machine &machine)
        : LinearPmapSystem(machine)
    {
    }
};

} // namespace mach

#endif // MACH_PMAP_VAX_PMAP_HH
