/**
 * @file
 * Ablation C (paper section 5.1): the RT PC inverted page table's
 * one-mapping-per-frame restriction.
 *
 * "The result, in Mach, is that physical pages shared by multiple
 * tasks can cause extra page faults, with each page being mapped and
 * then remapped for the last task which referenced it."  This
 * benchmark shares one page read/write among N tasks and touches it
 * round-robin, comparing the RT PC against the VAX (whose per-task
 * page tables share without faulting), and measures how rare such
 * faults are in a "normal application" mix — the paper's surprising
 * result was that Mach on the RT outperformed an aliasing-free UNIX
 * anyway.
 */

#include <cstdio>
#include <vector>

#include "base/logging.hh"
#include "bench_report.hh"
#include "bench_util.hh"
#include "kern/kernel.hh"
#include "pmap/rt_pmap.hh"
#include "vm/vm_user.hh"

namespace mach
{
namespace
{

struct ShareResult
{
    std::uint64_t faults;
    std::uint64_t aliasEvictions;
    SimTime time;
};

ShareResult
roundRobinShare(const MachineSpec &spec, unsigned tasks,
                unsigned rounds, bench::Report &report)
{
    Kernel kernel(spec);
    report.attachTrace(kernel.machine);
    VmSize page = kernel.pageSize();

    Task *first = kernel.taskCreate();
    VmOffset addr = 0;
    (void)first->map().allocate(&addr, page, true);
    (void)vmInherit(*kernel.vm, first->map(), addr, page,
                    VmInherit::Share);
    (void)kernel.taskTouch(*first, addr, 1, AccessType::Write);

    std::vector<Task *> all{first};
    for (unsigned i = 1; i < tasks; ++i)
        all.push_back(kernel.taskFork(*first));

    // Prime every task's mapping once.
    for (Task *t : all)
        (void)kernel.taskTouch(*t, addr, 1, AccessType::Read);

    std::uint64_t faults0 = kernel.vm->stats.faults;
    std::uint64_t evict0 = 0;
    if (spec.arch == ArchType::RtPc) {
        evict0 = static_cast<RtPmapSystem *>(kernel.pmaps.get())
                     ->aliasEvictions;
    }
    SimTime t0 = kernel.now();
    for (unsigned r = 0; r < rounds; ++r) {
        for (Task *t : all)
            (void)kernel.taskTouch(*t, addr, 1, AccessType::Read);
    }

    ShareResult res{};
    res.faults = kernel.vm->stats.faults - faults0;
    res.time = kernel.now() - t0;
    if (spec.arch == ArchType::RtPc) {
        res.aliasEvictions =
            static_cast<RtPmapSystem *>(kernel.pmaps.get())
                ->aliasEvictions - evict0;
    }
    return res;
}

/** A "normal application" mix: mostly private pages, one shared. */
SimTime
normalMix(const MachineSpec &spec, bench::Report &report)
{
    Kernel kernel(spec);
    report.attachTrace(kernel.machine);
    VmSize page = kernel.pageSize();
    Task *a = kernel.taskCreate();

    VmOffset shared = 0;
    (void)a->map().allocate(&shared, page, true);
    (void)vmInherit(*kernel.vm, a->map(), shared, page,
                    VmInherit::Share);
    (void)kernel.taskTouch(*a, shared, 1, AccessType::Write);
    Task *b = kernel.taskFork(*a);

    VmOffset priv_a = 0, priv_b = 0;
    VmSize priv_size = 128 << 10;
    (void)a->map().allocate(&priv_a, priv_size, true);
    (void)b->map().allocate(&priv_b, priv_size, true);

    SimTime t0 = kernel.now();
    // 64 private touches per shared touch — the paper's observation
    // is that sharing faults are rare in practice.
    for (unsigned r = 0; r < 16; ++r) {
        (void)kernel.taskTouch(*a, priv_a, priv_size,
                               AccessType::Write);
        (void)kernel.taskTouch(*a, shared, 1, AccessType::Read);
        (void)kernel.taskTouch(*b, priv_b, priv_size,
                               AccessType::Write);
        (void)kernel.taskTouch(*b, shared, 1, AccessType::Read);
    }
    return kernel.now() - t0;
}

} // namespace
} // namespace mach

int
main(int argc, char **argv)
{
    using namespace mach;
    setQuiet(true);
    bench::Report report("bench_ipt", argc, argv);

    std::printf("Ablation C: inverted-page-table aliasing "
                "(section 5.1)\n\n");
    std::printf("Round-robin read of one shared page, 16 rounds:\n");
    std::printf("%-10s %-10s %10s %12s %12s\n", "machine", "tasks",
                "faults", "evictions", "time");
    for (unsigned tasks : {2u, 4u, 8u}) {
        for (auto arch : {MachineSpec::rtPc(),
                          MachineSpec::microVax2()}) {
            MachineSpec spec = arch;
            spec.physMemBytes = 8ull << 20;
            ShareResult r = roundRobinShare(spec, tasks, 16, report);
            std::printf("%-10s %-10u %10llu %12llu %12s\n",
                        archTypeName(spec.arch), tasks,
                        (unsigned long long)r.faults,
                        (unsigned long long)r.aliasEvictions,
                        bench::ms(r.time).c_str());
            std::string tag = std::to_string(tasks) + "tasks";
            report.add(archTypeName(spec.arch),
                       "share_faults_" + tag, double(r.faults),
                       "count");
            report.add(archTypeName(spec.arch),
                       "share_evictions_" + tag,
                       double(r.aliasEvictions), "count");
            report.add(archTypeName(spec.arch), "share_time_" + tag,
                       double(r.time), "ns");
        }
    }

    std::printf("\n'Normal application' mix (64 private touches per "
                "shared touch):\n");
    for (auto arch : {MachineSpec::rtPc(), MachineSpec::microVax2()}) {
        MachineSpec spec = arch;
        spec.physMemBytes = 8ull << 20;
        SimTime mix = normalMix(spec, report);
        std::printf("  %-10s %12s\n", archTypeName(spec.arch),
                    bench::ms(mix).c_str());
        report.add(archTypeName(spec.arch), "normal_mix", double(mix),
                   "ns");
    }
    std::printf("\nSharing ping-pongs the single RT mapping (one "
                "fault per switch)\nwhile the VAX shares freely; in "
                "a realistic mix the extra faults\nare noise, as the "
                "paper observed.\n");
    return report.finish();
}
