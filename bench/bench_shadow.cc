/**
 * @file
 * Ablation A (paper section 3.5): shadow-object chain management.
 *
 * "Most of the complexity of Mach memory management arises from a
 * need to prevent the potentially large chains of shadow objects" —
 * e.g. a UNIX process which repeatedly forks builds a long chain
 * pointing at the object backing its address space.  This benchmark
 * runs that fork chain with the collapse/bypass garbage collection
 * enabled and disabled, reporting chain length and fault cost.
 */

#include <string>

#include "base/logging.hh"
#include "bench_report.hh"
#include "bench_util.hh"
#include "kern/kernel.hh"
#include "vm/vm_object.hh"

namespace mach
{
namespace
{

MachineSpec
test_spec()
{
    MachineSpec spec = MachineSpec::microVax2();
    spec.physMemBytes = 8ull << 20;
    return spec;
}

struct Result
{
    unsigned chainLength;
    SimTime faultTime;      //!< read-fault cost at full depth
    std::uint64_t objects;  //!< live objects at the end
};

Result
forkChain(unsigned generations, bool collapse, bench::Report &report)
{
    Kernel kernel(test_spec());
    report.attachTrace(kernel.machine);
    kernel.vm->collapseEnabled = collapse;
    VmSize page = kernel.pageSize();

    Task *task = kernel.taskCreate();
    VmOffset addr = 0;
    (void)task->map().allocate(&addr, 4 * page, true);
    (void)kernel.taskTouch(*task, addr, 4 * page, AccessType::Write);

    // Repeatedly fork; the child dirties one page (creating a
    // shadow) and becomes the new parent; the old parent exits.
    for (unsigned gen = 0; gen < generations; ++gen) {
        Task *child = kernel.taskFork(*task);
        (void)kernel.taskTouch(*child, addr, 1, AccessType::Write);
        kernel.taskTerminate(task);
        task = child;
    }

    // Chain length under the surviving task's entry.
    VmMap::LookupResult lr;
    KernReturn kr = task->map().lookup(addr, FaultType::Read, lr);
    MACH_ASSERT(kr == KernReturn::Success);
    Result r{};
    r.chainLength = lr.object->chainLength();
    r.objects = kernel.vm->liveObjects;

    // Cost of a fault that must walk the whole chain: fault on the
    // never-written last page after dropping its mappings.
    VmOffset probe = addr + 3 * page;
    task->getPmap()->remove(probe, probe + page);
    SimTime t0 = kernel.now();
    (void)kernel.taskTouch(*task, probe, 1, AccessType::Read);
    r.faultTime = kernel.now() - t0;
    return r;
}

} // namespace
} // namespace mach

int
main(int argc, char **argv)
{
    using namespace mach;
    setQuiet(true);
    bench::Report report("bench_shadow", argc, argv);

    std::printf("Ablation A: shadow chain garbage collection "
                "(section 3.5)\n");
    std::printf("%-12s %-10s %12s %14s %10s\n", "collapse", "forks",
                "chain len", "fault cost", "objects");
    for (unsigned gens : {4u, 16u, 64u, 256u}) {
        for (bool collapse : {true, false}) {
            Result r = forkChain(gens, collapse, report);
            std::printf("%-12s %-10u %12u %14s %10llu\n",
                        collapse ? "on" : "off", gens, r.chainLength,
                        bench::ms(r.faultTime).c_str(),
                        (unsigned long long)r.objects);
            std::string tag = std::to_string(gens) +
                              (collapse ? "_collapse" : "_none");
            report.add("uvax2", "chain_len_" + tag,
                       double(r.chainLength), "count");
            report.add("uvax2", "fault_cost_" + tag,
                       double(r.faultTime), "ns");
            report.add("uvax2", "live_objects_" + tag,
                       double(r.objects), "count");
        }
    }
    std::printf("\nWithout collapse the chain (and the cost of an "
                "unshadowed fault)\ngrows linearly with fork depth; "
                "with it both stay bounded.\n");
    return report.finish();
}
