/**
 * @file
 * Ablation F (Table 3-4): the optional pmap_copy routine.
 *
 * "These routines need not perform any hardware function" — but a
 * port *may* implement pmap_copy to pre-seed a forked child's
 * hardware map with read-only copies of the parent's mappings,
 * trading map-edit work at fork time against read faults afterwards.
 * This benchmark measures that trade on the VAX for children that
 * read much, little, or none of the inherited space.
 */

#include <cstdio>
#include <vector>

#include "base/logging.hh"
#include "bench_report.hh"
#include "bench_util.hh"
#include "kern/kernel.hh"
#include "vm/vm_object.hh"

namespace mach
{
namespace
{

struct Result
{
    SimTime forkTime;
    SimTime childReadTime;
    std::uint64_t childFaults;
};

/** Fork a 256K task, then have the child read @p read_fraction. */
Result
run(bool use_pmap_copy, unsigned read_percent, bench::Report &report)
{
    MachineSpec spec = MachineSpec::microVax2();
    spec.physMemBytes = 8ull << 20;
    Kernel kernel(spec);
    report.attachTrace(kernel.machine);
    kernel.pmaps->usePmapCopy = use_pmap_copy;
    VmSize size = 256 << 10;

    Task *parent = kernel.taskCreate();
    VmOffset addr = 0;
    (void)parent->map().allocate(&addr, size, true);
    std::vector<std::uint8_t> data(size, 0x3c);
    (void)kernel.taskWrite(*parent, addr, data.data(), size);

    Result r{};
    SimTime t0 = kernel.now();
    Task *child = kernel.taskFork(*parent);
    r.forkTime = kernel.now() - t0;

    VmSize to_read = size * read_percent / 100;
    std::uint64_t faults0 = kernel.vm->stats.faults;
    t0 = kernel.now();
    if (to_read) {
        std::vector<std::uint8_t> buf(to_read);
        (void)kernel.taskRead(*child, addr, buf.data(), to_read);
    }
    r.childReadTime = kernel.now() - t0;
    r.childFaults = kernel.vm->stats.faults - faults0;
    return r;
}

} // namespace
} // namespace mach

int
main(int argc, char **argv)
{
    using namespace mach;
    setQuiet(true);
    bench::Report report("bench_pmapcopy", argc, argv);

    std::printf("Ablation F: optional pmap_copy at fork "
                "(Table 3-4), MicroVAX II\n");
    std::printf("fork of a 256K task; child then reads a fraction "
                "of it:\n");
    std::printf("%-10s %-12s %12s %14s %12s %14s\n", "pmap_copy",
                "child reads", "fork", "child read", "faults",
                "total");
    for (unsigned pct : {0u, 25u, 100u}) {
        for (bool on : {false, true}) {
            Result r = run(on, pct, report);
            char reads[16];
            std::snprintf(reads, sizeof(reads), "%u%%", pct);
            std::printf("%-10s %-12s %12s %14s %12llu %14s\n",
                        on ? "on" : "off", reads,
                        bench::ms(r.forkTime).c_str(),
                        bench::ms(r.childReadTime).c_str(),
                        (unsigned long long)r.childFaults,
                        bench::ms(r.forkTime + r.childReadTime)
                            .c_str());
            std::string tag = std::string(on ? "on" : "off") + "_" +
                              std::to_string(pct) + "pct";
            report.add("uvax2", "fork_time_" + tag,
                       double(r.forkTime), "ns");
            report.add("uvax2", "child_read_time_" + tag,
                       double(r.childReadTime), "ns");
            report.add("uvax2", "child_faults_" + tag,
                       double(r.childFaults), "count");
        }
    }
    std::printf("\npmap_copy makes fork dearer but removes every "
                "child read fault;\nit wins when the child actually "
                "touches what it inherited and\nloses (pure "
                "overhead) when it execs immediately — why the paper"
                "\nleaves it optional.\n");
    return report.finish();
}
