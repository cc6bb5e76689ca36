/**
 * @file
 * Ablation E (paper sections 2.1/3.1): the boot-time Mach page size.
 *
 * "The definition of page size is a boot time system parameter and
 * can be any power of two multiple of the hardware page size."  A
 * larger Mach page amortizes fault overhead over more bytes (fewer
 * faults) at the cost of more zero-fill and copy work per fault.
 * This benchmark sweeps VAX page sizes 512B..8K over a sequential
 * write workload and a sparse workload, showing the trade-off.
 */

#include <cstdio>

#include "base/logging.hh"
#include "bench_report.hh"
#include "bench_util.hh"
#include "kern/kernel.hh"

namespace mach
{
namespace
{

struct SweepResult
{
    SimTime denseTime;
    std::uint64_t denseFaults;
    SimTime sparseTime;
    std::uint64_t sparseFaults;
};

SweepResult
run(unsigned multiple, bench::Report &report)
{
    MachineSpec spec = MachineSpec::microVax2();
    spec.physMemBytes = 8ull << 20;
    KernelConfig cfg;
    cfg.machPageMultiple = multiple;
    Kernel kernel(spec, cfg);
    report.attachTrace(kernel.machine);
    VmSize page = kernel.pageSize();
    Task *task = kernel.taskCreate();

    SweepResult r{};

    // Dense: sequentially dirty 256KB.
    VmOffset addr = 0;
    VmSize size = 256 << 10;
    (void)task->map().allocate(&addr, size, true);
    std::uint64_t f0 = kernel.vm->stats.faults;
    SimTime t0 = kernel.now();
    (void)kernel.taskTouch(*task, addr, size, AccessType::Write);
    r.denseTime = kernel.now() - t0;
    r.denseFaults = kernel.vm->stats.faults - f0;

    // Sparse: touch one byte in each of 64 widely spaced spots.
    VmOffset sparse = 0;
    (void)task->map().allocate(&sparse, 64 * 16 * page, true);
    f0 = kernel.vm->stats.faults;
    t0 = kernel.now();
    for (unsigned i = 0; i < 64; ++i) {
        (void)kernel.taskTouch(*task, sparse + i * 16 * page, 1,
                               AccessType::Write);
    }
    r.sparseTime = kernel.now() - t0;
    r.sparseFaults = kernel.vm->stats.faults - f0;
    return r;
}

} // namespace
} // namespace mach

int
main(int argc, char **argv)
{
    using namespace mach;
    setQuiet(true);
    bench::Report report("bench_pagesize", argc, argv);

    std::printf("Ablation E: boot-time Mach page size on the VAX "
                "(512B hardware pages)\n");
    std::printf("%-10s | %-24s | %-24s\n", "", "dense 256KB write",
                "64 sparse touches");
    std::printf("%-10s | %10s %12s | %10s %12s\n", "page size",
                "faults", "time", "faults", "time");
    for (unsigned multiple : {1u, 2u, 4u, 8u, 16u}) {
        SweepResult r = run(multiple, report);
        std::printf("%7uB   | %10llu %12s | %10llu %12s\n",
                    512 * multiple,
                    (unsigned long long)r.denseFaults,
                    bench::ms(r.denseTime).c_str(),
                    (unsigned long long)r.sparseFaults,
                    bench::ms(r.sparseTime).c_str());
        std::string tag = std::to_string(512 * multiple) + "b";
        report.add("uvax2", "dense_faults_" + tag,
                   double(r.denseFaults), "count");
        report.add("uvax2", "dense_time_" + tag, double(r.denseTime),
                   "ns");
        report.add("uvax2", "sparse_faults_" + tag,
                   double(r.sparseFaults), "count");
        report.add("uvax2", "sparse_time_" + tag,
                   double(r.sparseTime), "ns");
    }
    std::printf("\nLarger pages amortize trap overhead for dense "
                "access but waste\nzero-fill work (and memory) for "
                "sparse access — why Mach leaves the\nchoice to boot "
                "time rather than the architecture.\n");
    return report.finish();
}
