/**
 * @file
 * Ablation D (paper section 5.2): TLB consistency strategies on a
 * shared-memory multiprocessor.
 *
 * None of the multiprocessors running Mach keep TLBs consistent in
 * hardware, and a remote TLB cannot be modified.  The paper lists
 * three strategies: (1) forcibly interrupt all CPUs using the map,
 * (2) postpone until every CPU has taken a timer interrupt, (3)
 * allow temporary inconsistency.  This benchmark runs a protection
 * storm on a region active on 1..8 CPUs under each strategy and
 * reports cost and IPI traffic.
 */

#include <cstdio>

#include "base/logging.hh"
#include "bench_report.hh"
#include "bench_util.hh"
#include "kern/kernel.hh"
#include "vm/vm_user.hh"

namespace mach
{
namespace
{

struct StormResult
{
    SimTime time;
    std::uint64_t ipis;
    std::uint64_t deferred;
    std::uint64_t lazy;
};

StormResult
protectStorm(unsigned cpus, ShootdownMode mode, unsigned rounds,
             bench::Report &report)
{
    MachineSpec spec = MachineSpec::encoreMultimax(cpus);
    spec.physMemBytes = 8ull << 20;
    Kernel kernel(spec);
    report.attachTrace(kernel.machine);
    kernel.pmaps->policy.protect = mode;
    VmSize page = kernel.pageSize();

    Task *task = kernel.taskCreate();
    for (unsigned c = 0; c < cpus; ++c) {
        kernel.threadCreate(*task);
        kernel.switchTo(task, c);
    }

    VmOffset addr = 0;
    VmSize size = 16 * page;
    (void)task->map().allocate(&addr, size, true);
    for (unsigned c = 0; c < cpus; ++c) {
        kernel.machine.setCurrentCpu(c);
        (void)kernel.machine.touch(c, addr, size, AccessType::Write);
    }
    kernel.machine.setCurrentCpu(0);

    std::uint64_t ipis0 = kernel.machine.ipiCount();
    std::uint64_t deferred0 = kernel.pmaps->deferredFlushes;
    std::uint64_t lazy0 = kernel.pmaps->lazySkips;
    SimTime t0 = kernel.now();
    for (unsigned r = 0; r < rounds; ++r) {
        (void)vmProtect(*kernel.vm, task->map(), addr, size, false,
                        VmProt::Read);
        kernel.machine.timerTick();
        (void)vmProtect(*kernel.vm, task->map(), addr, size, false,
                        VmProt::Default);
        kernel.machine.timerTick();
    }

    StormResult res{};
    res.time = kernel.now() - t0;
    res.ipis = kernel.machine.ipiCount() - ipis0;
    res.deferred = kernel.pmaps->deferredFlushes - deferred0;
    res.lazy = kernel.pmaps->lazySkips - lazy0;
    return res;
}

const char *
modeName(ShootdownMode mode)
{
    switch (mode) {
      case ShootdownMode::Immediate: return "immediate";
      case ShootdownMode::Deferred: return "deferred";
      case ShootdownMode::Lazy: return "lazy";
    }
    return "?";
}

/** Result of one batched-vs-unbatched measurement. */
struct BatchResult
{
    SimTime time;
    std::uint64_t ipis;
};

/** Build a kernel with a task running on every CPU. */
std::unique_ptr<Kernel>
bootOnCpus(unsigned cpus, bool batched, Task *&task,
           bench::Report &report)
{
    MachineSpec spec = MachineSpec::encoreMultimax(cpus);
    spec.physMemBytes = 8ull << 20;
    auto kernel = std::make_unique<Kernel>(spec);
    report.attachTrace(kernel->machine);
    kernel->pmaps->coalesceShootdowns = batched;
    task = kernel->taskCreate();
    for (unsigned c = 0; c < cpus; ++c) {
        kernel->threadCreate(*task);
        kernel->switchTo(task, c);
    }
    return kernel;
}

/** Map and dirty @p size bytes on every CPU; returns the address. */
VmOffset
populate(Kernel &kernel, Task &task, unsigned cpus, VmSize size)
{
    VmOffset addr = 0;
    (void)task.map().allocate(&addr, size, true);
    for (unsigned c = 0; c < cpus; ++c) {
        kernel.machine.setCurrentCpu(c);
        (void)kernel.machine.touch(c, addr, size, AccessType::Write);
    }
    kernel.machine.setCurrentCpu(0);
    return addr;
}

/** Fork a task whose @p size bytes are dirty on every CPU (the
 *  pmap_copy_on_write storm of Table 7-1's fork rows). */
BatchResult
forkBench(unsigned cpus, VmSize size, bool batched,
          bench::Report &report)
{
    Task *task = nullptr;
    auto kernel = bootOnCpus(cpus, batched, task, report);
    populate(*kernel, *task, cpus, size);

    std::uint64_t ipis0 = kernel->machine.ipiCount();
    SimTime t0 = kernel->now();
    Task *child = kernel->taskFork(*task);
    (void)child;
    return {kernel->now() - t0, kernel->machine.ipiCount() - ipis0};
}

/**
 * Deallocate @p size bytes that are mapped on every CPU.  The region
 * is split into eight map entries first (alternating inheritance
 * blocks simplify()), as a real address space being torn down spans
 * many entries — unbatched, each entry flushes its own round.
 */
BatchResult
deallocBench(unsigned cpus, VmSize size, bool batched,
             bench::Report &report)
{
    Task *task = nullptr;
    auto kernel = bootOnCpus(cpus, batched, task, report);
    VmOffset addr = populate(*kernel, *task, cpus, size);
    VmSize chunk = size / 8;
    for (unsigned i = 0; i < 8; ++i) {
        (void)vmInherit(*kernel->vm, task->map(), addr + i * chunk,
                        chunk,
                        i % 2 ? VmInherit::None : VmInherit::Copy);
    }

    std::uint64_t ipis0 = kernel->machine.ipiCount();
    SimTime t0 = kernel->now();
    (void)task->map().deallocate(addr, size);
    return {kernel->now() - t0, kernel->machine.ipiCount() - ipis0};
}

} // namespace
} // namespace mach

int
main(int argc, char **argv)
{
    using namespace mach;
    setQuiet(true);
    bench::Report report("bench_shootdown", argc, argv);

    std::printf("Ablation D: TLB shootdown strategies "
                "(section 5.2), Encore MultiMax\n");
    std::printf("Protection storm on a 16-page region, 32 rounds:\n");
    std::printf("%-6s %-11s %12s %8s %10s %8s\n", "cpus", "strategy",
                "time", "IPIs", "deferred", "lazy");
    for (unsigned cpus : {1u, 2u, 4u, 8u}) {
        for (auto mode : {ShootdownMode::Immediate,
                          ShootdownMode::Deferred,
                          ShootdownMode::Lazy}) {
            StormResult r = protectStorm(cpus, mode, 32, report);
            std::printf("%-6u %-11s %12s %8llu %10llu %8llu\n", cpus,
                        modeName(mode), bench::ms(r.time).c_str(),
                        (unsigned long long)r.ipis,
                        (unsigned long long)r.deferred,
                        (unsigned long long)r.lazy);
            std::string tag = std::string("storm_") +
                              modeName(mode) + "_" +
                              std::to_string(cpus) + "cpu";
            report.add("multimax", tag + "_time", double(r.time),
                       "ns");
            report.add("multimax", tag + "_ipis", double(r.ipis),
                       "count");
            report.add("multimax", tag + "_deferred",
                       double(r.deferred), "count");
            report.add("multimax", tag + "_lazy", double(r.lazy),
                       "count");
        }
    }
    std::printf("\nImmediate scales its IPI cost with the CPU count "
                "(case 1);\ndeferred batches the flush into the next "
                "clock interrupt (case 2);\nlazy spends nothing but "
                "tolerates windows of stale TLB entries\n(case 3 — "
                "acceptable only when the operation's semantics "
                "allow it).\n");

    std::printf("\nAblation G: batched (coalesced) vs unbatched "
                "shootdowns, Encore MultiMax\n");
    std::printf("%-16s %-6s %12s %8s %12s %8s\n", "operation", "cpus",
                "unbatched", "IPIs", "batched", "IPIs");
    for (unsigned cpus : {1u, 2u, 4u}) {
        BatchResult un = forkBench(cpus, 256 * 1024, false, report);
        BatchResult ba = forkBench(cpus, 256 * 1024, true, report);
        std::printf("%-16s %-6u %12s %8llu %12s %8llu\n", "fork 256K",
                    cpus, bench::ms(un.time).c_str(),
                    (unsigned long long)un.ipis,
                    bench::ms(ba.time).c_str(),
                    (unsigned long long)ba.ipis);
        std::string tag = "fork_256k_" + std::to_string(cpus) + "cpu";
        report.add("multimax", tag + "_unbatched_time",
                   double(un.time), "ns");
        report.add("multimax", tag + "_unbatched_ipis",
                   double(un.ipis), "count");
        report.add("multimax", tag + "_batched_time", double(ba.time),
                   "ns");
        report.add("multimax", tag + "_batched_ipis", double(ba.ipis),
                   "count");
    }
    for (unsigned cpus : {1u, 2u, 4u}) {
        BatchResult un =
            deallocBench(cpus, 1024 * 1024, false, report);
        BatchResult ba =
            deallocBench(cpus, 1024 * 1024, true, report);
        std::printf("%-16s %-6u %12s %8llu %12s %8llu\n",
                    "deallocate 1M", cpus, bench::ms(un.time).c_str(),
                    (unsigned long long)un.ipis,
                    bench::ms(ba.time).c_str(),
                    (unsigned long long)ba.ipis);
        std::string tag = "dealloc_1m_" + std::to_string(cpus) +
                          "cpu";
        report.add("multimax", tag + "_unbatched_time",
                   double(un.time), "ns");
        report.add("multimax", tag + "_unbatched_ipis",
                   double(un.ipis), "count");
        report.add("multimax", tag + "_batched_time", double(ba.time),
                   "ns");
        report.add("multimax", tag + "_batched_ipis", double(ba.ipis),
                   "count");
    }
    std::printf("\nBatched mode accumulates the per-page shootdowns "
                "of one VM operation\nand closes with a single merged "
                "flush round: at most one IPI per\ntarget CPU per "
                "operation, instead of one per page.\n");
    return report.finish();
}
