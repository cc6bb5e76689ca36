/**
 * @file
 * Reproduces Table 7-1: "Performance of Mach VM Operations" — the
 * cost of zero-fill, fork and file reread under Mach vs a 4.3bsd
 * style UNIX, on the machines the paper measured.
 *
 * Both systems run on the same simulated hardware and cost model; the
 * only difference is the VM design.  Absolute values are calibrated
 * simulated time; the claim being reproduced is the *shape*: Mach
 * wins or ties every row, with the fork and file-reread rows showing
 * the copy-on-write and object-cache advantages.
 */

#include <memory>
#include <vector>

#include "base/logging.hh"
#include "bench_report.hh"
#include "bench_util.hh"
#include "kern/kernel.hh"
#include "unix/unix_vm.hh"
#include "vm/vm_object.hh"

namespace mach
{
namespace
{

using bench::ms;
using bench::sec;

/** Time to first-touch (zero fill) 1KB of fresh memory. */
SimTime
machZeroFill1K(const MachineSpec &spec, bench::Report &report)
{
    Kernel kernel(spec);
    report.attachTrace(kernel.machine);
    Task *task = kernel.taskCreate();
    // Warm up: context load and map creation are not what Table 7-1
    // measures.
    VmOffset warm = 0;
    (void)task->map().allocate(&warm, kernel.pageSize(), true);
    (void)kernel.taskTouch(*task, warm, 1, AccessType::Write);

    VmOffset addr = 0;
    (void)task->map().allocate(&addr, 64 << 10, true);
    SimTime t0 = kernel.now();
    (void)kernel.taskTouch(*task, addr, 1024, AccessType::Write);
    return kernel.now() - t0;
}

SimTime
unixZeroFill1K(const MachineSpec &spec, bench::Report &report)
{
    Machine machine(spec);
    report.attachTrace(machine);
    UnixVm unix_vm(machine, 120);
    UnixProc *proc = unix_vm.procCreate();
    VmOffset warm = 0;
    (void)unix_vm.allocate(*proc, &warm, spec.hwPageSize());
    (void)unix_vm.touch(*proc, warm, 1, true);

    VmOffset addr = 0;
    (void)unix_vm.allocate(*proc, &addr, 64 << 10);
    SimTime t0 = machine.clock().now();
    (void)unix_vm.touch(*proc, addr, 1024, true);
    return machine.clock().now() - t0;
}

/** Time to fork a task with 256KB of dirty memory. */
SimTime
machFork256K(const MachineSpec &spec, bench::Report &report)
{
    Kernel kernel(spec);
    report.attachTrace(kernel.machine);
    Task *task = kernel.taskCreate();
    VmOffset addr = 0;
    VmSize size = 256 << 10;
    (void)task->map().allocate(&addr, size, true);
    std::vector<std::uint8_t> data(size, 0x5a);
    (void)kernel.taskWrite(*task, addr, data.data(), size);

    SimTime t0 = kernel.now();
    Task *child = kernel.taskFork(*task);
    SimTime dt = kernel.now() - t0;
    kernel.taskTerminate(child);
    return dt;
}

SimTime
unixFork256K(const MachineSpec &spec, bench::Report &report)
{
    Machine machine(spec);
    report.attachTrace(machine);
    UnixVm unix_vm(machine, 120);
    UnixProc *proc = unix_vm.procCreate();
    VmOffset addr = 0;
    VmSize size = 256 << 10;
    (void)unix_vm.allocate(*proc, &addr, size);
    std::vector<std::uint8_t> data(size, 0x5a);
    (void)unix_vm.procWrite(*proc, addr, data.data(), size);

    SimTime t0 = machine.clock().now();
    UnixProc *child = unix_vm.fork(*proc);
    SimTime dt = machine.clock().now() - t0;
    unix_vm.procDestroy(child);
    return dt;
}

struct ReadTimes
{
    SimTime firstSystem, firstElapsed;
    SimTime secondSystem, secondElapsed;
};

/** Read a file of @p size twice through the Mach object cache. */
ReadTimes
machRead(const MachineSpec &spec, VmSize size, bench::Report &report)
{
    KernelConfig cfg;
    cfg.machPageMultiple = 2;  // 1K Mach pages on the 8200
    cfg.diskBytes = 64ull << 20;
    Kernel kernel(spec, cfg);
    report.attachTrace(kernel.machine);
    kernel.createPatternFile("file", size, 7);
    std::vector<std::uint8_t> buf(size);

    auto once = [&](SimTime *system, SimTime *elapsed) {
        SimTime t0 = kernel.now();
        SimTime d0 = kernel.machine.clock().kindTotal(CostKind::Disk);
        VmSize got = 0;
        KernReturn kr = kernel.fileRead("file", 0, buf.data(), size,
                                        &got);
        MACH_ASSERT(kr == KernReturn::Success && got == size);
        *elapsed = kernel.now() - t0;
        SimTime disk =
            kernel.machine.clock().kindTotal(CostKind::Disk) - d0;
        *system = *elapsed - disk;
    };

    ReadTimes t{};
    once(&t.firstSystem, &t.firstElapsed);
    once(&t.secondSystem, &t.secondElapsed);
    return t;
}

/** The same through the 4.3bsd buffer cache (generic: 120 buffers). */
ReadTimes
unixRead(const MachineSpec &spec, VmSize size, bench::Report &report)
{
    Machine machine(spec);
    report.attachTrace(machine);
    UnixVm unix_vm(machine, 120);
    unix_vm.createPatternFile("file", size, 7);
    std::vector<std::uint8_t> buf(size);

    auto once = [&](SimTime *system, SimTime *elapsed) {
        SimTime t0 = machine.clock().now();
        SimTime d0 = machine.clock().kindTotal(CostKind::Disk);
        VmSize got = unix_vm.read("file", 0, buf.data(), size);
        MACH_ASSERT(got == size);
        *elapsed = machine.clock().now() - t0;
        SimTime disk = machine.clock().kindTotal(CostKind::Disk) - d0;
        *system = *elapsed - disk;
    };

    ReadTimes t{};
    once(&t.firstSystem, &t.firstElapsed);
    once(&t.secondSystem, &t.secondElapsed);
    return t;
}

std::string
sysElapsed(SimTime system, SimTime elapsed)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.1f/%.1fs", double(system) / 1e9,
                  double(elapsed) / 1e9);
    return buf;
}

} // namespace
} // namespace mach

int
main(int argc, char **argv)
{
    using namespace mach;
    setQuiet(true);
    bench::Report report("bench_table7_1", argc, argv);

    std::printf("Table 7-1: Performance of Mach VM Operations\n");
    std::printf("(simulated time; paper values alongside)\n");
    bench::rowHeader();

    struct ZfMachine
    {
        const char *label;
        const char *arch;
        MachineSpec spec;
        const char *paperMach, *paperUnix;
    };
    const ZfMachine zf[] = {
        {"zero fill 1K (RT PC)", "rt_pc", MachineSpec::rtPc(),
         "0.45ms", "0.58ms"},
        {"zero fill 1K (uVAX II)", "uvax2", MachineSpec::microVax2(),
         "0.58ms", "1.20ms"},
        {"zero fill 1K (SUN 3/160)", "sun3_160",
         MachineSpec::sun3_160(), "0.23ms", "0.27ms"},
    };
    for (const ZfMachine &m : zf) {
        SimTime mach_t = machZeroFill1K(m.spec, report);
        SimTime unix_t = unixZeroFill1K(m.spec, report);
        bench::row(m.label, ms(mach_t), ms(unix_t), m.paperMach,
                   m.paperUnix);
        report.add(m.arch, "mach_zero_fill_1k", double(mach_t), "ns");
        report.add(m.arch, "unix_zero_fill_1k", double(unix_t), "ns");
    }

    const ZfMachine fk[] = {
        {"fork 256K (RT PC)", "rt_pc", MachineSpec::rtPc(), "41ms",
         "145ms"},
        {"fork 256K (uVAX II)", "uvax2", MachineSpec::microVax2(),
         "59ms", "220ms"},
        {"fork 256K (SUN 3/160)", "sun3_160", MachineSpec::sun3_160(),
         "68ms", "89ms"},
    };
    for (const ZfMachine &m : fk) {
        SimTime mach_t = machFork256K(m.spec, report);
        SimTime unix_t = unixFork256K(m.spec, report);
        bench::row(m.label, ms(mach_t), ms(unix_t), m.paperMach,
                   m.paperUnix);
        report.add(m.arch, "mach_fork_256k", double(mach_t), "ns");
        report.add(m.arch, "unix_fork_256k", double(unix_t), "ns");
    }

    // File reread on a VAX 8200 (system/elapsed seconds).
    auto readRows = [&](const char *size_tag, VmSize size,
                        const char *paper_first_m,
                        const char *paper_first_u,
                        const char *paper_second_m,
                        const char *paper_second_u) {
        ReadTimes m = machRead(MachineSpec::vax8200(), size, report);
        ReadTimes u = unixRead(MachineSpec::vax8200(), size, report);
        std::string label = std::string("read ") + size_tag + " file";
        bench::row(label + ", first",
                   sysElapsed(m.firstSystem, m.firstElapsed),
                   sysElapsed(u.firstSystem, u.firstElapsed),
                   paper_first_m, paper_first_u);
        bench::row(label + ", second",
                   sysElapsed(m.secondSystem, m.secondElapsed),
                   sysElapsed(u.secondSystem, u.secondElapsed),
                   paper_second_m, paper_second_u);
        std::string base = std::string("read_") + size_tag;
        report.add("vax8200", "mach_" + base + "_first_elapsed",
                   double(m.firstElapsed), "ns");
        report.add("vax8200", "mach_" + base + "_second_elapsed",
                   double(m.secondElapsed), "ns");
        report.add("vax8200", "unix_" + base + "_first_elapsed",
                   double(u.firstElapsed), "ns");
        report.add("vax8200", "unix_" + base + "_second_elapsed",
                   double(u.secondElapsed), "ns");
    };
    readRows("2.5M", 2500 << 10, "5.2/11s", "5.0/11s", "1.2/1.4s",
             "5.0/11s");
    readRows("50K", 50 << 10, "0.2/0.5s", "0.2/0.5s", "0.1/0.1s",
             "0.2/0.2s");
    return report.finish();
}
