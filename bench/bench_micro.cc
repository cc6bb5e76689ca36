/**
 * @file
 * Microbenchmarks (google-benchmark) of the core machine-independent
 * data structures: address-map operations, the resident page table's
 * object/offset hash, object allocation, and the full fault path.
 * These measure *host* wall-clock cost of the implementation, not
 * simulated time — useful for keeping the simulator itself fast.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "bench_report.hh"

#include "base/logging.hh"
#include "hw/machine.hh"
#include "kern/kernel.hh"
#include "pmap/pmap.hh"
#include "vm/vm_map.hh"
#include "vm/vm_object.hh"
#include "vm/vm_sys.hh"

namespace mach
{
namespace
{

/**
 * The run's report, set by main() before anything runs: the
 * google-benchmark functions have a fixed signature, so the fixtures
 * reach it here to attach `--trace-out` to every machine they build.
 */
bench::Report *report = nullptr;

MachineSpec
benchSpec()
{
    MachineSpec spec = MachineSpec::microVax2();
    spec.physMemBytes = 8ull << 20;
    return spec;
}

struct VmFixture
{
    VmFixture() : machine(benchSpec()), pmaps(PmapSystem::build(machine))
    {
        report->attachTrace(machine);
        pmaps->init(machine.spec.hwPageSize());
        vm = std::make_unique<VmSys>(machine, *pmaps,
                                     machine.spec.hwPageSize());
        pmap = pmaps->create();
        map = new VmMap(*vm, pmap, vm->pageSize(), 1ull << 30);
    }

    ~VmFixture()
    {
        map->deallocate(map->minAddress(),
                        map->maxAddress() - map->minAddress());
        map->deallocateRef();
        pmaps->destroy(pmap);
    }

    Machine machine;
    std::unique_ptr<PmapSystem> pmaps;
    std::unique_ptr<VmSys> vm;
    Pmap *pmap;
    VmMap *map;
};

void
BM_MapAllocateDeallocate(benchmark::State &state)
{
    VmFixture f;
    VmSize page = f.vm->pageSize();
    for (auto _ : state) {
        VmOffset addr = 0;
        benchmark::DoNotOptimize(
            f.map->allocate(&addr, 8 * page, true));
        benchmark::DoNotOptimize(f.map->deallocate(addr, 8 * page));
    }
}
BENCHMARK(BM_MapAllocateDeallocate);

void
BM_MapLookupHinted(benchmark::State &state)
{
    VmFixture f;
    VmSize page = f.vm->pageSize();
    unsigned entries = unsigned(state.range(0));
    for (unsigned i = 0; i < entries; ++i) {
        VmOffset addr = (2 + i) * page;
        (void)f.map->allocate(&addr, page, false);
        if (i % 2)
            (void)f.map->protect(addr, page, false, VmProt::Read);
    }
    unsigned i = 0;
    VmMap::LookupResult lr;
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.map->lookup(
            (2 + (i++ % entries)) * page, FaultType::Read, lr));
    }
}
BENCHMARK(BM_MapLookupHinted)->Arg(8)->Arg(128)->Arg(1024);

void
BM_ResidentPageLookup(benchmark::State &state)
{
    VmFixture f;
    VmSize page = f.vm->pageSize();
    VmObject *obj = VmObject::allocate(*f.vm, 512 * page);
    for (unsigned i = 0; i < 256; ++i) {
        VmPage *p = f.vm->allocPage(obj, i * page);
        f.vm->resident.activate(p);
    }
    unsigned i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            f.vm->resident.lookup(obj, (i++ % 256) * page));
    }
    obj->deallocate();
}
BENCHMARK(BM_ResidentPageLookup);

void
BM_ObjectCreateDestroy(benchmark::State &state)
{
    VmFixture f;
    for (auto _ : state) {
        VmObject *obj = VmObject::allocate(*f.vm, 64 << 10);
        benchmark::DoNotOptimize(obj);
        obj->deallocate();
    }
}
BENCHMARK(BM_ObjectCreateDestroy);

void
BM_ZeroFillFault(benchmark::State &state)
{
    VmFixture f;
    VmSize page = f.vm->pageSize();
    VmOffset addr = 0;
    (void)f.map->allocate(&addr, 1024 * page, true);
    VmOffset va = addr;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            f.vm->fault(*f.map, va, FaultType::Write));
        va += page;
        if (va >= addr + 1024 * page) {
            state.PauseTiming();
            (void)f.map->deallocate(addr, 1024 * page);
            addr = 0;
            (void)f.map->allocate(&addr, 1024 * page, true);
            va = addr;
            state.ResumeTiming();
        }
    }
}
BENCHMARK(BM_ZeroFillFault);

void
BM_CowFaultPair(benchmark::State &state)
{
    // Fork-style COW: shadow + page copy, the hot path of Table 7-1.
    MachineSpec spec = benchSpec();
    Kernel kernel(spec);
    report->attachTrace(kernel.machine);
    VmSize page = kernel.pageSize();
    Task *parent = kernel.taskCreate();
    VmOffset addr = 0;
    (void)parent->map().allocate(&addr, 64 * page, true);
    (void)kernel.taskTouch(*parent, addr, 64 * page,
                           AccessType::Write);
    for (auto _ : state) {
        state.PauseTiming();
        Task *child = kernel.taskFork(*parent);
        state.ResumeTiming();
        benchmark::DoNotOptimize(
            kernel.taskTouch(*child, addr, 64 * page,
                             AccessType::Write));
        state.PauseTiming();
        kernel.taskTerminate(child);
        state.ResumeTiming();
    }
}
BENCHMARK(BM_CowFaultPair);

/**
 * Host-side fault throughput: zero-fill faults driven through the
 * full vm_fault path per wall-clock second.  Reported in --json mode
 * under the gate-exempt "host_rate" unit (host time is not
 * reproducible across runners; the value is informational).
 */
double
hostFaultsPerSecond()
{
    VmFixture f;
    VmSize page = f.vm->pageSize();
    const unsigned batch = 1024;
    VmOffset addr = 0;
    std::uint64_t faults = 0;
    auto t0 = std::chrono::steady_clock::now();
    std::chrono::duration<double> elapsed{};
    do {
        addr = 0;
        (void)f.map->allocate(&addr, batch * page, true);
        for (unsigned i = 0; i < batch; ++i)
            (void)f.vm->fault(*f.map, addr + i * page,
                              FaultType::Write);
        faults += batch;
        (void)f.map->deallocate(addr, batch * page);
        elapsed = std::chrono::steady_clock::now() - t0;
    } while (elapsed.count() < 0.2);
    return double(faults) / elapsed.count();
}

void
BM_PmapEnterRemove(benchmark::State &state)
{
    VmFixture f;
    VmSize page = f.vm->pageSize();
    for (auto _ : state) {
        f.pmap->enter(4 * page, 8 * page, VmProt::Default, false);
        f.pmap->remove(4 * page, 5 * page);
    }
}
BENCHMARK(BM_PmapEnterRemove);

} // namespace
} // namespace mach

int
main(int argc, char **argv)
{
    mach::setQuiet(true);
    // These microbenchmarks measure host wall-clock time, which is
    // not reproducible across CI runners; in --json mode skip the
    // google-benchmark suite and emit only the gate-exempt host
    // fault-throughput record, so the regression harness can treat
    // every bench binary uniformly.
    mach::bench::Report report("bench_micro", argc, argv);
    mach::report = &report;
    if (report.jsonRequested()) {
        report.add("uvax2", "host_faults_per_second",
                   mach::hostFaultsPerSecond(), "host_rate");
        return report.finish();
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return report.finish();
}
