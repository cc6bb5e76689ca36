/**
 * @file
 * End-to-end introspection: per-task accounting reproduces the
 * global VmStatistics counters across a fork/COW workload, the
 * task_info-style API reports resident and wired pages, per-object
 * attribution follows the satisfying object, the registry snapshot
 * names every counter and histogram exactly once, and attaching a
 * trace sink changes no simulated result on any architecture.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <vector>

#include "kern/kernel.hh"
#include "kern/task.hh"
#include "sim/metrics.hh"
#include "test_util.hh"
#include "vm/vm_map.hh"
#include "vm/vm_object.hh"
#include "vm/vm_sys.hh"
#include "vm/vm_user.hh"

namespace mach
{
namespace
{

class IntrospectionTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        spec = test::tinySpec(ArchType::Vax, 4);
        kernel = std::make_unique<Kernel>(spec);
        page = kernel->pageSize();
    }

    MachineSpec spec;
    std::unique_ptr<Kernel> kernel;
    VmSize page = 0;
};

TEST_F(IntrospectionTest, TaskSumsReproduceGlobalCounters)
{
    // Faults from task maps are attributed exactly once each, so
    // across any workload driven purely through task memory the
    // per-task records must sum to the global VmStatistics deltas.
    VmStatistics before = kernel->vm->stats;

    Task *parent = kernel->taskCreate();
    VmOffset addr = 0;
    VmSize size = 8 * page;
    ASSERT_EQ(parent->map().allocate(&addr, size, true),
              KernReturn::Success);
    auto data = test::pattern(size);
    ASSERT_EQ(kernel->taskWrite(*parent, addr, data.data(), size),
              KernReturn::Success);

    Task *child = kernel->taskFork(*parent);
    // Child COWs half the region, parent re-touches its own copy.
    ASSERT_EQ(kernel->taskWrite(*child, addr, data.data(), size / 2),
              KernReturn::Success);
    ASSERT_EQ(kernel->taskWrite(*parent, addr, data.data(), size),
              KernReturn::Success);

    VmStatistics after = kernel->vm->stats;
    TaskVmInfo pi = parent->vmInfo();
    TaskVmInfo ci = child->vmInfo();

    VmAccounting sum = pi.acct;
    sum.merge(ci.acct);
    EXPECT_EQ(sum.faults(), after.faults - before.faults);
    EXPECT_EQ(sum.zeroFills(),
              after.zeroFillCount - before.zeroFillCount);
    EXPECT_EQ(sum.cowFaults(), after.cowFaults - before.cowFaults);
    EXPECT_EQ(sum.pageins(), after.pageins - before.pageins);

    // The workload is zero-fill + COW only; both kinds must appear.
    EXPECT_GT(sum.zeroFills(), 0u);
    EXPECT_GT(sum.cowFaults(), 0u);
    // The child's COW writes landed on the child, not the parent.
    EXPECT_GT(ci.acct.cowFaults(), 0u);

    kernel->taskTerminate(child);
}

TEST_F(IntrospectionTest, TaskInfoCountsResidentAndWiredPages)
{
    Task *task = kernel->taskCreate();
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, 4 * page, true),
              KernReturn::Success);

    TaskVmInfo empty = task->vmInfo();
    EXPECT_EQ(empty.residentPages, 0u);
    EXPECT_GE(empty.virtualSize, 4 * page);

    // Touch three of the four pages.
    ASSERT_EQ(kernel->taskTouch(*task, addr, 3 * page,
                                AccessType::Write),
              KernReturn::Success);
    TaskVmInfo touched = task->vmInfo();
    EXPECT_EQ(touched.residentPages, 3u);
    EXPECT_EQ(touched.wiredPages, 0u);

    // Wire one page and recount.
    ASSERT_EQ(vmWire(*kernel->vm, task->map(), addr, page, true),
              KernReturn::Success);
    TaskVmInfo wired = task->vmInfo();
    EXPECT_EQ(wired.wiredPages, 1u);
    EXPECT_EQ(wired.residentPages, 3u);

    ASSERT_EQ(vmWire(*kernel->vm, task->map(), addr, page, false),
              KernReturn::Success);
    EXPECT_EQ(task->vmInfo().wiredPages, 0u);
}

TEST_F(IntrospectionTest, ObjectAccountingFollowsSatisfyingObject)
{
    Task *task = kernel->taskCreate();
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, 2 * page, true),
              KernReturn::Success);
    ASSERT_EQ(kernel->taskTouch(*task, addr, 2 * page,
                                AccessType::Write),
              KernReturn::Success);

    VmMap::LookupResult lr;
    ASSERT_EQ(task->map().lookup(addr, FaultType::Read, lr),
              KernReturn::Success);
    ASSERT_NE(lr.object, nullptr);
    // Two zero-fill faults landed on the anonymous object, and the
    // object's identity is stable and non-zero.
    EXPECT_NE(lr.object->id, 0u);
    EXPECT_EQ(lr.object->acct.zeroFills(), 2u);
}

TEST_F(IntrospectionTest, RegistrySnapshotAgreesWithBoundCounters)
{
    Task *task = kernel->taskCreate();
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, 4 * page, true),
              KernReturn::Success);
    ASSERT_EQ(kernel->taskTouch(*task, addr, 4 * page,
                                AccessType::Write),
              KernReturn::Success);

    MetricsRegistry::Snapshot snap = kernel->vm->metricsSnapshot();
    EXPECT_EQ(snap.counterValue("vm.faults"),
              kernel->vm->stats.faults);
    EXPECT_EQ(snap.counterValue("vm.zero_fills"),
              kernel->vm->stats.zeroFillCount);
    EXPECT_GT(snap.counterValue("vm.faults"), 0u);

    // Accounting is always on: one more zero fill shows up in the
    // task's record and in the bound counter alike.
    std::uint64_t acct_before = task->vmInfo().acct.zeroFills();
    std::uint64_t zf_before = snap.counterValue("vm.zero_fills");
    VmOffset addr2 = 0;
    ASSERT_EQ(task->map().allocate(&addr2, page, true),
              KernReturn::Success);
    ASSERT_EQ(kernel->taskTouch(*task, addr2, page,
                                AccessType::Write),
              KernReturn::Success);
    EXPECT_EQ(task->vmInfo().acct.zeroFills(), acct_before + 1);
    EXPECT_EQ(kernel->vm->metricsSnapshot().counterValue(
                  "vm.zero_fills"),
              zf_before + 1);
}

TEST_F(IntrospectionTest, EveryPmapCounterAndHistogramNamedOnce)
{
    // Bump each PmapSystem counter by a distinct amount: exactly one
    // registry counter must move, by exactly that amount, under the
    // expected name.  That proves each field is bound, and bound
    // once, to the storage the pmap layer updates.
    struct Field
    {
        const char *name;
        std::uint64_t PmapSystem::*field;
    };
    const Field fields[] = {
        {"tlb.shootdown_ipis", &PmapSystem::shootdownIpis},
        {"tlb.deferred_flushes", &PmapSystem::deferredFlushes},
        {"tlb.lazy_skips", &PmapSystem::lazySkips},
        {"tlb.shootdowns_coalesced", &PmapSystem::shootdownsCoalesced},
        {"tlb.batched_ipis", &PmapSystem::batchedIpis},
        {"tlb.batch_ranges_merged", &PmapSystem::batchRangesMerged},
        {"tlb.batch_flushes", &PmapSystem::batchFlushes},
        {"pmap.alias_evictions", &PmapSystem::aliasEvictions},
        {"pmap.context_steals", &PmapSystem::contextSteals},
        {"tlb.shootdown_rounds", &PmapSystem::shootdownRoundSeq},
        {"pmap.pmeg_steals", &PmapSystem::pmegSteals},
        {"pmap.table_pages_built", &PmapSystem::tablePagesBuilt},
        {"pmap.table_pages_freed", &PmapSystem::tablePagesFreed},
    };
    PmapSystem &pm = *kernel->pmaps;
    MetricsRegistry::Snapshot before = kernel->vm->metricsSnapshot();
    for (std::size_t i = 0; i < std::size(fields); ++i)
        pm.*fields[i].field += 1000 + i;
    MetricsRegistry::Snapshot after = kernel->vm->metricsSnapshot();

    ASSERT_EQ(after.counters.size(), before.counters.size());
    for (std::size_t i = 0; i < std::size(fields); ++i) {
        unsigned moved = 0;
        for (std::size_t c = 0; c < after.counters.size(); ++c) {
            ASSERT_EQ(after.counters[c].first, before.counters[c].first);
            std::uint64_t delta =
                after.counters[c].second - before.counters[c].second;
            if (delta == 1000 + i) {
                ++moved;
                EXPECT_EQ(after.counters[c].first, fields[i].name);
            }
        }
        EXPECT_EQ(moved, 1u) << fields[i].name;
    }

    // Every histogram appears once, under one name, and reads the
    // storage of the layer that records it.
    Task *task = kernel->taskCreate();
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, 4 * page, true),
              KernReturn::Success);
    ASSERT_EQ(kernel->taskTouch(*task, addr, 4 * page,
                                AccessType::Write),
              KernReturn::Success);
    MetricsRegistry::Snapshot snap = kernel->vm->metricsSnapshot();
    const std::pair<const char *, const LatencyHistogram *> hists[] = {
        {"vm.fault_ns", &kernel->vm->stats.faultLatency},
        {"vm.pageout_ns", &kernel->vm->stats.pageoutLatency},
        {"pmap.op_ns", &pm.pmapOpLatency},
        {"tlb.shootdown_wait_ns", &pm.shootdownLatency},
        {"disk.fs.transfer_ns", &kernel->disk.latency()},
        {"disk.swap.transfer_ns", &kernel->swapDisk.latency()},
    };
    ASSERT_EQ(snap.histograms.size(), std::size(hists));
    for (const auto &[name, storage] : hists) {
        unsigned seen = 0;
        for (const auto &[n, h] : snap.histograms) {
            if (n == name) {
                ++seen;
                EXPECT_EQ(h, *storage) << name;
            }
        }
        EXPECT_EQ(seen, 1u) << name;
    }
    EXPECT_GT(snap.histogram("vm.fault_ns").count(), 0u);
    EXPECT_GT(snap.histogram("pmap.op_ns").count(), 0u);

    // Counter names are unique too (the snapshot is sorted).
    for (std::size_t c = 1; c < snap.counters.size(); ++c)
        EXPECT_LT(snap.counters[c - 1].first, snap.counters[c].first);
}

TEST_F(IntrospectionTest, DaemonMetricsCountPageoutPasses)
{
    // A kernel with very little memory, so writing twice the
    // physical size forces the pageout daemon to run.
    MachineSpec tiny = test::tinySpec(ArchType::Vax, 1);
    tiny.physMemBytes = 64 << 10;
    Kernel small(tiny);
    VmSize pg = small.pageSize();
    Task *task = small.taskCreate();
    VmOffset addr = 0;
    VmSize total = 128 * 1024;
    ASSERT_EQ(task->map().allocate(&addr, total, true),
              KernReturn::Success);
    auto data = test::pattern(total, 3);
    ASSERT_EQ(small.taskWrite(*task, addr, data.data(),
                              data.size()),
              KernReturn::Success);
    ASSERT_GT(small.vm->stats.pageouts, 0u);

    MetricsRegistry::Snapshot snap = small.vm->metricsSnapshot();
    EXPECT_GT(snap.counterValue("pageout.passes"), 0u);
    EXPECT_GT(snap.counterValue("pageout.pages_scanned"), 0u);
    EXPECT_GT(snap.counterValue("pageout.pages_reclaimed"), 0u);
    EXPECT_GT(snap.counterValue("pageout.pages_laundered"), 0u);
    EXPECT_EQ(snap.counterValue("vm.pageouts"),
              small.vm->stats.pageouts);

    // The laundered pages were attributed to the owning object.
    VmMap::LookupResult lr;
    ASSERT_EQ(task->map().lookup(addr, FaultType::Read, lr),
              KernReturn::Success);
    ASSERT_NE(lr.object, nullptr);
    EXPECT_GT(lr.object->acct.pageouts, 0u);
    (void)pg;
}

/** What one run of the non-perturbation workload leaves behind. */
struct RunResult
{
    MetricsRegistry::Snapshot snap;
    SimTime now = 0;
    std::array<SimTime, SimClock::numKinds> kinds{};
    std::uint64_t events = 0;
};

/**
 * Zero fill, fork plus COW writes on both sides, pageout pressure
 * with pagein, a protect under Immediate shootdown on four CPUs, and
 * deallocation, on a four-CPU machine with @p sink attached from
 * boot (or nothing attached when null).
 */
RunResult
runWorkload(ArchType arch, TraceSink *sink)
{
    Kernel kernel(test::tinySpec(arch, 1, 4));
    kernel.machine.clock().setTraceSink(sink);
    kernel.pmaps->policy.protect = ShootdownMode::Immediate;
    VmSize page = kernel.pageSize();

    Task *task = kernel.taskCreate();
    for (CpuId cpu = 0; cpu < 4; ++cpu) {
        kernel.threadCreate(*task);
        kernel.switchTo(task, cpu);
    }
    kernel.machine.setCurrentCpu(0);

    VmOffset small = 0;
    VmSize small_size = 8 * page;
    EXPECT_EQ(task->map().allocate(&small, small_size, true),
              KernReturn::Success);
    auto data = test::pattern(small_size, 5);
    EXPECT_EQ(kernel.taskWrite(*task, small, data.data(), small_size),
              KernReturn::Success);

    Task *child = kernel.taskFork(*task);
    EXPECT_EQ(kernel.taskWrite(*child, small, data.data(),
                               small_size / 2),
              KernReturn::Success);
    EXPECT_EQ(kernel.taskWrite(*task, small, data.data(), small_size),
              KernReturn::Success);

    // Twice the physical memory, so the daemon launders and the
    // read-back pages in.
    VmOffset big = 0;
    VmSize big_size = 2 * kernel.machine.spec.physMemBytes;
    EXPECT_EQ(task->map().allocate(&big, big_size, true),
              KernReturn::Success);
    auto bulk = test::pattern(big_size, 9);
    EXPECT_EQ(kernel.taskWrite(*task, big, bulk.data(), big_size),
              KernReturn::Success);
    std::vector<std::uint8_t> back(4 * page);
    EXPECT_EQ(kernel.taskRead(*task, big, back.data(), back.size()),
              KernReturn::Success);
    EXPECT_TRUE(std::equal(back.begin(), back.end(), bulk.begin()));

    // Load the small region into every CPU's TLB, then write-protect
    // it: one Immediate round with IPIs to the remote CPUs.
    for (CpuId cpu = 0; cpu < 4; ++cpu) {
        kernel.machine.setCurrentCpu(cpu);
        EXPECT_EQ(kernel.machine.touch(cpu, small, small_size,
                                       AccessType::Read),
                  KernReturn::Success);
    }
    kernel.machine.setCurrentCpu(0);
    EXPECT_EQ(vmProtect(*kernel.vm, task->map(), small, small_size,
                        false, VmProt::Read),
              KernReturn::Success);

    EXPECT_EQ(vmDeallocate(*kernel.vm, task->map(), big, big_size),
              KernReturn::Success);
    kernel.taskTerminate(child);

    RunResult r;
    r.snap = kernel.vm->metricsSnapshot();
    r.now = kernel.machine.clock().now();
    for (std::size_t k = 0; k < SimClock::numKinds; ++k)
        r.kinds[k] = kernel.machine.clock().kindTotal(
            static_cast<CostKind>(k));
    r.events = sink ? sink->totalEmitted() : 0;
    kernel.machine.clock().setTraceSink(nullptr);
    return r;
}

class NonPerturbationTest : public ::testing::TestWithParam<ArchType>
{
};

TEST_P(NonPerturbationTest, TraceSinkChangesNoSimulatedResult)
{
    TraceSink sink(1 << 12);
    RunResult plain = runWorkload(GetParam(), nullptr);
    RunResult traced = runWorkload(GetParam(), &sink);

    // The workload reached every path it is meant to cover.
    EXPECT_GT(plain.snap.counterValue("vm.zero_fills"), 0u);
    EXPECT_GT(plain.snap.counterValue("vm.cow_faults"), 0u);
    EXPECT_GT(plain.snap.counterValue("vm.pageouts"), 0u);
    EXPECT_GT(plain.snap.counterValue("vm.pageins"), 0u);
    EXPECT_GT(plain.snap.counterValue("tlb.shootdown_ipis"), 0u);
    EXPECT_GT(traced.events, 0u);

    EXPECT_EQ(plain.now, traced.now);
    for (std::size_t k = 0; k < SimClock::numKinds; ++k) {
        EXPECT_EQ(plain.kinds[k], traced.kinds[k])
            << costKindName(static_cast<CostKind>(k));
    }
    ASSERT_EQ(plain.snap.counters.size(), traced.snap.counters.size());
    for (std::size_t c = 0; c < plain.snap.counters.size(); ++c)
        EXPECT_EQ(plain.snap.counters[c], traced.snap.counters[c]);
    ASSERT_EQ(plain.snap.histograms.size(),
              traced.snap.histograms.size());
    for (std::size_t h = 0; h < plain.snap.histograms.size(); ++h) {
        EXPECT_EQ(plain.snap.histograms[h].first,
                  traced.snap.histograms[h].first);
        EXPECT_TRUE(plain.snap.histograms[h].second ==
                    traced.snap.histograms[h].second)
            << plain.snap.histograms[h].first;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, NonPerturbationTest,
    ::testing::ValuesIn(test::allArchs()),
    [](const ::testing::TestParamInfo<ArchType> &info) {
        return test::archLabel(info.param);
    });

} // namespace
} // namespace mach
