/**
 * @file
 * The VM event tracing layer (src/sim/trace.hh): ring-buffer
 * wraparound accounting, attach/detach semantics, latency histograms
 * that fill with or without a sink, event ordering, and the event
 * sequence of a copy-on-write fault.
 */

#include <gtest/gtest.h>

#include "kern/kernel.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "test_util.hh"
#include "vm/vm_user.hh"

namespace mach
{
namespace
{

TEST(TraceSinkTest, RingWraparoundIsLossyButCounted)
{
    TraceSink sink(8);
    EXPECT_EQ(sink.capacity(), 8u);

    for (std::uint64_t i = 0; i < 20; ++i) {
        sink.emit(TraceEventType::Ipi, /*cpu=*/0, /*time=*/i * 10,
                  /*detail=*/0, /*arg0=*/i, /*arg1=*/0);
    }

    EXPECT_EQ(sink.totalEmitted(), 20u);
    EXPECT_EQ(sink.size(), 8u);
    EXPECT_EQ(sink.totalDropped(), 12u);

    // The retained window is the newest 8 events, oldest first.
    for (std::size_t i = 0; i < sink.size(); ++i) {
        EXPECT_EQ(sink.at(i).arg0, 12 + i);
        EXPECT_EQ(sink.at(i).time, (12 + i) * 10);
    }

    sink.reset();
    EXPECT_EQ(sink.totalEmitted(), 0u);
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.totalDropped(), 0u);
}

TEST(TraceSinkTest, NoLossBelowCapacity)
{
    TraceSink sink(16);
    for (std::uint64_t i = 0; i < 10; ++i)
        sink.emit(TraceEventType::DiskRead, 0, i, 0, i, 0);
    EXPECT_EQ(sink.size(), 10u);
    EXPECT_EQ(sink.totalDropped(), 0u);
    EXPECT_EQ(sink.at(0).arg0, 0u);
    EXPECT_EQ(sink.at(9).arg0, 9u);
}

TEST(TraceSinkTest, EventNamesAreStable)
{
    EXPECT_STREQ(traceEventName(TraceEventType::FaultBegin),
                 "fault_begin");
    EXPECT_STREQ(traceEventName(TraceEventType::DiskWrite),
                 "disk_write");
    EXPECT_STREQ(traceFaultKindName(TraceFaultKind::Cow), "cow");
}

/** A kernel-driven workload: zero fill, fork, COW write, pageout. */
class TraceKernelTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        spec = test::tinySpec(ArchType::Vax, 4);
        kernel = std::make_unique<Kernel>(spec);
        page = kernel->pageSize();
        task = kernel->taskCreate();
    }

    // The sink must outlive the kernel (task teardown emits events),
    // and a detach here keeps an early ASSERT exit from leaving the
    // clock pointing at a destroyed sink.
    void
    TearDown() override
    {
        kernel->machine.clock().setTraceSink(nullptr);
    }

    TraceSink sink;

    /** Touch a few fresh pages so events of several types appear. */
    void
    workload()
    {
        VmOffset addr = 0;
        ASSERT_EQ(task->map().allocate(&addr, 4 * page, true),
                  KernReturn::Success);
        auto data = test::pattern(2 * page);
        ASSERT_EQ(kernel->taskWrite(*task, addr, data.data(),
                                    data.size()),
                  KernReturn::Success);
        ASSERT_EQ(vmDeallocate(*kernel->vm, task->map(), addr,
                               4 * page),
                  KernReturn::Success);
    }

    MachineSpec spec;
    std::unique_ptr<Kernel> kernel;
    VmSize page = 0;
    Task *task = nullptr;
};

TEST_F(TraceKernelTest, DetachedSinkSeesNothing)
{
    // Never attached: a full workload emits no events...
    workload();
    EXPECT_EQ(sink.totalEmitted(), 0u);

    // ...while the latency histograms, which belong to the layers
    // and not to the sink, fill all the same.
    MetricsRegistry::Snapshot snap = kernel->vm->metricsSnapshot();
    LatencyHistogram faults = snap.histogram("vm.fault_ns");
    EXPECT_GT(faults.count(), 0u);
    EXPECT_EQ(faults.count(), kernel->vm->stats.faults);
    EXPECT_EQ(faults, kernel->vm->statistics().faultLatency);
    EXPECT_GT(snap.histogram("pmap.op_ns").count(), 0u);
}

TEST_F(TraceKernelTest, DetachStopsEmission)
{
    kernel->machine.clock().setTraceSink(&sink);
    workload();
    std::uint64_t mid = sink.totalEmitted();
    EXPECT_GT(mid, 0u);
    std::uint64_t faults_mid = kernel->vm->stats.faultLatency.count();
    EXPECT_GT(faults_mid, 0u);

    kernel->machine.clock().setTraceSink(nullptr);
    workload();
    EXPECT_EQ(sink.totalEmitted(), mid);
    // Detaching the sink does not stop the histograms.
    EXPECT_GT(kernel->vm->stats.faultLatency.count(), faults_mid);
}

TEST_F(TraceKernelTest, EventsOrderedBySimulatedTime)
{
    kernel->machine.clock().setTraceSink(&sink);
    workload();
    Task *child = kernel->taskFork(*task);
    workload();
    kernel->taskTerminate(child);

    ASSERT_GT(sink.size(), 0u);
    for (std::size_t i = 1; i < sink.size(); ++i) {
        EXPECT_LE(sink.at(i - 1).time, sink.at(i).time)
            << "event " << i << " ("
            << traceEventName(sink.at(i).type)
            << ") out of order after "
            << traceEventName(sink.at(i - 1).type);
    }
    EXPECT_LE(sink.at(sink.size() - 1).time,
              kernel->machine.clock().now());
    kernel->machine.clock().setTraceSink(nullptr);
}

TEST_F(TraceKernelTest, CowFaultEventSequence)
{
    // Build a writable page in the parent before tracing starts.
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, page, true),
              KernReturn::Success);
    auto data = test::pattern(64);
    ASSERT_EQ(kernel->taskWrite(*task, addr, data.data(), data.size()),
              KernReturn::Success);

    kernel->machine.clock().setTraceSink(&sink);

    // Fork write-protects the parent's resident mappings, which must
    // show up as a protect plus a TLB-consistency request.
    std::uint64_t cow0 = kernel->vm->stats.cowFaults;
    Task *child = kernel->taskFork(*task);
    std::size_t fork_end = sink.size();

    // First write in the child: the copy-on-write fault proper.
    std::uint8_t byte = 0x5a;
    ASSERT_EQ(kernel->taskWrite(*child, addr, &byte, 1),
              KernReturn::Success);
    EXPECT_EQ(kernel->vm->stats.cowFaults, cow0 + 1);
    ASSERT_EQ(sink.totalDropped(), 0u)
        << "test workload must fit in the default ring";

    auto findFrom = [&](std::size_t from, TraceEventType type,
                        std::uint64_t arg0, int detail) {
        for (std::size_t i = from; i < sink.size(); ++i) {
            const TraceRecord &r = sink.at(i);
            if (r.type != type)
                continue;
            if (arg0 != ~std::uint64_t(0) && r.arg0 != arg0)
                continue;
            if (detail >= 0 && r.detail != detail)
                continue;
            return i;
        }
        return sink.size();
    };
    const auto any = ~std::uint64_t(0);

    // The fork window: pmap_copy_on_write on the parent's page plus
    // the shootdown request that keeps remote TLBs consistent.
    std::size_t prot = findFrom(0, TraceEventType::PmapCow, any, -1);
    ASSERT_LT(prot, fork_end) << "fork did not write-protect";
    std::size_t shoot = findFrom(0, TraceEventType::Shootdown, any, -1);
    ASSERT_LT(shoot, fork_end) << "fork protect sent no shootdown";

    // The fault window: begin(write) -> mapping entered -> end(cow).
    std::size_t begin =
        findFrom(fork_end, TraceEventType::FaultBegin, addr,
                 static_cast<int>(FaultType::Write));
    ASSERT_LT(begin, sink.size()) << "no write FaultBegin for the COW";
    std::size_t enter =
        findFrom(begin, TraceEventType::PmapEnter, addr, -1);
    ASSERT_LT(enter, sink.size()) << "COW fault entered no mapping";
    std::size_t end =
        findFrom(enter, TraceEventType::FaultEnd, addr,
                 static_cast<int>(TraceFaultKind::Cow));
    ASSERT_LT(end, sink.size()) << "no FaultEnd with kind=cow";

    // The resolution latency rides in arg1 and lands in the fault
    // histogram.
    EXPECT_GT(sink.at(end).arg1, 0u);
    EXPECT_GT(kernel->vm->stats.faultLatency.count(), 0u);
    EXPECT_GT(kernel->pmaps->pmapOpLatency.count(), 0u);

    kernel->machine.clock().setTraceSink(nullptr);
    kernel->taskTerminate(child);
}

} // namespace
} // namespace mach
