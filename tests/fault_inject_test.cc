/**
 * @file
 * Fault-injection tests: the error paths of the machine-independent
 * layer.  The paper claims the VM system can always rebuild state
 * "from machine-independent data structures alone"; these tests
 * inject deterministic read/write errors, timeouts and latency
 * spikes into the simulated disks and pagers and assert that the
 * fault handler, the pageout daemon and the file I/O paths degrade
 * gracefully: transient errors recover after bounded retries with
 * exponential backoff, permanent errors surface KERN_MEMORY_ERROR
 * without leaking busy pages or pagingInProgress counts, and failed
 * pageouts keep their data resident and dirty.
 */

#include <cstdlib>
#include <tuple>

#include <gtest/gtest.h>

#include "kern/kernel.hh"
#include "pager/external_pager.hh"
#include "pager/net_pager.hh"
#include "sim/fault_inject.hh"
#include "sim/trace.hh"
#include "test_util.hh"
#include "vm/vm_map.hh"
#include "vm/vm_object.hh"
#include "vm/vm_user.hh"

namespace mach
{
namespace
{

/** A plan where every read-side operation fails transiently once. */
FaultPlan
transientReadPlan(std::uint64_t seed = 1, unsigned attempts = 1)
{
    FaultPlan plan;
    plan.seed = seed;
    plan.readErrorRate = 1.0;
    plan.transientAttempts = attempts;
    return plan;
}

// ---------------------------------------------------------------
// FaultInjector unit tests
// ---------------------------------------------------------------

TEST(FaultInjector, DisabledInjectorAlwaysDecidesOk)
{
    FaultInjector inj;
    EXPECT_FALSE(inj.enabled());
    for (std::uint64_t key = 0; key < 64; ++key)
        EXPECT_EQ(inj.decide(FaultOp::DiskRead, key), PagerResult::Ok);
    EXPECT_EQ(inj.injectedErrors(), 0u);
    EXPECT_EQ(inj.latencySpikes(), 0u);
}

TEST(FaultInjector, DecisionsAreOrderIndependent)
{
    // The outcome for a site is a pure hash of (seed, op, key): two
    // injectors visiting the same sites in opposite orders agree.
    FaultPlan plan;
    plan.seed = 99;
    plan.readErrorRate = 0.5;
    plan.writeErrorRate = 0.5;
    plan.permanentFraction = 0.5;
    FaultInjector fwd(plan), rev(plan);

    constexpr std::uint64_t n = 64;
    PagerResult first[n];
    for (std::uint64_t k = 0; k < n; ++k)
        first[k] = fwd.decide(FaultOp::DiskRead, k * 512);
    for (std::uint64_t k = n; k-- > 0;) {
        EXPECT_EQ(rev.decide(FaultOp::DiskRead, k * 512), first[k])
            << "site " << k;
    }
    // Sanity: a 50% rate over 64 sites hits both outcomes.
    EXPECT_GT(fwd.injectedErrors(), 0u);
    EXPECT_LT(fwd.injectedErrors(), n);
}

TEST(FaultInjector, ReadAndWritePathsUseTheirOwnRates)
{
    FaultPlan plan;
    plan.readErrorRate = 1.0;
    plan.writeErrorRate = 0.0;
    plan.permanentFraction = 1.0;
    FaultInjector inj(plan);
    EXPECT_EQ(inj.decide(FaultOp::DiskRead, 0),
              PagerResult::PermanentError);
    EXPECT_EQ(inj.decide(FaultOp::DiskWrite, 0), PagerResult::Ok);
    EXPECT_EQ(inj.decide(FaultOp::PagerOut, 0), PagerResult::Ok);
    EXPECT_EQ(inj.injectedErrorsFor(FaultOp::DiskRead), 1u);
    EXPECT_EQ(inj.injectedErrorsFor(FaultOp::DiskWrite), 0u);
}

TEST(FaultInjector, TransientSitesHealAfterConfiguredAttempts)
{
    FaultInjector inj(transientReadPlan(1, 3));
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(inj.decide(FaultOp::DiskRead, 4096),
                  PagerResult::TransientError) << "attempt " << i;
    }
    EXPECT_EQ(inj.sitesHealed(), 1u);
    // Healed: every later attempt on the site succeeds.
    EXPECT_EQ(inj.decide(FaultOp::DiskRead, 4096), PagerResult::Ok);
    EXPECT_EQ(inj.decide(FaultOp::DiskRead, 4096), PagerResult::Ok);
    EXPECT_EQ(inj.injectedErrors(), 3u);

    // reset() forgets the attempt history: the site fails again.
    inj.reset();
    EXPECT_EQ(inj.decide(FaultOp::DiskRead, 4096),
              PagerResult::TransientError);
}

TEST(FaultInjector, PermanentSitesNeverHeal)
{
    FaultPlan plan = transientReadPlan();
    plan.permanentFraction = 1.0;
    FaultInjector inj(plan);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(inj.decide(FaultOp::PagerIn, 512),
                  PagerResult::PermanentError);
    }
    EXPECT_EQ(inj.sitesHealed(), 0u);
}

TEST(FaultInjector, TimeoutFractionReportsTimeouts)
{
    FaultPlan plan = transientReadPlan(1, 1000);
    plan.timeoutFraction = 1.0;
    FaultInjector inj(plan);
    EXPECT_EQ(inj.decide(FaultOp::NetFetch, 0), PagerResult::Timeout);
    EXPECT_EQ(inj.injectedTimeouts(), 1u);
}

TEST(FaultInjector, LatencySpikesChargeTheClock)
{
    FaultPlan plan;
    plan.latencySpikeRate = 1.0;
    plan.latencySpikeNs = 12345;
    FaultInjector inj(plan);
    ASSERT_TRUE(inj.enabled());

    SimClock clock;
    EXPECT_EQ(inj.decide(FaultOp::DiskRead, 0, &clock),
              PagerResult::Ok);
    EXPECT_EQ(clock.now(), 12345u);
    EXPECT_EQ(clock.kindTotal(CostKind::Disk), 12345u);
    EXPECT_EQ(inj.latencySpikes(), 1u);
    EXPECT_EQ(inj.injectedErrors(), 0u);

    // Without a clock the decision is unchanged and nothing charges.
    EXPECT_EQ(inj.decide(FaultOp::DiskRead, 512), PagerResult::Ok);
    EXPECT_EQ(clock.now(), 12345u);
}

TEST(FaultInjector, MaxInjectionsCapsTheCampaign)
{
    FaultPlan plan = transientReadPlan(1, 1000);
    plan.maxInjections = 2;
    FaultInjector inj(plan);
    EXPECT_NE(inj.decide(FaultOp::DiskRead, 0), PagerResult::Ok);
    EXPECT_NE(inj.decide(FaultOp::DiskRead, 512), PagerResult::Ok);
    EXPECT_EQ(inj.decide(FaultOp::DiskRead, 1024), PagerResult::Ok);
    EXPECT_EQ(inj.injectedErrors(), 2u);
}

// ---------------------------------------------------------------
// VmSys backoff schedule
// ---------------------------------------------------------------

TEST(RetryBackoff, DoublesUpToTheCap)
{
    MachineSpec spec = test::tinySpec(ArchType::Vax, 1);
    Kernel kernel(spec);
    VmSys &vm = *kernel.vm;
    vm.retryBackoffBase = 100000;   // 100us
    vm.retryBackoffCap = 1600000;   // 1.6ms = base << 4

    EXPECT_EQ(vm.retryBackoff(1), 100000u);
    EXPECT_EQ(vm.retryBackoff(2), 200000u);
    EXPECT_EQ(vm.retryBackoff(3), 400000u);
    EXPECT_EQ(vm.retryBackoff(5), 1600000u);
    EXPECT_EQ(vm.retryBackoff(6), 1600000u);   // capped
    EXPECT_EQ(vm.retryBackoff(40), 1600000u);  // no overflow
}

// ---------------------------------------------------------------
// Pagein error paths (vnode pager through fileRead / faults)
// ---------------------------------------------------------------

class FaultInjectKernel : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        spec = test::tinySpec(ArchType::Vax, 2);
        kernel = std::make_unique<Kernel>(spec);
        page = kernel->pageSize();
    }

    MachineSpec spec;
    std::unique_ptr<Kernel> kernel;
    VmSize page = 0;
};

TEST_F(FaultInjectKernel, TransientPageinRecoversOnRetry)
{
    VmSize len = 16 * page;
    kernel->createPatternFile("data", len, 7);
    // Injection starts after the file exists on disk; every disk
    // read site then fails exactly once.
    kernel->setFaultPlan(transientReadPlan(3, 1));

    std::vector<std::uint8_t> out(len);
    VmSize got = 0;
    ASSERT_EQ(kernel->fileRead("data", 0, out.data(), len, &got),
              KernReturn::Success);
    EXPECT_EQ(got, len);
    EXPECT_EQ(out, test::pattern(len, 7));

    const VmStatistics &st = kernel->vm->stats;
    EXPECT_GT(st.ioErrors, 0u);
    EXPECT_GT(st.pageinRetries, 0u);
    EXPECT_GT(st.transientRecoveries, 0u);
    EXPECT_EQ(st.pageinFailures, 0u);
    EXPECT_GT(kernel->faultInjector.sitesHealed(), 0u);
}

TEST_F(FaultInjectKernel, RetriesBackOffInSimulatedTime)
{
    VmSize len = 4 * page;
    kernel->createPatternFile("data", len, 7);

    // Baseline: the same read with injection disabled.
    SimTime clean_start = kernel->now();
    std::vector<std::uint8_t> out(len);
    VmSize got = 0;
    ASSERT_EQ(kernel->fileRead("data", 0, out.data(), len, &got),
              KernReturn::Success);
    SimTime clean = kernel->now() - clean_start;

    // A second kernel runs the same workload with every site failing
    // twice: each recovery costs at least backoff(1) + backoff(2).
    auto k2 = std::make_unique<Kernel>(spec);
    k2->createPatternFile("data", len, 7);
    k2->setFaultPlan(transientReadPlan(3, 2));
    SimTime start = k2->now();
    ASSERT_EQ(k2->fileRead("data", 0, out.data(), len, &got),
              KernReturn::Success);
    SimTime faulty = k2->now() - start;

    const VmSys &vm = *k2->vm;
    std::uint64_t recoveries = vm.stats.transientRecoveries;
    ASSERT_GT(recoveries, 0u);
    SimTime min_backoff =
        recoveries * (vm.retryBackoff(1) + vm.retryBackoff(2));
    EXPECT_GE(faulty, clean + min_backoff);
}

TEST_F(FaultInjectKernel, PermanentPageinFailureSurfacesMemoryError)
{
    VmSize len = 8 * page;
    kernel->createPatternFile("data", len, 7);
    FaultPlan plan = transientReadPlan(5);
    plan.permanentFraction = 1.0;
    kernel->setFaultPlan(plan);

    std::vector<std::uint8_t> out(len);
    VmSize got = ~VmSize(0);
    EXPECT_EQ(kernel->fileRead("data", 0, out.data(), len, &got),
              KernReturn::MemoryError);
    EXPECT_EQ(got, 0u);

    const VmStatistics &st = kernel->vm->stats;
    EXPECT_GT(st.pageinFailures, 0u);
    EXPECT_GT(st.ioErrors, 0u);
    // Permanent errors must not burn the retry budget.
    EXPECT_EQ(st.pageinRetries, 0u);

    // Nothing leaked: the file object is back in the cache with no
    // pagein in progress and no half-filled (busy/absent) page.
    VmObject *obj =
        kernel->vm->objectForPager(kernel->pagerForFile("data"));
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(obj->pagingInProgress, 0u);
    EXPECT_EQ(obj->residentCount, 0u);
    EXPECT_EQ(kernel->vm->resident.lookup(obj, 0), nullptr);
}

TEST_F(FaultInjectKernel, MappedFileFaultReportsErrorToThread)
{
    VmSize len = 4 * page;
    kernel->createPatternFile("data", len, 9);

    Task *task = kernel->taskCreate();
    VmOffset addr = 0;
    VmSize size = 0;
    ASSERT_EQ(kernel->mapFile(*task, "data", &addr, &size),
              KernReturn::Success);

    TraceSink sink;
    kernel->machine.clock().setTraceSink(&sink);

    FaultPlan plan = transientReadPlan(5);
    plan.permanentFraction = 1.0;
    kernel->setFaultPlan(plan);

    // The fault cannot be satisfied: the thread sees an error, not a
    // kernel panic.
    std::uint8_t b = 0;
    EXPECT_EQ(kernel->taskRead(*task, addr, &b, 1),
              KernReturn::MemoryError);
    EXPECT_GT(kernel->vm->stats.pageinFailures, 0u);

    kernel->machine.clock().setTraceSink(nullptr);
    bool saw_io_error = false, saw_fault_error = false;
    for (std::size_t i = 0; i < sink.size(); ++i) {
        const TraceRecord &r = sink.at(i);
        if (r.type == TraceEventType::IoError)
            saw_io_error = true;
        if (r.type == TraceEventType::FaultEnd &&
            r.detail ==
                static_cast<std::uint8_t>(TraceFaultKind::Error)) {
            saw_fault_error = true;
        }
    }
    EXPECT_TRUE(saw_io_error);
    EXPECT_TRUE(saw_fault_error);

    // The mapping itself is intact; disabling injection makes the
    // same access succeed.
    kernel->setFaultPlan(FaultPlan{});
    EXPECT_EQ(kernel->taskRead(*task, addr, &b, 1),
              KernReturn::Success);
    kernel->taskTerminate(task);
}

TEST_F(FaultInjectKernel, SameSeedRunsAreBitIdentical)
{
    auto run = [&](std::uint64_t seed) {
        auto k = std::make_unique<Kernel>(spec);
        VmSize len = 16 * k->pageSize();
        k->createPatternFile("data", len, 7);
        FaultPlan plan;
        plan.seed = seed;
        plan.readErrorRate = 0.5;
        plan.transientAttempts = 2;
        k->setFaultPlan(plan);
        std::vector<std::uint8_t> out(len);
        VmSize got = 0;
        EXPECT_EQ(k->fileRead("data", 0, out.data(), len, &got),
                  KernReturn::Success);
        const VmStatistics &st = k->vm->stats;
        return std::make_tuple(k->now(), st.ioErrors, st.pageinRetries,
                               st.transientRecoveries,
                               k->faultInjector.injectedErrors());
    };

    auto a = run(1234), b = run(1234);
    EXPECT_EQ(a, b);
    EXPECT_GT(std::get<1>(a), 0u);  // the campaign actually injected
}

// ---------------------------------------------------------------
// Pageout error paths (default pager / swap)
// ---------------------------------------------------------------

TEST_F(FaultInjectKernel, TransientPageoutRetriesAndRecovers)
{
    VmSys &vm = *kernel->vm;
    VmObject *obj = VmObject::allocate(vm, 2 * page);
    VmPage *p = vm.objectPage(obj, 0, true);
    ASSERT_NE(p, nullptr);
    std::vector<std::uint8_t> fill(page, 0x5a);
    kernel->machine.memory().write(p->physAddr, fill.data(), page);

    FaultPlan plan;
    plan.seed = 11;
    plan.writeErrorRate = 1.0;
    plan.transientAttempts = 1;
    kernel->setFaultPlan(plan);

    vm.pageOut(p);

    const VmStatistics &st = vm.stats;
    EXPECT_GT(st.pageoutRetries, 0u);
    EXPECT_GT(st.transientRecoveries, 0u);
    EXPECT_EQ(st.pageouts, 1u);
    EXPECT_EQ(vm.resident.lookup(obj, 0), nullptr);  // really left
    EXPECT_EQ(kernel->defaultPager.pagesOnSwap(), 1u);

    // The data survives the round trip back from swap.
    VmPage *back = vm.objectPage(obj, 0, false);
    ASSERT_NE(back, nullptr);
    std::vector<std::uint8_t> out(page);
    kernel->machine.memory().read(back->physAddr, out.data(), page);
    EXPECT_EQ(out, fill);
    obj->deallocate();
}

TEST_F(FaultInjectKernel, PermanentPageoutFailureKeepsPageDirty)
{
    VmSys &vm = *kernel->vm;
    VmObject *obj = VmObject::allocate(vm, 2 * page);
    VmPage *p = vm.objectPage(obj, 0, true);
    ASSERT_NE(p, nullptr);
    std::vector<std::uint8_t> fill(page, 0xc3);
    kernel->machine.memory().write(p->physAddr, fill.data(), page);

    FaultPlan plan;
    plan.seed = 11;
    plan.writeErrorRate = 1.0;
    plan.permanentFraction = 1.0;
    kernel->setFaultPlan(plan);

    std::uint64_t pageouts0 = vm.stats.pageouts;
    vm.pageOut(p);

    // The page was not freed: still resident, dirty, reactivated.
    EXPECT_EQ(vm.resident.lookup(obj, 0), p);
    EXPECT_TRUE(p->dirty);
    EXPECT_EQ(p->queue, PageQueue::Active);
    EXPECT_EQ(vm.stats.pageouts, pageouts0);
    EXPECT_GT(vm.stats.ioErrors, 0u);
    EXPECT_EQ(kernel->defaultPager.pagesOnSwap(), 0u);

    std::vector<std::uint8_t> out(page);
    kernel->machine.memory().read(p->physAddr, out.data(), page);
    EXPECT_EQ(out, fill);
    obj->deallocate();
}

// ---------------------------------------------------------------
// wireRange rollback (satellite bugfix)
// ---------------------------------------------------------------

TEST_F(FaultInjectKernel, WireRangeRollsBackOnMidRangeFailure)
{
    VmSize len = 4 * page;
    kernel->createPatternFile("data", len, 13);

    Task *task = kernel->taskCreate();
    VmOffset addr = 0;
    VmSize size = 0;
    ASSERT_EQ(kernel->mapFile(*task, "data", &addr, &size),
              KernReturn::Success);

    // Pre-fault the front of the range so the failure lands mid-way.
    std::vector<std::uint8_t> buf(2 * page);
    ASSERT_EQ(kernel->taskRead(*task, addr, buf.data(), 2 * page),
              KernReturn::Success);

    std::size_t wired0 = kernel->vm->resident.wiredCount();

    FaultPlan plan = transientReadPlan(5);
    plan.permanentFraction = 1.0;
    kernel->setFaultPlan(plan);

    // Page 2 needs a pagein, which fails hard: the whole wire must
    // unwind, including pages 0-1 that were already wired.
    EXPECT_EQ(kernel->vm->wireRange(task->map(), addr,
                                    addr + 3 * page),
              KernReturn::MemoryError);
    EXPECT_EQ(kernel->vm->resident.wiredCount(), wired0);

    // With injection off the identical wire succeeds.
    kernel->setFaultPlan(FaultPlan{});
    EXPECT_EQ(kernel->vm->wireRange(task->map(), addr,
                                    addr + 3 * page),
              KernReturn::Success);
    EXPECT_EQ(kernel->vm->resident.wiredCount(), wired0 + 3);

    kernel->taskTerminate(task);
    EXPECT_EQ(kernel->vm->resident.wiredCount(), wired0);
}

// ---------------------------------------------------------------
// Busy-page wait (satellite bugfix: no MACH_ASSERT on busy pages)
// ---------------------------------------------------------------

TEST_F(FaultInjectKernel, FaultWaitsOutBusyPageAndGivesUpIfWedged)
{
    Task *task = kernel->taskCreate();
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, 2 * page, true),
              KernReturn::Success);
    std::vector<std::uint8_t> data(page, 0x42);
    ASSERT_EQ(kernel->taskWrite(*task, addr, data.data(), page),
              KernReturn::Success);

    VmMap::LookupResult lr;
    ASSERT_EQ(task->map().lookup(addr, FaultType::Read, lr),
              KernReturn::Success);
    VmPage *p = kernel->vm->resident.lookup(lr.object, lr.offset);
    ASSERT_NE(p, nullptr);

    // A wedged pager never clears busy: the fault waits a bounded
    // number of ticks and reports an error instead of asserting.
    kernel->vm->busyWaitLimit = 4;
    p->busy = true;
    std::uint64_t waits0 = kernel->vm->stats.busyPageWaits;
    EXPECT_EQ(kernel->vm->fault(task->map(), addr, FaultType::Read),
              KernReturn::MemoryError);
    EXPECT_EQ(kernel->vm->stats.busyPageWaits, waits0 + 4);

    // Once the holder finishes, the same fault succeeds.
    p->busy = false;
    EXPECT_EQ(kernel->vm->fault(task->map(), addr, FaultType::Read),
              KernReturn::Success);
    kernel->taskTerminate(task);
}

// ---------------------------------------------------------------
// Network pager: retry + timeout
// ---------------------------------------------------------------

class NetFaultTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        home = std::make_unique<Kernel>(
            test::tinySpec(ArchType::Vax, 4));
        away = std::make_unique<Kernel>(
            test::tinySpec(ArchType::RtPc, 4));
        server = std::make_unique<NetMemoryServer>(*home);

        VmSize page = away->pageSize();
        size = 4 * page;
        Task *owner = home->taskCreate();
        VmOffset haddr = 0;
        ASSERT_EQ(owner->map().allocate(&haddr, size, true),
                  KernReturn::Success);
        data = test::pattern(size, 71);
        ASSERT_EQ(home->taskWrite(*owner, haddr, data.data(), size),
                  KernReturn::Success);
        handle = server->exportRegion(*owner, haddr, size);
        ASSERT_NE(handle, NetMemoryServer::kNoExport);
    }

    std::unique_ptr<Kernel> home, away;
    std::unique_ptr<NetMemoryServer> server;
    NetExportId handle = 0;
    VmSize size = 0;
    std::vector<std::uint8_t> data;
};

TEST_F(NetFaultTest, TransientFetchFailuresAreRetriedOnTheSpot)
{
    NetPager pager(*away, *server, handle);
    FaultInjector inj(transientReadPlan(21, 2));
    pager.setFaultInjector(&inj);

    Task *visitor = away->taskCreate();
    VmOffset vaddr = 0;
    ASSERT_EQ(vmAllocateWithPager(*away->vm, visitor->map(), &vaddr,
                                  size, true, &pager, 0),
              KernReturn::Success);

    SimTime start = away->now();
    std::vector<std::uint8_t> out(size);
    ASSERT_EQ(away->taskRead(*visitor, vaddr, out.data(), size),
              KernReturn::Success);
    EXPECT_EQ(out, data);

    // Each page took 2 failed round trips before succeeding, all
    // inside dataRequest (below the VM layer's own retry loop).
    VmSize pages = size / away->pageSize();
    EXPECT_EQ(pager.pagesFetched, pages);
    EXPECT_EQ(pager.fetchRetries, 2 * pages);
    EXPECT_EQ(pager.fetchTimeouts, 0u);
    EXPECT_EQ(away->vm->stats.pageinRetries, 0u);
    // The wasted round trips cost simulated network time.
    NetworkLink link;
    EXPECT_GE(away->now() - start, 2 * pages * link.latency);
    away->taskTerminate(visitor);
}

TEST_F(NetFaultTest, UnreachableServerTimesOutBounded)
{
    NetPager pager(*away, *server, handle);
    // More consecutive failures than the pager and the VM layer will
    // together retry: the fetch must give up, not spin.
    FaultInjector inj(transientReadPlan(21, 1000));
    pager.setFaultInjector(&inj);

    Task *visitor = away->taskCreate();
    VmOffset vaddr = 0;
    ASSERT_EQ(vmAllocateWithPager(*away->vm, visitor->map(), &vaddr,
                                  size, true, &pager, 0),
              KernReturn::Success);

    std::uint8_t b = 0;
    EXPECT_EQ(away->taskRead(*visitor, vaddr, &b, 1),
              KernReturn::MemoryError);
    EXPECT_GT(pager.fetchTimeouts, 0u);
    EXPECT_GT(away->vm->stats.pageinFailures, 0u);
    // Bounded: the VM layer retried the whole fetch at most its
    // pagein budget, each fetch at most fetchRetryLimit round trips.
    EXPECT_LE(pager.fetchTimeouts, away->vm->pageinRetryLimit);
    EXPECT_EQ(pager.pagesFetched, 0u);
    away->taskTerminate(visitor);
}

// ---------------------------------------------------------------
// External pager: injected message-exchange failures
// ---------------------------------------------------------------

TEST(ExternalPagerFault, InjectedExchangeFailureSurfacesToThread)
{
    MachineSpec spec = test::tinySpec(ArchType::Vax, 4);
    auto kernel = std::make_unique<Kernel>(spec);
    VmSize page = kernel->pageSize();
    Task *task = kernel->taskCreate();

    ExternalPager proxy(*kernel, "flaky-pager");
    auto backing = test::pattern(page, 40);
    proxy.setService([&](ExternalPager &p) {
        while (auto msg = p.objectPort().receive()) {
            if (static_cast<MsgId>(msg->id) == MsgId::PagerDataRequest)
                p.pagerDataProvided(msg->word(0), backing.data(),
                                    backing.size(), VmProt::None);
        }
    });

    FaultPlan plan = transientReadPlan(31);
    plan.permanentFraction = 1.0;
    FaultInjector inj(plan);
    proxy.setFaultInjector(&inj);

    VmOffset addr = 0;
    ASSERT_EQ(vmAllocateWithPager(*kernel->vm, task->map(), &addr,
                                  4 * page, true, &proxy, 0),
              KernReturn::Success);
    std::uint8_t b = 0;
    EXPECT_EQ(kernel->taskRead(*task, addr, &b, 1),
              KernReturn::MemoryError);
    EXPECT_GT(inj.injectedErrorsFor(FaultOp::ExtRequest), 0u);

    // Detaching the injector restores service.
    proxy.setFaultInjector(nullptr);
    ASSERT_EQ(kernel->taskRead(*task, addr, &b, 1),
              KernReturn::Success);
    EXPECT_EQ(b, backing[0]);

    kernel.reset();  // kernel before proxy (object termination)
}

// ---------------------------------------------------------------
// End-to-end: a realistic error rate must not break a workload
// ---------------------------------------------------------------

TEST(FaultInjectWorkload, OnePercentErrorRateCompletesCleanly)
{
    MachineSpec spec = test::tinySpec(ArchType::Vax, 2);
    Kernel kernel(spec);
    VmSize page = kernel.pageSize();

    VmSize len = 512 * 1024;
    kernel.createPatternFile("data", len, 17);
    auto expect = test::pattern(len, 17);

    FaultPlan plan;
    plan.seed = 42;
    plan.readErrorRate = 0.01;
    plan.writeErrorRate = 0.01;
    plan.transientAttempts = 1;
    // CI stress runs turn the dial up an order of magnitude.
    if (std::getenv("MACHVM_FAULT_STRESS") != nullptr) {
        plan.readErrorRate = 0.10;
        plan.writeErrorRate = 0.10;
        plan.transientAttempts = 2;
    }
    kernel.setFaultPlan(plan);

    // Re-read the whole file (paging through the vnode pager under
    // memory pressure), then run a fork/write workload that drives
    // the pageout daemon and swap.
    std::vector<std::uint8_t> out(len);
    for (int pass = 0; pass < 2; ++pass) {
        VmSize got = 0;
        ASSERT_EQ(kernel.fileRead("data", 0, out.data(), len, &got),
                  KernReturn::Success);
        ASSERT_EQ(got, len);
        ASSERT_EQ(out, expect);
    }

    Task *task = kernel.taskCreate();
    VmOffset addr = 0;
    VmSize region = 256 * page;
    ASSERT_EQ(task->map().allocate(&addr, region, true),
              KernReturn::Success);
    auto body = test::pattern(region, 5);
    ASSERT_EQ(kernel.taskWrite(*task, addr, body.data(), region),
              KernReturn::Success);
    for (int gen = 0; gen < 4; ++gen) {
        Task *child = kernel.taskFork(*task);
        auto patch = test::pattern(region / 4, 50 + gen);
        VmOffset at = addr + (gen % 4) * (region / 4);
        ASSERT_EQ(kernel.taskWrite(*child, at, patch.data(),
                                   patch.size()),
                  KernReturn::Success);
        std::copy(patch.begin(), patch.end(),
                  body.begin() + (at - addr));
        kernel.taskTerminate(task);
        task = child;
    }
    std::vector<std::uint8_t> check(region);
    ASSERT_EQ(kernel.taskRead(*task, addr, check.data(), region),
              KernReturn::Success);
    EXPECT_EQ(check, body);

    // The campaign really ran, every error healed, nothing failed
    // hard, and no page or pagingInProgress count leaked.
    const VmStatistics &st = kernel.vm->stats;
    EXPECT_GT(kernel.faultInjector.injectedErrors(), 0u);
    EXPECT_GT(st.transientRecoveries, 0u);
    EXPECT_EQ(st.pageinFailures, 0u);
    kernel.taskTerminate(task);
    kernel.vm->flushCache();
    EXPECT_EQ(kernel.vm->liveObjects, 0u);
}

} // namespace
} // namespace mach
