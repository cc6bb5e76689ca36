/**
 * @file
 * smp: an Encore MultiMax with 4 simulated CPUs (NS32082 pmap, 32-entry
 * TLBs).  One task has a thread on every CPU.  In each round every CPU
 * touches, in a seeded order, a working set larger than its TLB with
 * reads and writes and stamps its own slot; CPU 0 then write-protects
 * the region and restores it under Immediate shootdown and takes a
 * timer tick.  In seeded rounds (one in kForkEvery on average) CPU 0
 * also forks and terminates a child and deallocates and reallocates
 * the scratch region.
 *
 * One step is one round.  There is no pageout and no disk.
 */

#include <vector>

#include "calls.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace mach;

namespace
{

constexpr unsigned kCpus = 4;
constexpr unsigned kRegionPages = 48; //!< > the 32-entry TLB
constexpr unsigned kScratchPages = 8;
constexpr unsigned kForkEvery = 8;

} // namespace

PassResult
runSmp(Ctx &ctx, std::uint64_t seed, unsigned steps)
{
    PassResult r;
    std::uint64_t t0 = hostNs();

    MachineSpec spec = MachineSpec::encoreMultimax(kCpus);
    spec.physMemBytes = 8ull << 20;
    Kernel kernel(spec);
    kernel.pmaps->policy.protect = ShootdownMode::Immediate;
    Calls call(ctx, kernel);
    Machine &m = kernel.machine;
    const VmSize page = kernel.pageSize();
    Lcg rng(seed);

    Task *task = call.taskCreate();
    if (!task)
        return r;
    for (CpuId c = 0; c < kCpus; ++c) {
        kernel.threadCreate(*task);
        kernel.switchTo(task, c);
    }
    VmOffset region = 0, scratch = 0;
    call.allocate(*task, &region, kRegionPages * page);
    call.allocate(*task, &scratch, kScratchPages * page);

    // Every page of both regions, in an order reshuffled per CPU and
    // round; the first kCpus region pages hold the CPUs' slots.
    std::vector<VmOffset> order(kRegionPages + kScratchPages);
    for (unsigned i = 0; i < kRegionPages; ++i)
        order[i] = region + i * page;
    for (unsigned i = 0; i < kScratchPages; ++i)
        order[kRegionPages + i] = scratch + i * page;
    auto slot = [&](CpuId c) { return region + c * page; };

    for (CpuId c = 0; c < kCpus; ++c) {
        m.setCurrentCpu(c);
        call.hwTouch(c, region, kRegionPages * page, AccessType::Write);
        call.hwTouch(c, scratch, kScratchPages * page, AccessType::Write);
    }
    m.setCurrentCpu(0);

    std::uint64_t stamp[kCpus] = {};
    SimCounters before = readCounters(kernel, {});
    std::uint64_t t1 = hostNs();
    for (unsigned round = 0; round < steps; ++round) {
        ctx.beginStep();
        for (CpuId c = 0; c < kCpus; ++c) {
            m.setCurrentCpu(c);
            for (std::size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[rng.nextBelow(unsigned(i))]);
            for (VmOffset va : order) {
                AccessType type = rng.nextBelow(4) == 0
                                      ? AccessType::Write
                                      : AccessType::Read;
                call.hwTouch(c, va, page, type);
            }
            stamp[c] = (std::uint64_t(round) << 8 | c) ^ seed;
            call.hwWrite(c, slot(c), &stamp[c], sizeof(stamp[c]));
        }
        m.setCurrentCpu(0);
        call.protect(*task, region, kRegionPages * page, VmProt::Read);
        call.protect(*task, region, kRegionPages * page, VmProt::Default);
        call.timerTick();
        if (rng.nextBelow(kForkEvery) == 0) {
            if (Task *child = call.fork(*task))
                call.terminate(child);
            call.deallocate(*task, scratch, kScratchPages * page);
            call.allocate(*task, &scratch, kScratchPages * page, false);
        }
        ctx.endStep();
    }
    std::uint64_t t2 = hostNs();
    r.sim = delta(readCounters(kernel, {}), before);
    r.setupSec = seconds(t0, t1);
    r.timedSec = seconds(t1, t2);
    r.steps = steps;

    // Each CPU's final read of its own slot and of its neighbour's
    // returns the last value written there.
    for (CpuId c = 0; c < kCpus; ++c) {
        m.setCurrentCpu(c);
        for (CpuId owner : {c, CpuId((c + 1) % kCpus)}) {
            std::uint64_t v = ~stamp[owner];
            call.hwRead(c, slot(owner), &v, sizeof(v));
            ctx.check(v == stamp[owner], "smp: final read of a slot");
        }
    }
    m.setCurrentCpu(0);
    return r;
}

} // namespace perfbench
