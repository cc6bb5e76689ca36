#include "kern/kernel.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"
#include "vm/vm_object.hh"
#include "vm/vm_user.hh"

namespace mach
{

Kernel::Kernel(const MachineSpec &spec, KernelConfig cfg)
    : machine(spec),
      disk(machine.clock(), machine.spec.costs, cfg.diskBytes),
      swapDisk(machine.clock(), machine.spec.costs, cfg.swapBytes),
      fs(disk),
      defaultPager(machine, swapDisk,
                   spec.hwPageSize() * cfg.machPageMultiple),
      config(cfg)
{
    MACH_ASSERT(isPowerOf2(cfg.machPageMultiple));
    VmSize mach_page = spec.hwPageSize() * cfg.machPageMultiple;

    pmaps = PmapSystem::build(machine);
    pmaps->init(mach_page);
    vm = std::make_unique<VmSys>(machine, *pmaps, mach_page);
    vm->defaultPager = &defaultPager;
    vm->objectCacheLimit = cfg.objectCacheLimit;
    vm->cachedPageLimit = cfg.cachedPageLimit;
    disk.bindMetrics(vm->metrics, "disk.fs");
    swapDisk.bindMetrics(vm->metrics, "disk.swap");

    current.assign(machine.numCpus(), nullptr);

    // The kernel's own map, bound to the kernel pmap.  Kernel
    // mappings are always complete and accurate (section 3.6): its
    // pages are wired as they are allocated.
    kernMap = new VmMap(*vm, pmaps->kernelPmap(), mach_page,
                        machine.spec.effectiveVaLimit());

    if (cfg.faultPlan.enabled())
        setFaultPlan(cfg.faultPlan);

    // Bind the hardware fault path to the machine-independent fault
    // handler: the fault is resolved against the current task's map.
    machine.setFaultHandler(
        [this](CpuId cpu, VmOffset va, FaultType type) {
            Task *task = current[cpu];
            if (!task)
                return KernReturn::InvalidAddress;
            machine.setCurrentCpu(cpu);
            return vm->fault(task->map(), va, type);
        });
}

void
Kernel::setFaultPlan(const FaultPlan &plan)
{
    faultInjector.configure(plan);
    FaultInjector *inj =
        faultInjector.enabled() ? &faultInjector : nullptr;
    disk.setFaultInjector(inj);
    swapDisk.setFaultInjector(inj);
}

Kernel::~Kernel()
{
    while (!tasks.empty())
        taskTerminate(tasks.back().get());
    // Terminate cached memory objects (writing dirty pages back)
    // while the pagers and disks still exist; otherwise they are
    // leaked with the cache.
    vm->flushCache();
    kernMap->deallocateRef();
}

Task *
Kernel::taskCreate(Task *parent, bool inherit_memory)
{
    Pmap *pmap = pmaps->create();
    VmMap *map = nullptr;
    if (inherit_memory && parent) {
        machine.clock().charge(CostKind::Software,
                               machine.spec.costs.forkFixed);
        map = parent->map().fork(pmap);
    } else {
        map = new VmMap(*vm, pmap, pageSize(),
                        machine.spec.userVaLimit);
    }
    auto *task = new Task(*this, nextTaskId++, pmap, map);
    map->ownerTask = task->id();
    tasks.emplace_back(task);
    return task;
}

void
Kernel::taskTerminate(Task *task)
{
    MACH_ASSERT(task != nullptr);
    // Unbind from any CPU it is current on.
    for (unsigned cpu = 0; cpu < machine.numCpus(); ++cpu) {
        if (current[cpu] == task) {
            current[cpu] = nullptr;
            task->getPmap()->deactivate(cpu);
            machine.bindSpace(cpu, nullptr);
        }
    }
    // Tear down the address space: deallocating every region drops
    // object references and removes hardware mappings.
    VmMap &map = task->map();
    map.deallocate(map.minAddress(),
                   map.maxAddress() - map.minAddress());

    Pmap *pmap = task->getPmap();
    auto it = std::find_if(tasks.begin(), tasks.end(),
                           [&](const auto &t) {
                               return t.get() == task;
                           });
    MACH_ASSERT(it != tasks.end());
    tasks.erase(it);  // deletes the Task, which releases the map
    pmaps->destroy(pmap);
}

Thread *
Kernel::threadCreate(Task &task)
{
    auto thread = std::make_unique<Thread>(task, nextThreadId++);
    Thread *raw = thread.get();
    task.threads.push_back(std::move(thread));
    return raw;
}

void
Kernel::switchTo(Task *task, CpuId cpu)
{
    MACH_ASSERT(cpu < machine.numCpus());
    if (current[cpu] == task) {
        machine.setCurrentCpu(cpu);
        machine.clock().setTraceTask(task ? task->id() : 0);
        return;
    }
    if (current[cpu])
        current[cpu]->getPmap()->deactivate(cpu);
    current[cpu] = task;
    machine.setCurrentCpu(cpu);
    machine.clock().setTraceTask(task ? task->id() : 0);
    if (task) {
        // pmap_activate: machine-independent code informs the pmap
        // which processor is using which map (section 3.6).
        task->getPmap()->activate(cpu);
        machine.bindSpace(cpu, task->getPmap());
    } else {
        machine.bindSpace(cpu, nullptr);
    }
}

void
Kernel::maybeTick()
{
    if (++opsSinceTick >= timerInterval) {
        opsSinceTick = 0;
        machine.timerTick();
    }
}

KernReturn
Kernel::taskTouch(Task &task, VmOffset va, VmSize len, AccessType type)
{
    maybeTick();
    CpuId cpu = machine.currentCpu();
    switchTo(&task, cpu);
    return machine.touch(cpu, va, len, type);
}

KernReturn
Kernel::taskRead(Task &task, VmOffset va, void *buf, VmSize len)
{
    maybeTick();
    CpuId cpu = machine.currentCpu();
    switchTo(&task, cpu);
    return machine.read(cpu, va, buf, len);
}

KernReturn
Kernel::taskWrite(Task &task, VmOffset va, const void *buf, VmSize len)
{
    maybeTick();
    CpuId cpu = machine.currentCpu();
    switchTo(&task, cpu);
    return machine.write(cpu, va, buf, len);
}

FileId
Kernel::createFile(const std::string &name, const void *data, VmSize len)
{
    FileId id = fs.create(name);
    if (len)
        fs.write(id, 0, data, len);
    return id;
}

FileId
Kernel::createPatternFile(const std::string &name, VmSize len,
                          std::uint32_t seed)
{
    FileId id = fs.create(name);
    std::vector<std::uint8_t> block(SimFs::kBlockSize);
    std::uint32_t x = seed ? seed : 1;
    VmOffset off = 0;
    while (off < len) {
        VmSize chunk = std::min<VmSize>(len - off, block.size());
        for (VmSize i = 0; i < chunk; ++i) {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            block[i] = std::uint8_t(x);
        }
        fs.write(id, off, block.data(), chunk);
        off += chunk;
    }
    return id;
}

VnodePager *
Kernel::pagerForFile(const std::string &name)
{
    FileId id = fs.lookup(name);
    if (id == kNoFile)
        return nullptr;
    auto it = vnodePagers.find(id);
    if (it == vnodePagers.end()) {
        it = vnodePagers
                 .emplace(id, std::make_unique<VnodePager>(
                                  machine, fs, id, pageSize()))
                 .first;
    }
    return it->second.get();
}

VmObject *
Kernel::objectForFile(const std::string &name, VmSize *size_out)
{
    VnodePager *pager = pagerForFile(name);
    if (!pager)
        return nullptr;
    VmSize size = vm->pageRound(fs.size(pager->fileId()));
    if (size == 0)
        size = pageSize();
    if (size_out)
        *size_out = size;
    // canPersist: the inode pager uses its domain knowledge to ask
    // that file objects stay in the object cache (pager_cache).
    VmObject *obj = VmObject::allocateWithPager(*vm, size, pager, 0,
                                                true);
    if (obj->size < size)
        obj->size = size;  // file grew since the object was cached
    return obj;
}

KernReturn
Kernel::mapFile(Task &task, const std::string &name, VmOffset *addr,
                VmSize *size)
{
    VmSize obj_size = 0;
    VmObject *obj = objectForFile(name, &obj_size);
    if (!obj)
        return KernReturn::InvalidArgument;
    *size = obj_size;
    *addr = 0;
    KernReturn kr = task.map().allocateObject(
        addr, obj_size, true, obj, 0, false, VmProt::Default,
        VmProt::All, VmInherit::Copy);
    if (kr != KernReturn::Success)
        obj->deallocate();
    return kr;
}

KernReturn
Kernel::fileRead(const std::string &name, VmOffset offset, void *buf,
                 VmSize len, VmSize *got)
{
    machine.clock().charge(CostKind::Software,
                           machine.spec.costs.syscall);
    VnodePager *pager = pagerForFile(name);
    if (!pager)
        return KernReturn::InvalidArgument;
    VmSize fsize = fs.size(pager->fileId());
    *got = 0;
    if (offset >= fsize)
        return KernReturn::Success;
    len = std::min<VmSize>(len, fsize - offset);

    VmObject *obj = objectForFile(name, nullptr);
    auto *out = static_cast<std::uint8_t *>(buf);
    VmSize page = pageSize();
    VmSize done = 0;
    while (done < len) {
        VmOffset pos = offset + done;
        VmOffset in_page = pos & (page - 1);
        VmSize chunk = std::min<VmSize>(len - done, page - in_page);
        KernReturn kr = KernReturn::Success;
        VmPage *pg = vm->objectPage(obj, pos, false, false, &kr);
        if (!pg) {
            // Backing store failed; report the bytes that did arrive.
            obj->deallocate();
            *got = done;
            return kr;
        }
        machine.memory().read(pg->physAddr + in_page, out + done,
                              chunk);
        done += chunk;
    }
    obj->deallocate();  // stays in the object cache
    *got = len;
    return KernReturn::Success;
}

KernReturn
Kernel::fileWrite(const std::string &name, VmOffset offset,
                  const void *buf, VmSize len)
{
    machine.clock().charge(CostKind::Software,
                           machine.spec.costs.syscall);
    FileId id = fs.lookup(name);
    if (id == kNoFile)
        id = fs.create(name);
    if (offset + len > fs.size(id))
        fs.setSize(id, offset + len);

    VmObject *obj = objectForFile(name, nullptr);
    MACH_ASSERT(obj != nullptr);
    const auto *in = static_cast<const std::uint8_t *>(buf);
    VmSize page = pageSize();
    VmSize done = 0;
    while (done < len) {
        VmOffset pos = offset + done;
        VmOffset in_page = pos & (page - 1);
        VmSize chunk = std::min<VmSize>(len - done, page - in_page);
        bool overwrite = in_page == 0 && chunk == page;
        KernReturn kr = KernReturn::Success;
        VmPage *pg = vm->objectPage(obj, pos, true, overwrite, &kr);
        if (!pg) {
            obj->deallocate();
            return kr;
        }
        machine.memory().write(pg->physAddr + in_page, in + done,
                               chunk);
        done += chunk;
    }
    obj->deallocate();
    return KernReturn::Success;
}

KernReturn
Kernel::kernelAllocate(VmOffset *addr, VmSize size)
{
    KernReturn kr = kernMap->allocate(addr, size, true);
    if (kr != KernReturn::Success)
        return kr;
    return vm->wireRange(*kernMap, *addr, *addr + vm->pageRound(size));
}

void
Kernel::sendMessage(Port &port, Message &&msg)
{
    machine.clock().charge(CostKind::Ipc, machine.spec.costs.msgOp);
    port.send(std::move(msg));
}

} // namespace mach
