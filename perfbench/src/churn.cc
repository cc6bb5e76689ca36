/**
 * @file
 * churn: the task-churn storm on a uVAX II with one CPU and 512 KB of
 * RAM.  A live population of 64 tasks shares a mapped text file; each
 * new task forks from a random live one with copy-on-write data and
 * private zero-fill scratch, every 5th task "execs" (tears its space
 * down and rebuilds it), and the oldest task exits.  RAM is far below
 * the aggregate working set, so the pageout daemon never rests.
 *
 * One step is one task's life.  Set-up boots the machine, creates the
 * text file and grows the population to 64 tasks.
 */

#include <algorithm>
#include <deque>
#include <vector>

#include "calls.hh"
#include "vm/vm_object.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace mach;

namespace
{

constexpr unsigned kTextPages = 256;   //!< shared text segment
constexpr unsigned kDataPages = 32;    //!< COW-inherited data region
constexpr unsigned kScratchPages = 16; //!< private zero-fill scratch
constexpr unsigned kLivePopulation = 64;
constexpr unsigned kExecEvery = 5;

struct Layout
{
    VmOffset text = 0;
    VmOffset data = 0;
    VmOffset scratch = 0;
};

class Churn
{
  public:
    Churn(Ctx &ctx, Kernel &kernel, std::uint64_t seed)
        : call(ctx, kernel), kernel(kernel), page(kernel.pageSize()),
          rng(seed)
    {
    }

    /** Birth of one task, its working set, and the oldest's exit. */
    void
    spawn(unsigned seq)
    {
        Task *child;
        Layout l;
        if (live.empty()) {
            child = call.taskCreate();
            if (!child)
                return;
            l = buildSpace(*child);
            // Prime the data region so forks really share pages.
            call.touch(*child, l.data, kDataPages * page,
                       AccessType::Write);
        } else {
            unsigned pick = rng.nextBelow(unsigned(live.size()));
            child = call.fork(*live[pick]);
            if (!child)
                return;
            l = layouts[pick];
            // Scratch is private: children re-allocate their own.
            call.deallocate(*child, l.scratch, kScratchPages * page);
            l.scratch = 0;
            call.allocate(*child, &l.scratch, kScratchPages * page);
            if (seq % kExecEvery == 0) {
                call.deallocateAll(*child);
                l = buildSpace(*child);
            }
        }
        runTask(*child, l);
        live.push_back(child);
        layouts.push_back(l);
        while (live.size() > kLivePopulation) {
            call.terminate(live.front());
            live.pop_front();
            layouts.pop_front();
        }
    }

    /**
     * Resident-set recount: every reachable object's page list is
     * walked and each page looked up again through the resident
     * table's index; the list length must also equal residentCount.
     * Returns the number of disagreements.
     */
    std::uint64_t
    residentRecountDiff()
    {
        std::uint64_t walked = 0, indexed = 0;
        for (VmObject *obj : reachableObjects()) {
            std::uint64_t listed = 0;
            for (const VmPage *p : obj->pages) {
                ++listed;
                if (kernel.vm->resident.lookup(obj, p->offset) == p)
                    ++indexed;
            }
            walked += listed;
            if (listed != obj->residentCount)
                walked += 1;
        }
        return walked > indexed ? walked - indexed : indexed - walked;
    }

    /** The newest live task and where its text is mapped. */
    Task *newest() const { return live.empty() ? nullptr : live.back(); }
    VmOffset newestText() const { return layouts.back().text; }

    Calls call;

  private:
    Layout
    buildSpace(Task &t)
    {
        Layout l;
        VmSize text_size = 0;
        call.mapFile(t, "text", &l.text, &text_size);
        call.allocate(t, &l.data, kDataPages * page);
        call.allocate(t, &l.scratch, kScratchPages * page);
        return l;
    }

    /** Text reads, data COW writes, fresh scratch writes. */
    void
    runTask(Task &t, const Layout &l)
    {
        for (unsigned i = 0; i < 12; ++i) {
            call.touch(t, l.text + rng.nextBelow(kTextPages) * page,
                       page, AccessType::Read);
        }
        for (unsigned i = 0; i < 8; ++i) {
            call.touch(t, l.data + rng.nextBelow(kDataPages) * page,
                       page, AccessType::Write);
        }
        for (unsigned i = 0; i < 8; ++i) {
            call.touch(t,
                       l.scratch + rng.nextBelow(kScratchPages) * page,
                       page, AccessType::Write);
        }
    }

    /** Every object reachable from the live tasks' maps, once. */
    std::vector<VmObject *>
    reachableObjects() const
    {
        std::vector<VmObject *> objs;
        std::vector<const VmMap *> maps;
        for (Task *t : live)
            maps.push_back(&t->map());
        for (std::size_t i = 0; i < maps.size(); ++i) {
            for (const VmMapEntry &e : maps[i]->entryList()) {
                if (e.submap) {
                    if (std::find(maps.begin(), maps.end(), e.submap) ==
                        maps.end())
                        maps.push_back(e.submap);
                    continue;
                }
                for (VmObject *o = e.object; o; o = o->shadowObject()) {
                    if (std::find(objs.begin(), objs.end(), o) !=
                        objs.end())
                        break;
                    objs.push_back(o);
                }
            }
        }
        return objs;
    }

    Kernel &kernel;
    VmSize page;
    Lcg rng;
    std::deque<Task *> live;
    std::deque<Layout> layouts; //!< parallel to live
};

} // namespace

PassResult
runChurn(Ctx &ctx, std::uint64_t seed, unsigned steps)
{
    PassResult r;
    std::uint64_t t0 = hostNs();

    MachineSpec spec = MachineSpec::microVax2();
    spec.physMemBytes = 512ull << 10;
    KernelConfig cfg;
    cfg.swapBytes = 32ull << 20;
    Kernel kernel(spec, cfg);

    std::vector<std::uint8_t> text(kTextPages * kernel.pageSize());
    Lcg bytes(seed ^ 0x7465787400000000ull);
    for (std::uint8_t &b : text)
        b = std::uint8_t(bytes.next());
    kernel.createFile("text", text.data(), text.size());
    const std::vector<std::string> files{"text"};

    Churn churn(ctx, kernel, seed);
    unsigned seq = 0;
    for (; seq < kLivePopulation; ++seq)
        churn.spawn(seq);

    SimCounters before = readCounters(kernel, files);
    std::uint64_t t1 = hostNs();
    for (unsigned i = 0; i < steps; ++i, ++seq) {
        ctx.beginStep();
        churn.spawn(seq);
        ctx.endStep();
    }
    std::uint64_t t2 = hostNs();
    r.sim = delta(readCounters(kernel, files), before);
    r.setupSec = seconds(t0, t1);
    r.timedSec = seconds(t1, t2);
    r.steps = steps;

    ctx.check(churn.residentRecountDiff() == 0, "churn: resident recount");
    std::vector<std::uint8_t> back(text.size());
    VmSize got = 0;
    churn.call.fileRead("text", back.data(), back.size(), &got);
    ctx.check(got == text.size() && back == text,
              "churn: text file read-back");
    if (Task *t = churn.newest()) {
        std::fill(back.begin(), back.end(), 0);
        churn.call.taskRead(*t, churn.newestText(), back.data(),
                            back.size());
        ctx.check(back == text, "churn: mapped text read-back");
    }
    return r;
}

} // namespace perfbench
