/**
 * @file
 * compile: Table 7-2's "Mach kernel, generic configuration" build on
 * a VAX 8650 with 1K Mach pages and an object cache bounded only by
 * memory.  Each compile forks the shell, execs, maps and touches cc1,
 * reads the headers and its source, zero-fills a working set, writes
 * and rereads a temp file, writes its object file and exits.
 *
 * One step is one compile; a full pass is the paper's 250.  The seed
 * sets file contents only, so the simulated shape stays that of the
 * paper row.  Timing starts with cc1 warm and the headers cold, as in
 * bench_table7_2.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "calls.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace mach;

namespace
{

constexpr VmSize kSourceBytes = 25 << 10;
constexpr VmSize kIncludeBytes = 300 << 10;
constexpr VmSize kCompilerBytes = 800 << 10;
constexpr VmSize kObjectBytes = 25 << 10;
constexpr VmSize kWorkBytes = 600 << 10;
constexpr VmSize kTempBytes = 350 << 10;
constexpr SimTime kUserCpu = 3300000000; //!< per-compile computation

std::uint32_t
fileSeed(std::uint64_t seed, unsigned file)
{
    Lcg g(seed * 1000003 + file);
    return g.next() | 1;
}

} // namespace

PassResult
runCompile(Ctx &ctx, std::uint64_t seed, unsigned steps)
{
    PassResult r;
    std::uint64_t t0 = hostNs();

    MachineSpec spec = MachineSpec::vax8650();
    KernelConfig cfg;
    cfg.machPageMultiple = 2; // 1K pages
    cfg.diskBytes = 128ull << 20;
    cfg.objectCacheLimit = 4096;
    cfg.cachedPageLimit = 0; // generic: bounded only by memory
    Kernel kernel(spec, cfg);
    Calls call(ctx, kernel);

    kernel.createPatternFile("cc1", kCompilerBytes, fileSeed(seed, 0));
    kernel.createPatternFile("headers.h", kIncludeBytes,
                             fileSeed(seed, 1));
    for (unsigned i = 0; i < steps; ++i) {
        kernel.createPatternFile("src" + std::to_string(i), kSourceBytes,
                                 fileSeed(seed, 2 + i));
    }
    std::vector<std::string> files{"cc1"};

    // The shell: a modest dirty address space every fork must copy.
    Task *shell = call.taskCreate();
    if (!shell)
        return r;
    VmOffset shell_mem = 0;
    call.allocate(*shell, &shell_mem, 64 << 10);
    call.touch(*shell, shell_mem, 64 << 10, AccessType::Write);
    // Sticky text: the compiler stays mapped, so its object is live.
    VmOffset sticky = 0;
    VmSize sticky_size = 0;
    call.mapFile(*shell, "cc1", &sticky, &sticky_size);
    call.touch(*shell, sticky, sticky_size, AccessType::Read);

    std::vector<std::uint8_t> buf(
        std::max({kCompilerBytes, kIncludeBytes, kTempBytes}));
    std::vector<std::uint8_t> src(kSourceBytes);
    std::vector<std::vector<std::uint8_t>> objects(steps);

    SimCounters before = readCounters(kernel, files);
    std::uint64_t t1 = hostNs();
    SimClock &clock = kernel.machine.clock();
    VmSize got = 0;
    for (unsigned i = 0; i < steps; ++i) {
        ctx.beginStep();
        std::string n = std::to_string(i);
        Task *cc = call.fork(*shell);
        if (!cc) {
            ctx.endStep();
            continue;
        }
        clock.charge(CostKind::Software, spec.costs.execFixed);
        call.deallocateAll(*cc);

        VmOffset text = 0;
        VmSize text_size = 0;
        call.mapFile(*cc, "cc1", &text, &text_size);
        call.touch(*cc, text, text_size, AccessType::Read);

        call.fileRead("headers.h", buf.data(), kIncludeBytes, &got);
        call.fileRead("src" + n, src.data(), kSourceBytes, &got);

        VmOffset work = 0;
        call.allocate(*cc, &work, kWorkBytes);
        call.touch(*cc, work, kWorkBytes, AccessType::Write);
        clock.charge(CostKind::Software, kUserCpu);

        // cpp -> cc1 temporary: written, then read back.
        call.fileWrite("tmp" + n, buf.data(), kTempBytes);
        call.fileRead("tmp" + n, buf.data(), kTempBytes, &got);

        // The object file: a function of the source, unique per file.
        std::vector<std::uint8_t> &obj = objects[i];
        obj.resize(kObjectBytes);
        for (VmSize j = 0; j < kObjectBytes; ++j)
            obj[j] = std::uint8_t(src[j % kSourceBytes] ^ (j * 31 + i));
        call.fileWrite("obj" + n, obj.data(), kObjectBytes);

        call.terminate(cc);
        ctx.endStep();
    }
    std::uint64_t t2 = hostNs();
    files.push_back("headers.h");
    for (unsigned i = 0; i < steps; ++i) {
        std::string n = std::to_string(i);
        files.push_back("src" + n);
        files.push_back("tmp" + n);
        files.push_back("obj" + n);
    }
    r.sim = delta(readCounters(kernel, files), before);
    r.setupSec = seconds(t0, t1);
    r.timedSec = seconds(t1, t2);
    r.steps = steps;

    for (unsigned i = 0; i < steps; ++i) {
        std::vector<std::uint8_t> back(kObjectBytes + 1);
        call.fileRead("obj" + std::to_string(i), back.data(), back.size(),
                      &got);
        back.resize(got);
        ctx.check(back == objects[i], "compile: object file read-back");
    }
    return r;
}

} // namespace perfbench
