#include "driver.hh"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

namespace perfbench
{

using namespace mach;

namespace
{

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KB
}

const char *const kKindMetric[SimClock::numKinds] = {
    "sim.mem_copy_ms", "sim.mem_zero_ms",  "sim.fault_trap_ms",
    "sim.software_ms", "sim.pmap_op_ms",   "sim.tlb_miss_ms",
    "sim.tlb_flush_ms", "sim.ipi_ms",      "sim.disk_ms",
    "sim.ipc_ms",
};

/** Host self time of the traced calls, summed over traced passes. */
struct CallTotals
{
    std::array<double, kNumCalls> selfNs{};
    std::array<double, kNumCalls> units{};
    std::array<std::uint64_t, kNumCalls> calls{};
    std::vector<double> forkNs, terminateNs;

    void
    add(const std::vector<Span> &spans)
    {
        std::vector<std::uint64_t> self = selfTimes(spans);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            unsigned c = static_cast<unsigned>(spans[i].call);
            selfNs[c] += double(self[i]);
            units[c] += spans[i].units;
            ++calls[c];
            if (spans[i].call == Call::Fork)
                forkNs.push_back(double(self[i]));
            else if (spans[i].call == Call::Terminate)
                terminateNs.push_back(double(self[i]));
        }
    }

    double
    meanUs(Call c) const
    {
        unsigned i = static_cast<unsigned>(c);
        return ratio(selfNs[i], double(calls[i])) / 1e3;
    }

    double
    nsPerUnit(Call c, double unit_size) const
    {
        unsigned i = static_cast<unsigned>(c);
        return ratio(selfNs[i], units[i] / unit_size);
    }
};

/**
 * Untraced step latencies, pooled into blocks of consecutive passes
 * with at least kBlockSteps steps each.  The tail is taken per block
 * and the median over blocks reported, so a burst of host noise moves
 * one block's tail rather than the run's.
 */
constexpr std::size_t kBlockSteps = 1000;

struct StepBlocks
{
    std::vector<std::vector<double>> blocks{1};

    void
    add(const std::vector<double> &step_ns)
    {
        if (blocks.back().size() >= kBlockSteps)
            blocks.emplace_back();
        blocks.back().insert(blocks.back().end(), step_ns.begin(),
                             step_ns.end());
    }

    std::vector<double>
    all() const
    {
        std::vector<double> v;
        for (const auto &b : blocks)
            v.insert(v.end(), b.begin(), b.end());
        return v;
    }

    /** Blocks the tail is taken over (a short last block is not). */
    std::size_t
    fullBlocks() const
    {
        bool short_last = blocks.size() > 1 &&
                          blocks.back().size() < kBlockSteps;
        return blocks.size() - (short_last ? 1 : 0);
    }

    /** Median over full blocks of each block's tail percentile. */
    Tail
    tail(double want) const
    {
        std::vector<double> tails;
        Tail t;
        t.quantile = want;
        for (std::size_t i = 0; i < fullBlocks(); ++i) {
            const std::vector<double> &b = blocks[i];
            Tail bt = tailPercentile(b, want);
            tails.push_back(bt.value);
            t.quantile = std::min(t.quantile, bt.quantile);
            t.samples += bt.samples;
        }
        t.value = median(tails);
        return t;
    }
};

std::vector<Metric>
endToEnd(const StepBlocks &steps_ns, double steps, double timed_sec,
         const std::vector<double> &setup_sec, const SimCounters &sim)
{
    return {
        {"steps_per_s", ratio(steps, timed_sec), "1/s"},
        {"step_p50_us", median(steps_ns.all()) / 1e3, "us"},
        {"step_p99_us", steps_ns.tail(0.99).value / 1e3, "us"},
        {"sim_s", double(sim.simNs) / 1e9, "sim_s"},
        {"setup_s", median(setup_sec), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

std::vector<Metric>
perLayer(const CallTotals &t, const SimCounters &s, double overhead)
{
    auto n = [&](Count c) { return double(s.count[c]); };
    std::vector<Metric> m = {
        {"kern.fork_us_p50", median(t.forkNs) / 1e3, "us"},
        {"kern.fork_us_p99", tailPercentile(t.forkNs, 0.99).value / 1e3,
         "us"},
        {"kern.terminate_us_p50", median(t.terminateNs) / 1e3, "us"},
        {"kern.terminate_us_p99",
         tailPercentile(t.terminateNs, 0.99).value / 1e3, "us"},
        {"kern.touch_ns_per_page", t.nsPerUnit(Call::TaskTouch, 1),
         "ns/page"},
        {"kern.map_file_us", t.meanUs(Call::MapFile), "us"},
        {"kern.file_read_ns_per_kb", t.nsPerUnit(Call::FileRead, 1024),
         "ns/KB"},
        {"kern.file_write_ns_per_kb",
         t.nsPerUnit(Call::FileWrite, 1024), "ns/KB"},
        {"vm.allocate_us", t.meanUs(Call::VmAllocate), "us"},
        {"vm.deallocate_us", t.meanUs(Call::VmDeallocate), "us"},
        {"vm.protect_us", t.meanUs(Call::VmProtect), "us"},
        {"vm.faults", n(VmFaults), "count"},
        {"vm.zero_fills", n(VmZeroFills), "count"},
        {"vm.cow_faults", n(VmCowFaults), "count"},
        {"vm.pageins", n(VmPageins), "count"},
        {"vm.pageouts", n(VmPageouts), "count"},
        {"vm.reactivations", n(VmReactivations), "count"},
        {"vm.object_collapses", n(VmCollapses), "count"},
        {"vm.objects_cached", n(VmObjectsCached), "count"},
        {"vm.pageout_passes", n(VmPageoutPasses), "count"},
        {"vm.lookup_hit_ratio", ratio(n(VmLookupHits), n(VmLookups)),
         "ratio"},
        {"vm.pageout_reclaim_ratio",
         ratio(n(VmPagesReclaimed), n(VmPagesScanned)), "ratio"},
        {"vm.zone_high_water_kb", double(s.zoneHighWaterBytes) / 1024,
         "KB"},
        {"pmap.shootdown_ipis", n(PmapShootdownIpis), "count"},
        {"pmap.batch_flushes", n(PmapBatchFlushes), "count"},
        {"pmap.shootdowns_coalesced", n(PmapCoalesced), "count"},
        {"pmap.deferred_flushes", n(PmapDeferredFlushes), "count"},
        {"pmap.table_pages_built", n(PmapTablePagesBuilt), "count"},
        {"hw.touch_ns_per_page", t.nsPerUnit(Call::HwTouch, 1),
         "ns/page"},
        {"hw.timer_tick_us", t.meanUs(Call::TimerTick), "us"},
        {"hw.tlb_hit_ratio",
         ratio(n(HwTlbHits), n(HwTlbHits) + n(HwTlbMisses)), "ratio"},
        {"hw.tlb_misses", n(HwTlbMisses), "count"},
        {"hw.faults", n(HwFaults), "count"},
        {"hw.ipis", n(HwIpis), "count"},
        {"pager.default_pageins", n(PagerDefaultPageins), "count"},
        {"pager.default_pageouts", n(PagerDefaultPageouts), "count"},
        {"pager.vnode_pageins", n(PagerVnodePageins), "count"},
        {"pager.vnode_pageouts", n(PagerVnodePageouts), "count"},
        {"pager.io_retries", n(PagerIoRetries), "count"},
        {"pager.swap_kb", n(PagerSwapBytes) / 1024, "KB"},
        {"fs.disk_ops", n(FsDiskOps), "count"},
        {"fs.disk_kb", n(FsDiskBytes) / 1024, "KB"},
    };
    for (std::size_t k = 0; k < SimClock::numKinds; ++k)
        m.push_back({kKindMetric[k], double(s.kindNs[k]) / 1e6, "sim_ms"});
    m.push_back({"trace_overhead", overhead, "ratio"});
    return m;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "machbench: cannot write %s\n", path.c_str());
        return;
    }
    std::vector<std::uint64_t> self = selfTimes(spans);
    std::uint64_t base = spans.empty() ? 0 : spans.front().startNs;
    std::fprintf(f, "index,parent,step,name,start_ns,end_ns,self_ns,"
                    "units\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f, "%zu,%lld,%lld,%s,%llu,%llu,%llu,%u\n", i,
                     s.parent == Span::kNoParent ? -1LL
                                                 : (long long)s.parent,
                     s.step == Span::kNoParent ? -1LL : (long long)s.step,
                     callName(s.call),
                     (unsigned long long)(s.startNs - base),
                     (unsigned long long)(s.endNs - base),
                     (unsigned long long)self[i], s.units);
    }
    std::fclose(f);
}

void
printResult(std::FILE *out, const RunSummary &sum,
            const std::vector<Metric> &metrics)
{
    std::fprintf(out, "{\"correct\": %s, \"attempted\": %llu, "
                      "\"failed\": %llu, \"metrics\": {",
                 sum.correct ? "true" : "false",
                 (unsigned long long)sum.attempted,
                 (unsigned long long)sum.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i ? ", " : "", metrics[i].name.c_str(),
                     metrics[i].value, metrics[i].unit);
    }
    std::fprintf(out, "}}\n");
}

} // namespace

const Workload *
findWorkload(const char *name)
{
    static const Workload kWorkloads[] = {
        {"churn", runChurn, 5000, 0},
        // Table 7-2, Mach kernel build, generic configuration: 15:50.
        {"compile", runCompile, 250, 950},
        {"smp", runSmp, 2000, 0},
    };
    for (const Workload &w : kWorkloads) {
        if (std::strcmp(w.name, name) == 0)
            return &w;
    }
    return nullptr;
}

RunSummary
runBenchmark(const RunOptions &opt, std::FILE *out)
{
    const Workload &wl = *opt.workload;
    unsigned steps = opt.stepsPerPass ? opt.stepsPerPass : wl.stepsPerPass;
    RunSummary sum;
    bool deterministic = true, traced_matches = true, sums_whole = true;
    std::string first_failure;

    StepBlocks step_ns;
    std::vector<double> setup_sec, untraced_sec, traced_sec;
    double untraced_steps = 0;
    CallTotals totals;
    std::vector<Span> kept_spans;

    std::uint64_t start = hostNs();
    for (unsigned pass = 0;; ++pass) {
        bool traced = opt.trace && pass % 2 == 1;
        Ctx ctx(traced);
        PassResult r = wl.run(ctx, opt.seed, steps);

        sum.attempted += ctx.attempted;
        sum.failed += ctx.failed;
        if (first_failure.empty())
            first_failure = ctx.firstFailure;
        sums_whole = sums_whole && r.sim.kindSum() == r.sim.simNs;
        if (pass == 0)
            sum.sim = r.sim;
        else if (!(r.sim == sum.sim))
            (traced ? traced_matches : deterministic) = false;

        if (traced) {
            traced_sec.push_back(r.timedSec);
            totals.add(ctx.spans);
            if (kept_spans.empty())
                kept_spans = std::move(ctx.spans);
        } else {
            step_ns.add(ctx.stepNs);
            setup_sec.push_back(r.setupSec);
            untraced_sec.push_back(r.timedSec);
            untraced_steps += r.steps;
        }
        sum.passes = pass + 1;
        if (sum.passes >= opt.minPasses &&
            seconds(start, hostNs()) >= opt.seconds)
            break;
    }

    sum.correct = sum.failed == 0 && deterministic && traced_matches &&
                  sums_whole;
    double timed = 0;
    for (double s : untraced_sec)
        timed += s;

    std::vector<Metric> e2e =
        endToEnd(step_ns, untraced_steps, timed, setup_sec, sum.sim);
    std::fprintf(out, "workload %s  seed %llu  passes %u (%zu traced)  "
                      "steps/pass %u\n",
                 wl.name, (unsigned long long)opt.seed, sum.passes,
                 traced_sec.size(), steps);
    std::fprintf(out, "end to end (untraced passes):\n");
    for (const Metric &m : e2e)
        std::fprintf(out, "  %-28s %20.6f %s\n", m.name.c_str(), m.value,
                     m.unit);
    Tail p99 = step_ns.tail(0.99);
    std::fprintf(out, "  %-28s %20zu count (step_p99_us: median over "
                      "%zu blocks of p%.4g)\n",
                 "step_samples", p99.samples, step_ns.fullBlocks(),
                 p99.quantile * 100);
    std::fprintf(out, "  %-28s %20.6f ratio (%llu of %llu calls and "
                      "checks)\n",
                 "fail_ratio", ratio(double(sum.failed),
                                     double(sum.attempted)),
                 (unsigned long long)sum.failed,
                 (unsigned long long)sum.attempted);
    if (wl.paperSec > 0 && steps == wl.stepsPerPass) {
        double sim_sec = double(sum.sim.simNs) / 1e9;
        std::fprintf(out, "  %-28s %20.6f ratio (%.1f s simulated vs "
                          "the paper's %.0f s)\n",
                     "paper_err", std::abs(sim_sec / wl.paperSec - 1),
                     sim_sec, wl.paperSec);
    }
    std::fprintf(out, "checks: outputs %s, passes identical %s, "
                      "traced == untraced %s, sim.* sums to sim_s %s\n",
                 sum.failed == 0 ? "ok" : "FAILED",
                 deterministic ? "yes" : "NO",
                 traced_matches ? "yes" : "NO", sums_whole ? "yes" : "NO");
    if (!first_failure.empty())
        std::fprintf(out, "first failure: %s\n", first_failure.c_str());

    if (!opt.trace) {
        printResult(out, sum, e2e);
        return sum;
    }

    double overhead =
        ratio(median(traced_sec), median(untraced_sec)) - 1;
    std::vector<Metric> layers = perLayer(totals, sum.sim, overhead);
    std::fprintf(out, "per layer (traced passes; counts and sim.* over "
                      "one pass's timed phase):\n");
    for (const Metric &m : layers)
        std::fprintf(out, "  %-28s %20.6f %s\n", m.name.c_str(), m.value,
                     m.unit);
    if (!opt.spanFile.empty()) {
        writeSpans(opt.spanFile, kept_spans);
        std::fprintf(out, "spans of the first traced pass: %s\n",
                     opt.spanFile.c_str());
    }
    printResult(out, sum, layers);
    return sum;
}

} // namespace perfbench
