/**
 * @file
 * Tests of the benchmark itself:
 *  - the percentile rule;
 *  - self time over a synthetic span tree;
 *  - a tiny-size run of each workload passes its output checks, its
 *    simulated metrics repeat exactly for a fixed seed, sim.* sums to
 *    sim_s, the traced passes match the untraced ones, and a second
 *    seed changes the counts on churn and smp.
 *
 * Exits 0 when every check passes; prints each failure.
 */

#include <cstdio>
#include <vector>

#include "base/logging.hh"
#include "driver.hh"

namespace
{

using namespace perfbench;

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what);
    }
}

void
testPercentileRule()
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    Tail t = tailPercentile(v, 0.99);
    expect(t.quantile == 0.99 && t.value == 990 && t.samples == 1000,
           "p99 of 1..1000 is 990 (ten samples beyond)");

    // 100 samples: p99 would leave one beyond; p90 leaves ten.
    v.resize(100);
    t = tailPercentile(v, 0.99);
    expect(t.quantile == 0.9 && t.value == 90 && t.samples == 100,
           "100 samples fall back to p90");

    // 40 samples: the highest percentile with ten beyond is p75.
    v.resize(40);
    t = tailPercentile(v, 0.99);
    expect(t.quantile == 0.75 && t.value == 30,
           "40 samples fall back to p75");

    v.resize(10);
    t = tailPercentile(v, 0.99);
    expect(t.value == 10 && t.samples == 10,
           "ten samples or fewer report the maximum");

    expect(tailPercentile({}, 0.99).samples == 0, "no samples");
    expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2,
           "median is the lower middle");
}

void
testSelfTime()
{
    // step [0,100) > fork [10,40) > (nested) [20,25)
    //              > touch [50,60)
    // a root outside any step [200,230)
    std::vector<Span> s(5);
    s[0] = {0, 100, Span::kNoParent, 0, 0, Call::Step};
    s[1] = {10, 40, 0, 0, 0, Call::Fork};
    s[2] = {20, 25, 1, 0, 0, Call::VmAllocate};
    s[3] = {50, 60, 0, 0, 0, Call::TaskTouch};
    s[4] = {200, 230, Span::kNoParent, Span::kNoParent, 0,
            Call::TimerTick};
    std::vector<std::uint64_t> self = selfTimes(s);
    expect(self == std::vector<std::uint64_t>{60, 25, 5, 10, 30},
           "self time subtracts direct children only");
}

RunSummary
tinyRun(const char *workload, std::uint64_t seed, bool trace)
{
    RunOptions opt;
    opt.workload = findWorkload(workload);
    opt.seed = seed;
    opt.seconds = 0;
    opt.trace = trace;
    opt.stepsPerPass = 40;
    opt.minPasses = trace ? 4 : 2;
    std::FILE *sink = std::fopen("/dev/null", "w");
    RunSummary s = runBenchmark(opt, sink ? sink : stdout);
    if (sink)
        std::fclose(sink);
    return s;
}

void
testWorkloads()
{
    for (const char *w : {"churn", "compile", "smp"}) {
        std::printf("tiny %s run\n", w);
        RunSummary a = tinyRun(w, 1, false);
        expect(a.correct && a.failed == 0 && a.attempted > 0,
               "tiny run passes its output checks");
        expect(a.sim.kindSum() == a.sim.simNs && a.sim.simNs > 0,
               "sim.* sums exactly to sim_s");
        RunSummary b = tinyRun(w, 1, true);
        expect(b.correct, "traced run passes and matches untraced");
        expect(a.sim == b.sim, "same seed, identical simulated metrics");
        RunSummary c = tinyRun(w, 2, false);
        expect(c.correct, "second seed passes");
        if (std::string(w) != "compile")
            expect(!(c.sim.count == a.sim.count),
                   "a second seed changes the counts");
    }
}

} // namespace

int
main()
{
    mach::setQuiet(true);
    testPercentileRule();
    testSelfTime();
    testWorkloads();
    std::printf("%s (%d failures)\n", failures ? "FAILED" : "ok",
                failures);
    return failures ? 1 : 0;
}
