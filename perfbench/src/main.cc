/**
 * @file
 * machbench: run one workload of the machvm benchmark.
 *
 *   machbench --workload churn|compile|smp --seed N --seconds S
 *             --trace 0|1 [--spans FILE]
 *
 * Prints a human-readable table and, as the last line, one JSON object
 * with the keys correct, attempted, failed and metrics: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/logging.hh"
#include "driver.hh"

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "machbench: %s\n"
                 "usage: machbench --workload churn|compile|smp --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\n",
                 why);
    std::exit(2);
}

unsigned long long
number(const char *flag, const char *text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end)
        usage((std::string("bad number for ") + flag).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    mach::setQuiet(true);

    RunOptions opt;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (i + 1 >= argc)
            usage((std::string("missing value for ") + flag).c_str());
        const char *val = argv[++i];
        if (std::strcmp(flag, "--workload") == 0) {
            opt.workload = findWorkload(val);
            if (!opt.workload)
                usage((std::string("unknown workload ") + val).c_str());
        } else if (std::strcmp(flag, "--seed") == 0) {
            opt.seed = number(flag, val);
        } else if (std::strcmp(flag, "--seconds") == 0) {
            opt.seconds = double(number(flag, val));
        } else if (std::strcmp(flag, "--trace") == 0) {
            unsigned long long t = number(flag, val);
            if (t > 1)
                usage("--trace takes 0 or 1");
            opt.trace = t == 1;
        } else if (std::strcmp(flag, "--spans") == 0) {
            opt.spanFile = val;
        } else {
            usage((std::string("unknown flag ") + flag).c_str());
        }
    }
    if (!opt.workload)
        usage("--workload is required");
    if (opt.trace)
        opt.minPasses = 4; // at least two untraced and two traced

    runBenchmark(opt, stdout);
    return 0;
}
