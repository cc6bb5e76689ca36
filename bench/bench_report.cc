#include "bench_report.hh"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "sim/trace_export.hh"

namespace mach::bench
{

Report::Report(std::string benchmark_, int argc, char **argv)
    : benchmark(std::move(benchmark_))
{
    for (int i = 1; i < argc; ++i) {
        if (i + 1 < argc && std::strcmp(argv[i], "--json") == 0) {
            path = argv[i + 1];
        } else if (i + 1 < argc &&
                   std::strcmp(argv[i], "--trace-out") == 0) {
            tracePath = argv[i + 1];
        } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
            tracePath = argv[i] + 12;
        }
    }
}

void
Report::attachTrace(Machine &machine)
{
    if (tracePath.empty())
        return;
    if (!sink) {
        // Large enough that typical workloads fit without drops.
        sink = std::make_unique<TraceSink>(1 << 20);
    }
    sink->reset();
    traceCpus = machine.numCpus();
    machine.clock().setTraceSink(sink.get());
}

void
Report::add(const std::string &arch, const std::string &metric,
            double value, const std::string &unit)
{
    records.push_back({arch, metric, value, unit});
}

namespace
{

/** Metric/arch names are plain identifiers; escape defensively. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    if (std::isfinite(v) && v == std::floor(v) &&
        std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    return buf;
}

} // namespace

int
Report::finish() const
{
    if (!path.empty()) {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::fprintf(f, "[\n");
        for (std::size_t i = 0; i < records.size(); ++i) {
            const Record &r = records[i];
            std::fprintf(f,
                         "  {\"benchmark\": \"%s\", \"arch\": \"%s\", "
                         "\"metric\": \"%s\", \"value\": %s, "
                         "\"unit\": \"%s\"}%s\n",
                         jsonEscape(benchmark).c_str(),
                         jsonEscape(r.arch).c_str(),
                         jsonEscape(r.metric).c_str(),
                         jsonNumber(r.value).c_str(),
                         jsonEscape(r.unit).c_str(),
                         i + 1 < records.size() ? "," : "");
        }
        std::fprintf(f, "]\n");
        std::fclose(f);
    }
    if (!tracePath.empty()) {
        if (!sink) {
            std::fprintf(stderr,
                         "--trace-out given but no workload attached "
                         "a trace sink\n");
            return 1;
        }
        if (!writeChromeTrace(*sink, traceCpus, tracePath)) {
            std::fprintf(stderr, "cannot write %s\n",
                         tracePath.c_str());
            return 1;
        }
    }
    return 0;
}

} // namespace mach::bench
