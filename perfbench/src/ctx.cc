#include "ctx.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench
{

const char *
callName(Call c)
{
    switch (c) {
      case Call::Step: return "step";
      case Call::TaskCreate: return "kern.task_create";
      case Call::Fork: return "kern.fork";
      case Call::Terminate: return "kern.terminate";
      case Call::TaskTouch: return "kern.touch";
      case Call::TaskRead: return "kern.task_read";
      case Call::MapFile: return "kern.map_file";
      case Call::FileRead: return "kern.file_read";
      case Call::FileWrite: return "kern.file_write";
      case Call::VmAllocate: return "vm.allocate";
      case Call::VmDeallocate: return "vm.deallocate";
      case Call::VmProtect: return "vm.protect";
      case Call::HwTouch: return "hw.touch";
      case Call::HwRead: return "hw.read";
      case Call::HwWrite: return "hw.write";
      case Call::TimerTick: return "hw.timer_tick";
      case Call::NumCalls: break;
    }
    return "?";
}

std::vector<std::uint64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::uint64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].endNs - spans[i].startNs;
    for (const Span &s : spans) {
        if (s.parent != Span::kNoParent)
            self[s.parent] -= s.endNs - s.startNs;
    }
    return self;
}

Tail
tailPercentile(std::vector<double> samples, double want)
{
    Tail t;
    t.samples = samples.size();
    if (samples.empty())
        return t;
    std::sort(samples.begin(), samples.end());
    double n = double(samples.size());
    // Nearest rank r = ceil(q n) leaves n - r samples beyond it;
    // n - r >= 10 holds for every q <= (n - 10) / n.
    double q = std::min(want, (n - 10) / n);
    if (q <= 0) {
        t.quantile = 1.0;
        t.value = samples.back();
        return t;
    }
    std::size_t rank = std::size_t(std::ceil(q * n - 1e-9));
    t.quantile = q;
    t.value = samples[std::max<std::size_t>(rank, 1) - 1];
    return t;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0;
    std::size_t mid = (samples.size() - 1) / 2;
    std::nth_element(samples.begin(), samples.begin() + mid,
                     samples.end());
    return samples[mid];
}

bool
Ctx::check(bool ok, const char *what)
{
    ++attempted;
    if (!ok)
        fail(what, -1);
    return ok;
}

void
Ctx::fail(const char *what, int code)
{
    ++failed;
    if (firstFailure.empty()) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s (code %d)", what, code);
        firstFailure = buf;
    }
}

void
Ctx::beginStep()
{
    stepStart = hostNs();
    if (traced) {
        stepSpan = std::uint32_t(spans.size());
        Span s;
        s.startNs = stepStart;
        s.step = stepId;
        s.call = Call::Step;
        spans.push_back(s);
    }
}

void
Ctx::endStep()
{
    std::uint64_t end = hostNs();
    stepNs.push_back(double(end - stepStart));
    if (traced) {
        spans[stepSpan].endNs = end;
        stepSpan = Span::kNoParent;
    }
    ++stepId;
}

void
Ctx::record(Call c, std::uint64_t units, std::uint64_t t0)
{
    Span s;
    s.startNs = t0;
    s.endNs = hostNs();
    s.parent = stepSpan;
    s.step = stepSpan == Span::kNoParent ? Span::kNoParent : stepId;
    s.units = std::uint32_t(units);
    s.call = c;
    spans.push_back(s);
}

} // namespace perfbench
