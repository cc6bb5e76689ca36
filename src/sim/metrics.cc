#include "sim/metrics.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mach
{

SimTime
LatencyHistogram::quantile(double p) const
{
    if (count_ == 0)
        return 0;
    if (p > 1.0)
        p = 1.0;
    std::uint64_t target =
        static_cast<std::uint64_t>(p * double(count_) + 0.5);
    if (target == 0)
        target = 1;
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        if (seen >= target) {
            SimTime hi = bucketUpperBound(i);
            return hi > max_ ? max_ : hi;
        }
    }
    return max_;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.count_ == 0)
        return;
    for (unsigned i = 0; i < kBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
    sum_ += other.sum_;
}

MetricId
MetricsRegistry::bindDef(Def def)
{
    auto it = byName.find(def.name);
    if (it != byName.end()) {
        const Def &old = defs[it->second];
        MACH_ASSERT(old.counter == def.counter &&
                    old.histogram == def.histogram);
        return MetricId{it->second};
    }
    unsigned index = unsigned(defs.size());
    byName.emplace(def.name, index);
    defs.push_back(std::move(def));
    return MetricId{index};
}

MetricId
MetricsRegistry::bind(const std::string &name,
                      const std::uint64_t *counter)
{
    MACH_ASSERT(counter != nullptr);
    return bindDef(Def{name, counter, nullptr});
}

MetricId
MetricsRegistry::bind(const std::string &name,
                      const LatencyHistogram *histogram)
{
    MACH_ASSERT(histogram != nullptr);
    return bindDef(Def{name, nullptr, histogram});
}

std::uint64_t
MetricsRegistry::value(MetricId id) const
{
    if (!id.valid())
        return 0;
    const Def &def = defs[id.index];
    MACH_ASSERT(def.counter != nullptr);
    return *def.counter;
}

MetricId
MetricsRegistry::find(const std::string &name) const
{
    auto it = byName.find(name);
    return it == byName.end() ? MetricId{} : MetricId{it->second};
}

MetricsRegistry::Snapshot
MetricsRegistry::snapshot() const
{
    Snapshot snap;
    for (const Def &def : defs) {
        if (def.counter)
            snap.counters.emplace_back(def.name, *def.counter);
        else
            snap.histograms.emplace_back(def.name, *def.histogram);
    }
    auto byFirst = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), byFirst);
    std::sort(snap.histograms.begin(), snap.histograms.end(), byFirst);
    return snap;
}

std::uint64_t
MetricsRegistry::Snapshot::counterValue(const std::string &name) const
{
    for (const auto &[n, v] : counters) {
        if (n == name)
            return v;
    }
    return 0;
}

LatencyHistogram
MetricsRegistry::Snapshot::histogram(const std::string &name) const
{
    for (const auto &[n, h] : histograms) {
        if (n == name)
            return h;
    }
    return {};
}

} // namespace mach
