#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench
{

namespace
{

/** 1-based nearest rank of percentile @p p over @p n samples. */
std::size_t
rankOf(std::size_t n, double p)
{
    // The epsilon keeps p * n / 100 from rounding up past an exact
    // integer rank (99.9% of 10000 is rank 9990, not 9991).
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * double(n) / 100.0 - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

constexpr std::size_t kBeyond = 10;

} // anonymous namespace

double
nearestRank(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    const std::size_t rank = rankOf(samples.size(), p);
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double
tailPercentile(std::size_t n)
{
    for (double p : {99.9, 99.0, 90.0, 50.0}) {
        if (n > 0 && n - rankOf(n, p) >= kBeyond)
            return p;
    }
    return 0.0;
}

Timing
summarize(const std::vector<double> &samples)
{
    Timing t;
    t.count = samples.size();
    t.p50 = nearestRank(samples, 50.0);
    t.tailP = tailPercentile(samples.size());
    if (t.tailP > 0.0)
        t.tail = nearestRank(samples, t.tailP);
    return t;
}

double
median(const std::vector<double> &samples)
{
    return nearestRank(samples, 50.0);
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

std::map<std::uint64_t, std::uint64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, std::vector<std::pair<std::uint64_t,
                                                  std::uint64_t>>>
        children;
    for (const Span &s : spans) {
        if (s.parent != 0)
            children[s.parent].emplace_back(s.startNs, s.endNs);
    }
    std::map<std::uint64_t, std::uint64_t> self;
    for (const Span &s : spans) {
        const std::uint64_t dur = s.endNs - s.startNs;
        auto it = children.find(s.id);
        if (it == children.end()) {
            self[s.id] = dur;
            continue;
        }
        // Union of the children's intervals clipped to this span.
        auto &kids = it->second;
        std::sort(kids.begin(), kids.end());
        std::uint64_t covered = 0;
        std::uint64_t cursor = s.startNs;
        for (auto [start, end] : kids) {
            start = std::max(start, cursor);
            end = std::min(end, s.endNs);
            if (end > start) {
                covered += end - start;
                cursor = end;
            }
        }
        self[s.id] = dur - covered;
    }
    return self;
}

std::map<std::string, std::uint64_t>
layerSelfTimes(const std::vector<Span> &spans)
{
    const auto self = selfTimes(spans);
    std::map<std::string, std::uint64_t> layers;
    for (const Span &s : spans)
        layers[layerOf(s.name)] += self.at(s.id);
    return layers;
}

void
Outcomes::record(bool ok, const std::string &what, std::uint64_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    attempted_ += n;
    if (!ok) {
        failed_ += n;
        if (reasons_.size() < 8)
            reasons_.push_back(what);
    }
}

std::uint64_t
Outcomes::attempted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return attempted_;
}

std::uint64_t
Outcomes::failed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
}

double
Outcomes::failedFrac() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return attempted_ == 0 ? 0.0 : double(failed_) / double(attempted_);
}

std::vector<std::string>
Outcomes::reasons() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return reasons_;
}

} // namespace perfbench
