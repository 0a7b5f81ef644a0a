/**
 * @file
 * The benchmark's own statistics: nearest-rank percentiles with the
 * "at least ten samples beyond" tail rule, per-layer self time over a
 * span tree, and failure counting.  Kept free of simulator types so
 * perfbench_selftest can check them in isolation.
 */

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/**
 * Nearest-rank percentile of @p samples (any order): the value at
 * rank ceil(p/100 * n) of the sorted samples.  @p p in (0, 100];
 * returns 0 for an empty set.
 */
double nearestRank(std::vector<double> samples, double p);

/**
 * The highest percentile of {50, 90, 99, 99.9} whose nearest rank
 * leaves at least ten of @p n samples beyond it, or 0 when even the
 * median does not (n < 20).
 */
double tailPercentile(std::size_t n);

/** Median and tail of one timing sample set. */
struct Timing
{
    std::size_t count = 0;
    double p50 = 0.0;
    double tailP = 0.0;     //!< tailPercentile(count); 0 = none
    double tail = 0.0;      //!< value at tailP
};

/** Summarize @p samples as a Timing. */
Timing summarize(const std::vector<double> &samples);

/** Plain median (the p50 of summarize()). */
double median(const std::vector<double> &samples);

/** One closed span on the host-time axis. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::string name;         //!< "<layer>.<what>"
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint32_t track = 0;  //!< thread lane in the trace view
};

/** The layer a span belongs to: its name up to the first '.'. */
std::string layerOf(const std::string &name);

/**
 * Self time of every span: its duration minus the part of its
 * interval that its children cover (overlapping children count
 * once; parts of a child outside the parent count not at all).
 * Keyed by span id.
 */
std::map<std::uint64_t, std::uint64_t>
selfTimes(const std::vector<Span> &spans);

/** Self time summed per layer (layerOf), in nanoseconds. */
std::map<std::string, std::uint64_t>
layerSelfTimes(const std::vector<Span> &spans);

/**
 * Operations attempted and failed, shared by the threads of one run.
 * A failure keeps the first few reasons for the run's summary.
 */
class Outcomes
{
  public:
    /** Count @p n operations; @p ok false counts all as failed. */
    void record(bool ok, const std::string &what, std::uint64_t n = 1);

    std::uint64_t attempted() const;
    std::uint64_t failed() const;

    /** failed / attempted (0 when nothing was attempted). */
    double failedFrac() const;

    /** The first reasons recorded for failures. */
    std::vector<std::string> reasons() const;

  private:
    mutable std::mutex mutex_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> reasons_;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H_
