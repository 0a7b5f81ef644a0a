/**
 * @file
 * Shared pieces of the benchmark driver: options, the per-run report
 * (outcomes plus named metrics), the per-cell ledger that turns
 * simulated counters and host times into per-layer metrics, and the
 * entry points of the three workloads and the component pass.
 */

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "perf/profiler.h"
#include "sim/experiment.h"
#include "sim/sweep.h"
#include "stats.h"

namespace perfbench
{

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 15;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  //!< measured time per run
    bool trace = false;     //!< per-layer run instead of end-to-end
    std::string root = "."; //!< checkout root (holds docs/RESULTS.md)
    std::string cli;        //!< the fetchsim_cli binary
    std::string outDir = ".bench_out"; //!< traces, journals, sockets
    int threads = 4;        //!< simulation threads (<= nproc)
};

/** A metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one run reports: outcomes, metrics and summary lines. */
struct Report
{
    Outcomes outcomes;
    std::map<std::string, Metric> metrics;
    std::vector<std::string> notes;

    void set(const std::string &name, double value,
             const std::string &unit);

    /**
     * Note the median and the tail percentile of @p samples with
     * their sample count, and fail the run when the tail the metric
     * needs (@p need_p) lacks ten samples beyond it.
     */
    void noteTiming(const std::string &name,
                    const std::vector<double> &samples,
                    const std::string &unit, double need_p = 0.0);

    void note(std::string line) { notes.push_back(std::move(line)); }
};

/**
 * Simulated cells with the host time each took: the source of the
 * core / fetch / branch / cache per-layer metrics.
 */
class CellLedger
{
  public:
    void add(const fetchsim::RunResult &run, std::uint64_t host_ns);

    /**
     * Set core.ns_per_cycle (overall, per scheme, per machine),
     * core.cycles, core.retired, fetch.delivered_per_group,
     * fetch.stall_frac, branch.btb_hit_ratio, branch.mispredict_rate
     * and cache.icache_miss_ratio, with counts per @p passes.
     */
    void report(Report &report, std::size_t passes) const;

  private:
    struct Sum
    {
        std::uint64_t hostNs = 0;
        std::uint64_t cycles = 0;
    };
    fetchsim::RunCounters total_;
    Sum all_;
    std::map<std::string, Sum> by_scheme_;
    std::map<std::string, Sum> by_machine_;
};

/**
 * What one run measures.  Each workload fills it; reportRun() turns
 * it into the metrics every workload reports the same way.
 */
struct Samples
{
    std::vector<double> setupS;      //!< one per set-up
    std::vector<double> wallS;       //!< one per untraced pass
    std::vector<double> tracedWallS; //!< one per traced pass
    std::vector<double> coldMs;      //!< jobs that simulated
    std::vector<double> cachedMs;    //!< jobs served from a record
    std::vector<double> cellMs;      //!< host time of each cell
    std::vector<double> queueMs;     //!< each cell's wait for a worker
    std::uint64_t retired = 0;       //!< over the untraced passes
    std::uint64_t jobs = 0;          //!< over the untraced passes
    double busyS = 0.0;              //!< cell time within busyWallS
    double busyWallS = 0.0;
    int busyThreads = 1;
    double renderMs = 0.0; //!< writeRunsJson on one job's result
    double peakRssMb = 0.0;
    CellLedger ledger;
    std::size_t ledgerPasses = 1; //!< passes the ledger covers

    /** Fold in one untraced sweep pass of @p wall_s seconds. */
    void addSweepPass(const fetchsim::SweepResult &sweep, double wall_s);
};

/** Everything a workload needs from the driver. */
struct Context
{
    const Options &options;
    Report &report;
    std::vector<Span> &spans; //!< a traced run's spans, id = index + 1
};

/** Monotonic nanoseconds on the profiler's clock (steady_clock). */
std::uint64_t nowNs();

/** True when every counter of @p a equals that of @p b. */
bool countersEqual(const fetchsim::RunCounters &a,
                   const fetchsim::RunCounters &b);

/**
 * Drain fetchsim::Profiler into @p spans.  The driver's own spans are
 * PerfScopes labelled "<layer>.<what>"; the simulator's scopes are
 * renamed by layer, and its 1-in-64 sampled `fetch.<scheme>` slices
 * are dropped.  Parents follow nesting on each thread; a top-level
 * span of another thread hangs under the innermost span of the driver
 * thread (the one that records "bench.*" spans) that encloses it.
 * Call it when no driver span is open.
 */
void importProfilerEvents(std::vector<Span> &spans);

/**
 * The wait from its parent's start (the sweep or report call) of every
 * "sim.cell" span in @p spans from index @p from on, in milliseconds.
 */
std::vector<double> cellQueueMs(const std::vector<Span> &spans,
                                std::size_t from);

/** Current resident-set high-water mark of process @p pid in MB. */
double peakRssMb(int pid);

/** Seeded 64-bit mixer (splitmix64). */
std::uint64_t mix64(std::uint64_t x);

/** The machine models of the paper, in order. */
std::vector<fetchsim::MachineModel> allMachines();

/** Every registered scheme, in registry order. */
std::vector<fetchsim::SchemeKind> allSchemes();

/**
 * Note every timing of @p samples with its tail and count, then set
 * the end-to-end metrics (untraced run) or, after the component pass,
 * the per-layer metrics all workloads derive the same way (traced).
 */
void reportRun(Context &ctx, const Samples &samples);

/**
 * Call @p fn(i) for every i in [0, n) from @p threads threads, which
 * claim indices in order; rethrows the first exception after joining.
 */
void parallelFor(std::size_t n, int threads,
                 const std::function<void(std::size_t)> &fn);

/** Write @p runs as a complete checkpoint journal at @p path. */
void writeJournal(const std::string &path,
                  const std::vector<fetchsim::RunResult> &runs);

/** @name Workloads and the component pass */
///@{
void runPaperReport(Context &ctx);
void runDesignSweep(Context &ctx);
void runServiceMix(Context &ctx);

/**
 * Time BTB lookup+update, I-cache access, the collapse network at
 * widths 4/8/16, Executor::fill and DynTrace::getBatch through their
 * public headers (ns per op), after generating, laying out and
 * recording one benchmark under workload/compiler/exec spans.
 */
void runComponents(Context &ctx);
///@}

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_
