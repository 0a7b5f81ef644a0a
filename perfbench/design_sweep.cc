/**
 * @file
 * design-sweep: one SweepEngine run over 15 benchmarks x 3 machines x
 * every registered scheme on the unordered layout with replay `mem`,
 * at 400k instructions a cell.  Nearly all its time is the cycle loop
 * fed by DynTrace::getBatch; the compiler does nothing.  The seed
 * re-seeds every suite WorkloadSpec, so each program keeps its
 * paper regime but was never used for tuning.
 */

#include <unistd.h>

#include <memory>
#include <mutex>
#include <random>
#include <sstream>

#include "bench.h"
#include "perf/profiler.h"
#include "sim/plan.h"
#include "sim/report.h"
#include "sim/session.h"
#include "sim/sweep.h"
#include "workload/benchmark_suite.h"

using namespace fetchsim;

namespace perfbench
{

namespace
{

constexpr std::uint64_t kInsts = 400000;

/** Registers the re-seeded suite for the run's lifetime. */
class SeededSuite
{
  public:
    explicit SeededSuite(std::uint64_t seed)
    {
        for (WorkloadSpec spec : fullSuite()) {
            spec.seed = mix64(seed ^ mix64(spec.seed));
            spec.name += "-s" + std::to_string(seed);
            registerDynamicBenchmark(spec);
            names_.push_back(spec.name);
        }
    }

    ~SeededSuite()
    {
        for (const std::string &name : names_)
            unregisterDynamicBenchmark(name);
    }

    SeededSuite(const SeededSuite &) = delete;
    SeededSuite &operator=(const SeededSuite &) = delete;

    const std::vector<std::string> &names() const { return names_; }

  private:
    std::vector<std::string> names_;
};

} // anonymous namespace

void
runDesignSweep(Context &ctx)
{
    const Options &opt = ctx.options;
    Report &report = ctx.report;
    const SeededSuite suite(opt.seed);
    Samples samples;
    samples.busyThreads = opt.threads;

    ExperimentPlan plan;
    plan.benchmarks(suite.names())
        .machines(allMachines())
        .schemes(allSchemes())
        .maxRetired(kInsts);
    const std::vector<RunConfig> configs = plan.expand();

    SweepOptions so;
    so.threads = opt.threads;
    so.replay.policy = ReplayPolicy::InMemory;

    // Set-up: generate every program and record its stream on a fresh
    // Session from the sweep's thread count, kSetups times; the last
    // one is traced and serves the measured passes.
    std::unique_ptr<Session> session;
    for (int i = 0; i < kSetups; ++i) {
        Profiler::setEnabled(opt.trace && i == kSetups - 1);
        session.reset();
        session = std::make_unique<Session>();
        PerfScope setup("bench.setup");
        const std::uint64_t t0 = nowNs();
        parallelFor(suite.names().size(), opt.threads, [&](std::size_t k) {
            const std::string &name = suite.names()[k];
            {
                PerfScope span("workload.generate");
                session->workload(name, LayoutKind::Unordered);
            }
            RunConfig config;
            config.benchmark = name;
            config.maxRetired = kInsts;
            PerfScope span("exec.record");
            session->prepareReplay(config, so.replay);
        });
        samples.setupS.push_back(double(nowNs() - t0) / 1e9);
    }
    Profiler::setEnabled(false);
    importProfilerEvents(ctx.spans);

    // Cached jobs: the sweep resumed from a journal that holds every
    // cell of the pass before it and rendered (`sweep --threads 1
    // --checkpoint J --resume --json`); the cost is per journaled
    // cell.  After each untraced pass, three rounds of one resume per
    // simulation thread run at once, so the CPUs stay as busy as in
    // the pass and both see the same host conditions.
    std::mutex mutex; // guards samples.cachedMs
    auto journal = [&](std::size_t k) {
        return opt.outDir + "/sweep-" + std::to_string(getpid()) + "-" +
               std::to_string(k) + ".jsonl";
    };
    auto cachedPass = [&](const SweepResult &from) {
        for (int k = 0; k < opt.threads; ++k)
            writeJournal(journal(k), from.runs);
        parallelFor(opt.threads, opt.threads, [&](std::size_t k) {
            SweepOptions resume = so;
            resume.threads = 1;
            resume.checkpointPath = journal(k);
            resume.resume = true;
            const std::uint64_t t0 = nowNs();
            const SweepResult resumed =
                SweepEngine(*session, resume).run(configs);
            std::ostringstream doc;
            writeRunsJson(doc, resumed.runs);
            const double ms = double(nowNs() - t0) / 1e6;
            const std::size_t n = resumed.runs.size();
            for (std::size_t i = 0; i < n; ++i) {
                report.outcomes.record(
                    resumed.statuses[i].fromCheckpoint &&
                        countersEqual(resumed.runs[i].counters,
                                      from.runs[i].counters),
                    "resumed cell simulated or differs");
            }
            std::lock_guard<std::mutex> lock(mutex);
            samples.cachedMs.push_back(ms /
                                       double(std::max<std::size_t>(n, 1)));
        });
    };

    SweepResult last;
    const std::uint64_t start = nowNs();
    for (int pass = 0;
         pass < 2 || double(nowNs() - start) / 1e9 < opt.seconds; ++pass) {
        // A traced run alternates untraced and traced passes; the
        // untraced ones give the overhead's base.
        const bool traced = opt.trace && pass % 2 == 1;
        Profiler::setEnabled(traced);
        SweepResult sweep;
        const std::size_t first = ctx.spans.size();
        const std::uint64_t t0 = nowNs();
        {
            PerfScope span("bench.pass");
            PerfScope call("sim.sweep");
            sweep = SweepEngine(*session, so).run(configs);
        }
        const double wall = double(nowNs() - t0) / 1e9;
        Profiler::setEnabled(false);
        if (traced) {
            samples.tracedWallS.push_back(wall);
            importProfilerEvents(ctx.spans);
            for (double ms : cellQueueMs(ctx.spans, first))
                samples.queueMs.push_back(ms);
        } else {
            samples.addSweepPass(sweep, wall);
            for (int i = 0; i < 3; ++i)
                cachedPass(sweep);
        }
        // Read after the same work on every run, however fast it goes.
        if (pass == 0)
            samples.peakRssMb = peakRssMb(getpid());

        const std::size_t n = sweep.runs.size();
        const std::size_t ok = sweep.countWith(RunOutcome::Ok);
        report.outcomes.record(true, "", ok);
        if (ok < n)
            report.outcomes.record(false, "sweep cell failed", n - ok);
        // Every pass repeats the same cells exactly.
        for (std::size_t i = 0; pass > 0 && i < n; ++i) {
            if (!countersEqual(sweep.runs[i].counters, last.runs[i].counters))
                report.outcomes.record(false, "pass counters differ");
        }
        last = std::move(sweep);
    }
    while (samples.cachedMs.size() < 5)
        cachedPass(last);
    for (int k = 0; k < opt.threads; ++k)
        std::remove(journal(k).c_str());

    // Gate: a seeded sample of cells re-run live (replay off) must give
    // the replayed counters exactly.
    Profiler::setEnabled(opt.trace);
    {
        PerfScope span("bench.check");
        std::mt19937_64 rng(mix64(opt.seed ^ 0x5eed));
        std::vector<RunConfig> sample;
        std::vector<std::size_t> index;
        for (int k = 0; k < 8; ++k) {
            index.push_back(rng() % configs.size());
            sample.push_back(configs[index.back()]);
        }
        SweepOptions live = so;
        live.replay.policy = ReplayPolicy::Off;
        const SweepResult check = SweepEngine(*session, live).run(sample);
        for (std::size_t k = 0; k < sample.size(); ++k) {
            report.outcomes.record(
                check.cellOk(k) &&
                    countersEqual(check.runs[k].counters,
                                  last.runs[index[k]].counters),
                "replay-off re-run differs from the replayed cell");
        }
        std::ostringstream os;
        PerfScope render("stats.render");
        const std::uint64_t t0 = nowNs();
        writeRunsJson(os, last.runs);
        samples.renderMs = double(nowNs() - t0) / 1e6;
    }
    Profiler::setEnabled(false);
    importProfilerEvents(ctx.spans);
    const ReplayStats replay = session->replayStats();
    if (replay.fallbacks != 0 || replay.misses != suite.names().size())
        report.outcomes.record(false, "replay cache missed or fell back");

    if (opt.trace) {
        report.set("exec.replay_mb", double(replay.bytesInMemory) / 1048576.0,
                   "MB");
        report.set("exec.replay_hit_ratio",
                   double(replay.hits) / double(replay.hits + replay.misses),
                   "ratio");
        samples.ledgerPasses = samples.wallS.size();
    }
    reportRun(ctx, samples);
}

} // namespace perfbench
