/**
 * @file
 * paper-report: regenerate the reproduction report (docs/RESULTS.md)
 * on a warmed Session with replay off.  The only workload with heavy
 * compiler work (every reordered and padded layout) and the only one
 * whose cycle loop pulls instructions from the live Executor.  The
 * report is pinned byte for byte, so the seed does not apply.
 */

#include <unistd.h>

#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "bench.h"
#include "core/machine_config.h"
#include "perf/profiler.h"
#include "sim/report.h"
#include "sim/repro_report.h"
#include "sim/session.h"

using namespace fetchsim;

namespace perfbench
{

namespace
{

/** Every (benchmark, layout, block) key the report prepares. */
std::vector<std::tuple<std::string, LayoutKind, std::uint64_t>>
reportKeys()
{
    std::vector<std::tuple<std::string, LayoutKind, std::uint64_t>> keys;
    std::vector<std::string> names = integerNames();
    for (const std::string &name : fpNames())
        names.push_back(name);
    for (const std::string &name : names)
        keys.emplace_back(name, LayoutKind::Unordered, 0);
    for (const std::string &name : integerNames()) {
        keys.emplace_back(name, LayoutKind::Reordered, 0);
        for (MachineModel m : allMachines()) {
            const std::uint64_t block = makeMachine(m).blockBytes;
            keys.emplace_back(name, LayoutKind::PadAll, block);
            keys.emplace_back(name, LayoutKind::PadTrace, block);
        }
    }
    return keys;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // anonymous namespace

void
runPaperReport(Context &ctx)
{
    const Options &opt = ctx.options;
    Report &report = ctx.report;
    const std::string expected = readFile(opt.root + "/docs/RESULTS.md");
    const auto keys = reportKeys();
    Samples samples;
    samples.busyThreads = opt.threads;

    // Set-up: prepare every key on a fresh Session from the report's
    // thread count, kSetups times; the last one is traced and serves
    // the measured passes.
    std::unique_ptr<Session> session;
    for (int i = 0; i < kSetups; ++i) {
        Profiler::setEnabled(opt.trace && i == kSetups - 1);
        session.reset();
        session = std::make_unique<Session>();
        PerfScope setup("bench.setup");
        const std::uint64_t t0 = nowNs();
        parallelFor(keys.size(), opt.threads, [&](std::size_t k) {
            const auto &[name, layout, block] = keys[k];
            PerfScope span(layout == LayoutKind::Unordered
                               ? "workload.generate"
                               : "compiler.layout");
            session->workload(name, layout, block);
        });
        samples.setupS.push_back(double(nowNs() - t0) / 1e9);
    }
    Profiler::setEnabled(false);
    importProfilerEvents(ctx.spans);
    const std::size_t warmed = session->cachedWorkloads();

    ReproReportOptions ro;
    ro.threads = opt.threads;
    ro.replay.policy = ReplayPolicy::Off;

    // Cached jobs: the report resumed from a journal that holds every
    // cell of the pass before it (`report --threads 1 --checkpoint J
    // --resume`), so nothing simulates; the cost is per journaled cell.
    // After each untraced pass one resume per simulation thread runs at
    // once, so the CPUs stay as busy as in the pass and both see the
    // same host conditions.
    std::mutex mutex; // guards samples.cachedMs
    auto journal = [&](std::size_t k) {
        return opt.outDir + "/report-" + std::to_string(getpid()) + "-" +
               std::to_string(k) + ".jsonl";
    };
    auto cachedPass = [&](const SweepResult &from) {
        for (int k = 0; k < opt.threads; ++k)
            writeJournal(journal(k), from.runs);
        parallelFor(opt.threads, opt.threads, [&](std::size_t k) {
            ReproReportOptions cached = ro;
            cached.threads = 1;
            cached.checkpointPath = journal(k);
            cached.resume = true;
            SweepResult resumed;
            const std::uint64_t t0 = nowNs();
            const std::string doc =
                generateReproReport(*session, cached, &resumed);
            const double ms = double(nowNs() - t0) / 1e6;
            const std::size_t n = resumed.runs.size();
            const std::size_t from_journal = static_cast<std::size_t>(
                std::count_if(resumed.statuses.begin(),
                              resumed.statuses.end(),
                              [](const RunStatus &status) {
                                  return status.fromCheckpoint;
                              }));
            report.outcomes.record(doc == expected && from_journal == n,
                                   "resumed report differs or simulated",
                                   n);
            std::lock_guard<std::mutex> lock(mutex);
            samples.cachedMs.push_back(ms /
                                       double(std::max<std::size_t>(n, 1)));
        });
    };

    SweepResult grid;
    const std::uint64_t start = nowNs();
    for (int pass = 0;
         pass < 2 || double(nowNs() - start) / 1e9 < opt.seconds; ++pass) {
        // A traced run alternates untraced and traced passes; the
        // untraced ones give the overhead's base.
        const bool traced = opt.trace && pass % 2 == 1;
        Profiler::setEnabled(traced);
        std::string doc;
        const std::size_t first = ctx.spans.size();
        const std::uint64_t t0 = nowNs();
        {
            PerfScope span("bench.pass");
            PerfScope call("sim.report");
            doc = generateReproReport(*session, ro, &grid);
        }
        const double wall = double(nowNs() - t0) / 1e9;
        Profiler::setEnabled(false);

        const std::size_t n = grid.runs.size();
        const std::size_t ok = grid.countWith(RunOutcome::Ok);
        if (doc != expected) {
            report.outcomes.record(false,
                                   "report differs from docs/RESULTS.md", n);
        } else {
            report.outcomes.record(true, "", ok);
            if (ok < n)
                report.outcomes.record(false, "report cell failed", n - ok);
        }
        if (traced) {
            samples.tracedWallS.push_back(wall);
            importProfilerEvents(ctx.spans);
            for (double ms : cellQueueMs(ctx.spans, first))
                samples.queueMs.push_back(ms);
        } else {
            samples.addSweepPass(grid, wall);
            cachedPass(grid);
        }
        // Read after the same work on every run, however fast it goes.
        if (pass == 0)
            samples.peakRssMb = peakRssMb(getpid());
    }
    while (samples.cachedMs.size() < 5)
        cachedPass(grid);
    for (int k = 0; k < opt.threads; ++k)
        std::remove(journal(k).c_str());
    // A key the report prepared itself would move set-up work into
    // the measured passes.
    if (session->cachedWorkloads() != warmed)
        report.outcomes.record(false, "set-up missed a report key");

    Profiler::setEnabled(opt.trace);
    {
        PerfScope span("bench.check");
        PerfScope render("stats.render");
        std::ostringstream os;
        const std::uint64_t t0 = nowNs();
        writeRunsJson(os, grid.runs);
        samples.renderMs = double(nowNs() - t0) / 1e6;
    }
    Profiler::setEnabled(false);
    importProfilerEvents(ctx.spans);
    samples.ledgerPasses = samples.wallS.size();
    reportRun(ctx, samples);
}

} // namespace perfbench
