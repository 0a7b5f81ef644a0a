#include "bench.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "fetch/scheme_registry.h"
#include "perf/profiler.h"
#include "sim/checkpoint.h"

using namespace fetchsim;

namespace perfbench
{

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    metrics[name] = Metric{value, unit};
}

void
Report::noteTiming(const std::string &name,
                   const std::vector<double> &samples,
                   const std::string &unit, double need_p)
{
    const Timing t = summarize(samples);
    std::ostringstream os;
    os << name << ": n=" << t.count << " p50=" << t.p50 << " " << unit;
    if (t.tailP > 0.0)
        os << " p" << t.tailP << "=" << t.tail << " " << unit;
    else
        os << " (no percentile has ten samples beyond it)";
    note(os.str());
    if (need_p > 0.0 && t.tailP < need_p) {
        outcomes.record(false, name + ": " + std::to_string(t.count) +
                                   " samples cannot support p" +
                                   std::to_string(int(need_p)));
    }
}

bool
countersEqual(const RunCounters &a, const RunCounters &b)
{
    if (a.cycles != b.cycles || a.retired != b.retired ||
        a.delivered != b.delivered || a.fetchGroups != b.fetchGroups ||
        a.condBranches != b.condBranches ||
        a.takenBranches != b.takenBranches ||
        a.intraBlockTaken != b.intraBlockTaken ||
        a.mispredicts != b.mispredicts ||
        a.controlMispredicts != b.controlMispredicts ||
        a.icacheAccesses != b.icacheAccesses ||
        a.icacheMisses != b.icacheMisses ||
        a.btbLookups != b.btbLookups || a.btbHits != b.btbHits ||
        a.stallCycles != b.stallCycles ||
        a.nopsRetired != b.nopsRetired ||
        a.nopsDelivered != b.nopsDelivered)
        return false;
    return std::equal(std::begin(a.stops), std::end(a.stops),
                      std::begin(b.stops));
}

void
CellLedger::add(const RunResult &run, std::uint64_t host_ns)
{
    const RunCounters &c = run.counters;
    total_.cycles += c.cycles;
    total_.retired += c.retired;
    total_.delivered += c.delivered;
    total_.fetchGroups += c.fetchGroups;
    total_.condBranches += c.condBranches;
    total_.mispredicts += c.mispredicts;
    total_.icacheAccesses += c.icacheAccesses;
    total_.icacheMisses += c.icacheMisses;
    total_.btbLookups += c.btbLookups;
    total_.btbHits += c.btbHits;
    total_.stallCycles += c.stallCycles;
    for (Sum *sum : {&all_, &by_scheme_[FetchSchemeRegistry::instance()
                                            .info(run.config.scheme)
                                            .key],
                     &by_machine_[machineName(run.config.machine)]}) {
        sum->hostNs += host_ns;
        sum->cycles += c.cycles;
    }
}

void
CellLedger::report(Report &report, std::size_t passes) const
{
    auto ratio = [](std::uint64_t num, std::uint64_t den) {
        return den == 0 ? 0.0 : double(num) / double(den);
    };
    report.set("core.ns_per_cycle", ratio(all_.hostNs, all_.cycles),
               "ns");
    // Every workload reports the same metric set, so only schemes all
    // three simulate get a metric: paper-report never runs
    // multi-banked.
    for (const SchemeInfo &info : FetchSchemeRegistry::instance().schemes()) {
        if (info.kind == SchemeKind::MultiBanked)
            continue;
        auto it = by_scheme_.find(info.key);
        report.set(std::string("core.ns_per_cycle.") + info.key,
                   it == by_scheme_.end()
                       ? 0.0
                       : ratio(it->second.hostNs, it->second.cycles),
                   "ns");
    }
    for (MachineModel m : allMachines()) {
        auto it = by_machine_.find(machineName(m));
        report.set(std::string("core.ns_per_cycle.") + machineName(m),
                   it == by_machine_.end()
                       ? 0.0
                       : ratio(it->second.hostNs, it->second.cycles),
                   "ns");
    }
    const double per = passes == 0 ? 0.0 : 1.0 / double(passes);
    report.set("core.cycles", double(total_.cycles) * per, "count");
    report.set("core.retired", double(total_.retired) * per, "count");
    report.set("fetch.delivered_per_group",
               ratio(total_.delivered, total_.fetchGroups), "inst");
    report.set("fetch.stall_frac",
               ratio(total_.stallCycles, total_.cycles), "ratio");
    report.set("branch.btb_hit_ratio",
               ratio(total_.btbHits, total_.btbLookups), "ratio");
    report.set("branch.mispredict_rate",
               ratio(total_.mispredicts, total_.condBranches), "ratio");
    report.set("cache.icache_miss_ratio",
               ratio(total_.icacheMisses, total_.icacheAccesses),
               "ratio");
}

void
Samples::addSweepPass(const SweepResult &sweep, double wall_s)
{
    wallS.push_back(wall_s);
    busyWallS += wall_s;
    jobs += sweep.runs.size();
    for (std::size_t i = 0; i < sweep.runs.size(); ++i) {
        const double ms = double(sweep.host[i].wallNs) / 1e6;
        retired += sweep.runs[i].counters.retired;
        coldMs.push_back(ms);
        cellMs.push_back(ms);
        busyS += ms / 1e3;
        ledger.add(sweep.runs[i], sweep.host[i].wallNs);
    }
}

void
reportRun(Context &ctx, const Samples &s)
{
    Report &report = ctx.report;
    const bool trace = ctx.options.trace;
    report.noteTiming("setup_s", s.setupS, "s");
    report.noteTiming("wall_s", s.wallS, "s");
    // cold_job_p90_ms needs ten samples beyond it.
    report.noteTiming("cold_job_ms", s.coldMs, "ms", trace ? 0.0 : 90.0);
    report.noteTiming("cached_job_ms", s.cachedMs, "ms");
    if (!trace) {
        double pass_s = 0.0;
        for (double w : s.wallS)
            pass_s += w;
        report.set("setup_s", median(s.setupS), "s");
        report.set("wall_s", median(s.wallS), "s");
        report.set("sim_minsts_per_s", double(s.retired) / 1e6 / pass_s,
                   "Minst/s");
        report.set("jobs_per_s", double(s.jobs) / pass_s, "1/s");
        report.set("cold_job_p50_ms", nearestRank(s.coldMs, 50.0), "ms");
        report.set("cold_job_p90_ms", nearestRank(s.coldMs, 90.0), "ms");
        report.set("cached_job_p50_ms", median(s.cachedMs), "ms");
        report.set("peak_rss_mb", s.peakRssMb, "MB");
        return;
    }

    Profiler::setEnabled(true);
    runComponents(ctx);
    Profiler::setEnabled(false);
    importProfilerEvents(ctx.spans);
    const std::vector<Span> &spans = ctx.spans;
    auto seconds = [&](const std::string &name) {
        std::uint64_t ns = 0;
        for (const Span &span : spans)
            ns += span.name == name ? span.endNs - span.startNs : 0;
        return double(ns) / 1e9;
    };
    s.ledger.report(report, s.ledgerPasses);
    report.set("workload.generate_s", seconds("workload.generate"), "s");
    report.set("compiler.layout_s", seconds("compiler.layout"), "s");
    report.set("compiler.layouts",
               double(std::count_if(spans.begin(), spans.end(),
                                    [](const Span &span) {
                                        return span.name ==
                                               "compiler.layout";
                                    })),
               "count");
    report.set("exec.record_s", seconds("exec.record"), "s");
    report.set("sim.sweep.parallel_eff",
               s.busyS / (double(s.busyThreads) * s.busyWallS), "ratio");
    report.set("sim.cell_ms.p50", nearestRank(s.cellMs, 50.0), "ms");
    report.set("sim.cell_ms.max", nearestRank(s.cellMs, 100.0), "ms");
    report.set("sim.service.queue_wait_p50_ms", nearestRank(s.queueMs, 50.0),
               "ms");
    report.set("sim.service.simulate_p50_ms", nearestRank(s.cellMs, 50.0),
               "ms");
    report.set("stats.render_runs_json_ms", s.renderMs, "ms");
    report.set("perf.trace_overhead_frac",
               median(s.tracedWallS) / median(s.wallS) - 1.0, "ratio");
}

void
parallelFor(std::size_t n, int threads,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::mutex mutex; // guards error
    std::exception_ptr error;
    auto work = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!error)
                    error = std::current_exception();
                next = n;
            }
        }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(work);
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

void
writeJournal(const std::string &path, const std::vector<RunResult> &runs)
{
    std::ofstream out(path, std::ios::trunc);
    for (const RunResult &run : runs)
        out << checkpointLine(runKey(run.config), run.counters) << "\n";
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

namespace
{

/**
 * The benchmark's layer-prefixed name for a profiler scope label.  The
 * driver's own labels already start with their layer.
 */
std::string
layerName(const std::string &label)
{
    static const std::set<std::string> layers = {
        "bench", "workload", "compiler", "exec", "core",
        "fetch", "branch",   "cache",    "sim",  "stats"};
    if (layers.count(layerOf(label)))
        return label;
    static const std::vector<std::pair<std::string, std::string>> map = {
        {"cell ", "sim.cell "},
        {"proc.", "core."},
        {"session.prepare", "workload.prepare"},
        {"session.", "sim.session."},
        {"replay.", "exec.replay."},
        {"checkpoint.", "sim.checkpoint."},
        {"result_cache.", "sim.result_cache."},
        {"service.", "sim.service."},
    };
    for (const auto &[from, to] : map) {
        if (label.compare(0, from.size(), from) == 0)
            return to + label.substr(from.size());
    }
    return "sim." + label;
}

} // anonymous namespace

std::uint64_t
nowNs()
{
    return Profiler::instance().nowNs();
}

void
importProfilerEvents(std::vector<Span> &spans)
{
    std::map<std::uint32_t, std::vector<PerfEvent>> by_thread;
    std::uint32_t driver = UINT32_MAX;
    for (PerfEvent &e : Profiler::instance().drain()) {
        // A sampled slice is "fetch.<scheme>"; the component pass's
        // "fetch.collapse.wN" spans have a second dot.
        if (e.name.compare(0, 6, "fetch.") == 0 &&
            e.name.find('.', 6) == std::string::npos)
            continue;
        if (e.name.compare(0, 6, "bench.") == 0)
            driver = e.tid;
        by_thread[e.tid].push_back(std::move(e));
    }
    // The driver's spans go first, so the other threads can hang
    // their top-level spans under them.
    std::vector<std::uint32_t> order;
    if (by_thread.count(driver))
        order.push_back(driver);
    for (const auto &[tid, list] : by_thread) {
        if (tid != driver)
            order.push_back(tid);
    }
    const std::size_t first = spans.size();
    std::size_t driver_end = first;
    for (std::uint32_t tid : order) {
        std::vector<PerfEvent> &list = by_thread[tid];
        // Enclosing scopes start first; at equal starts the longer
        // one encloses.
        std::sort(list.begin(), list.end(),
                  [](const PerfEvent &a, const PerfEvent &b) {
                      if (a.startNs != b.startNs)
                          return a.startNs < b.startNs;
                      return a.durNs > b.durNs;
                  });
        std::vector<std::size_t> open; // indices into spans
        for (PerfEvent &e : list) {
            Span span;
            span.id = spans.size() + 1;
            span.name = layerName(e.name);
            span.startNs = e.startNs;
            span.endNs = e.startNs + e.durNs;
            span.track = e.tid + 1;
            while (!open.empty() && spans[open.back()].endNs < span.endNs)
                open.pop_back();
            if (!open.empty()) {
                span.parent = spans[open.back()].id;
                // Preparing a layout is compiler work.
                if (e.name == "session.prepare" &&
                    layerOf(spans[open.back()].name) == "compiler")
                    span.name = "compiler.prepare";
            } else if (tid != driver) {
                // The latest-starting driver span that encloses it.
                for (std::size_t d = driver_end; d-- > first;) {
                    if (spans[d].startNs <= span.startNs &&
                        spans[d].endNs >= span.endNs) {
                        span.parent = spans[d].id;
                        break;
                    }
                }
            }
            open.push_back(spans.size());
            spans.push_back(std::move(span));
        }
        if (tid == driver)
            driver_end = spans.size();
    }
}

std::vector<double>
cellQueueMs(const std::vector<Span> &spans, std::size_t from)
{
    std::vector<double> out;
    for (std::size_t i = from; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.name.compare(0, 9, "sim.cell ") == 0 && s.parent != 0)
            out.push_back(double(s.startNs - spans[s.parent - 1].startNs) /
                          1e6);
    }
    return out;
}

double
peakRssMb(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MB
    }
    return 0.0;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::vector<MachineModel>
allMachines()
{
    return {MachineModel::P14, MachineModel::P18, MachineModel::P112};
}

std::vector<SchemeKind>
allSchemes()
{
    std::vector<SchemeKind> kinds;
    for (const SchemeInfo &info : FetchSchemeRegistry::instance().schemes())
        kinds.push_back(info.kind);
    return kinds;
}

} // namespace perfbench
