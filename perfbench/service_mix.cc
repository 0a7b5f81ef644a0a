/**
 * @file
 * service-mix: one `fetchsim_cli serve` daemon with an empty result
 * cache and a fresh journal, driven by a closed loop of two client
 * connections.  Every plan has the shape of the top-level README's
 * `submit` example (the integer benchmarks x two machines x all schemes).
 * Half the plans are cold (new content keys that simulate and append
 * to the journal) and half resubmit a finished cold plan (served by
 * the result cache and rendered), as serve_smoke.sh does; one cold
 * plan in eight is posted twice at once, so the result cache's single
 * flight has in-flight keys to wait on.  The only workload that
 * exercises sim/service, the result cache and result rendering.
 * perfbench/README.md says which of these choices are assumptions.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "bench.h"
#include "fetch/scheme_registry.h"
#include "sim/report.h"
#include "sim/service.h"
#include "sim/session.h"
#include "stats/json_parse.h"
#include "workload/benchmark_suite.h"

using namespace fetchsim;

namespace perfbench
{

namespace
{

constexpr int kClients = 2;
constexpr int kColdPerPass = 8; //!< new plans, one of them posted twice
constexpr int kCachedPerPass = 8;
constexpr std::uint64_t kWarmupInsts = 100000;
constexpr std::uint64_t kColdInsts = 40000;

/** A `fetchsim_cli serve` child process. */
class Daemon
{
  public:
    Daemon(const Options &opt, const std::string &socket,
           const std::string &journal)
        : socket_(socket)
    {
        std::filesystem::remove(socket);
        std::filesystem::remove(journal);
        const std::string log = opt.outDir + "/serve.log";
        // As many workers as the other workloads' simulation threads.
        const std::string threads = std::to_string(opt.threads);
        std::vector<std::string> args = {
            opt.cli,       "serve",         "--socket",
            socket,        "--threads",     threads,
            "--result-cache", journal,      "--log-level",
            "warn",        "--log-file",    log};
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            const int null = open("/dev/null", O_WRONLY);
            dup2(null, 1);
            dup2(null, 2);
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            execv(argv[0], argv.data());
            _exit(127);
        }
        const std::uint64_t deadline = nowNs() + 30'000'000'000ull;
        for (;;) {
            try {
                if (serviceRequest(socket_, "GET", "/healthz").status ==
                    200)
                    return;
            } catch (const SimException &) {
            }
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("serve exited during start-up");
            }
            if (nowNs() > deadline) {
                stop();
                throw std::runtime_error("serve never became healthy");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int pid() const { return pid_; }

    /**
     * Ask for a drain, then wait for the exit, killing the daemon after
     * 5 s (an idle drain takes milliseconds).  False when it had to be
     * killed.
     */
    bool
    stop()
    {
        if (pid_ < 0)
            return true;
        try {
            serviceRequest(socket_, "POST", "/v1/shutdown");
        } catch (const SimException &) {
            kill(pid_, SIGTERM);
        }
        const std::uint64_t deadline = nowNs() + 5'000'000'000ull;
        int status = 0;
        bool exited = true;
        while (waitpid(pid_, &status, WNOHANG) == 0) {
            if (nowNs() > deadline) {
                kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                exited = false;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
        return exited;
    }

  private:
    std::string socket_;
    int pid_ = -1;
};

/** One submit -> wait -> result round trip. */
struct JobOutcome
{
    bool ok = false;
    std::string why;
    std::uint64_t id = 0;
    std::size_t cells = 0;
    std::size_t cacheHits = 0;
    std::string doc;
};

/** Member @p key of a JSON object; throws when it is missing. */
const JsonValue &
field(const JsonValue &object, const char *key)
{
    const JsonValue *value = object.find(key);
    if (!value)
        throw std::runtime_error(std::string("missing field ") + key);
    return *value;
}

/** POST a plan; true when the service accepted it as job out.id. */
bool
submitJob(const std::string &socket, const std::string &body,
          JobOutcome &out)
{
    PerfScope span("sim.service.submit");
    const ServiceResponse r =
        serviceRequest(socket, "POST", "/v1/jobs", body);
    if (r.status != 202) {
        out.why = "submit answered HTTP " + std::to_string(r.status);
        return false;
    }
    out.id = field(parseJson(r.body).value(), "job").asU64();
    return true;
}

/** Wait for an accepted job, then fetch its result document. */
void
finishJob(const std::string &socket, JobOutcome &out)
{
    const std::string path = "/v1/jobs/" + std::to_string(out.id);
    ServiceResponse r;
    {
        PerfScope span("sim.service.wait");
        r = serviceRequest(socket, "GET", path + "?wait=1");
    }
    if (r.status != 200) {
        out.why = "wait answered HTTP " + std::to_string(r.status);
        return;
    }
    const JsonValue status = parseJson(r.body).value();
    out.cells = field(status, "cells").asU64();
    out.cacheHits = field(status, "cache_hits").asU64();
    if (field(status, "state").asString() != "done" ||
        field(status, "failed").asU64() != 0) {
        out.why = "job ended " + field(status, "state").asString();
        return;
    }
    {
        PerfScope span("sim.service.result");
        r = serviceRequest(socket, "GET", path + "/result");
    }
    if (r.status != 200) {
        out.why = "result answered HTTP " + std::to_string(r.status);
        return;
    }
    out.doc = std::move(r.body);
    out.ok = true;
}

/**
 * Post @p body @p copies times before waiting on any of them, then
 * finish each; failures land in the outcomes, never a throw.
 */
std::vector<JobOutcome>
runJobs(const std::string &socket, const std::string &body, int copies)
{
    std::vector<JobOutcome> out(copies);
    try {
        PerfScope span("sim.service.job");
        std::vector<bool> accepted;
        for (JobOutcome &job : out)
            accepted.push_back(submitJob(socket, body, job));
        for (int i = 0; i < copies; ++i) {
            if (accepted[i])
                finishJob(socket, out[i]);
        }
    } catch (const std::exception &e) {
        for (JobOutcome &job : out) {
            if (!job.ok && job.why.empty())
                job.why = e.what();
        }
    }
    return out;
}

/** The runs of a result document, counters included. */
std::vector<RunResult>
parseRuns(const std::string &doc)
{
    std::vector<RunResult> runs;
    const JsonValue root = parseJson(doc).value();
    for (const JsonValue &run : field(root, "runs").elements()) {
        RunResult r;
        const JsonValue &config = field(run, "config");
        r.config.benchmark = field(config, "benchmark").asString();
        const SchemeInfo *scheme = FetchSchemeRegistry::instance().find(
            field(config, "scheme").asString());
        if (!scheme)
            throw std::runtime_error("unknown scheme in a result");
        r.config.scheme = scheme->kind;
        for (MachineModel m : allMachines()) {
            if (field(config, "machine").asString() == machineName(m))
                r.config.machine = m;
        }
        const JsonValue &c = field(run, "counters");
        auto u = [&](const char *key) { return field(c, key).asU64(); };
        r.counters.cycles = u("cycles");
        r.counters.retired = u("retired");
        r.counters.delivered = u("delivered");
        r.counters.fetchGroups = u("fetch_groups");
        r.counters.condBranches = u("cond_branches");
        r.counters.mispredicts = u("mispredicts");
        r.counters.icacheAccesses = u("icache_accesses");
        r.counters.icacheMisses = u("icache_misses");
        r.counters.btbLookups = u("btb_lookups");
        r.counters.btbHits = u("btb_hits");
        r.counters.stallCycles = u("stall_cycles");
        runs.push_back(r);
    }
    return runs;
}

/** Per-cell span durations (µs) of one job's trace, by cell index. */
std::map<std::size_t, double>
cellSpans(const std::string &trace, const std::string &prefix)
{
    std::map<std::size_t, double> out;
    const JsonValue root = parseJson(trace).value();
    for (const JsonValue &e : field(root, "traceEvents").elements()) {
        const JsonValue *name = e.find("name");
        const JsonValue *dur = e.find("dur");
        if (!name || !dur || name->asString().rfind(prefix, 0) != 0)
            continue;
        out[std::stoul(name->asString().substr(prefix.size()))] =
            dur->asNumber();
    }
    return out;
}

/** Counter and histogram values of a `/metrics` text document. */
std::map<std::string, double>
parseMetrics(const std::string &text)
{
    std::map<std::string, double> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        const auto eq = line.find(" = ");
        if (eq != std::string::npos && line[0] != ' ') {
            out[line.substr(0, eq)] = std::stod(line.substr(eq + 3));
            continue;
        }
        // "name (histogram) count=N mean=M ..." -> name.sum = N * M
        const auto hist = line.find(" (histogram) count=");
        if (hist == std::string::npos)
            continue;
        const double count = std::stod(line.substr(hist + 19));
        const auto mean = line.find("mean=", hist);
        out[line.substr(0, hist) + ".sum"] =
            count * std::stod(line.substr(mean + 5));
    }
    return out;
}

/** A plan the mix submitted new, and its document once it finished. */
struct ColdPlan
{
    std::string body;
    std::string doc;
};

} // anonymous namespace

void
runServiceMix(Context &ctx)
{
    const Options &opt = ctx.options;
    Report &report = ctx.report;
    const std::string socket =
        opt.outDir + "/serve-" + std::to_string(getpid()) + ".sock";
    const std::string journal =
        opt.outDir + "/serve-" + std::to_string(getpid()) + ".jsonl";

    std::vector<std::string> names;
    for (const WorkloadSpec &spec : fullSuite())
        names.push_back(spec.name);
    std::vector<std::string> schemes;
    for (const SchemeInfo &info : FetchSchemeRegistry::instance().schemes())
        schemes.push_back(info.key);
    const std::string warmup =
        planRequestJson(names, {"P14", "P18", "P112"}, {"sequential"}, {},
                        kWarmupInsts, 0);

    // Set-up: launch to a healthy /healthz plus one warm-up job that
    // runs every program on every machine (keys the mix never
    // reuses), kSetups times; the last daemon is traced and serves the
    // mix.
    Samples samples;
    samples.busyThreads = opt.threads;
    std::unique_ptr<Daemon> daemon;
    int killed = 0; // daemons that did not exit after a shutdown
    for (int i = 0; i < kSetups; ++i) {
        Profiler::setEnabled(opt.trace && i == kSetups - 1);
        if (daemon && !daemon->stop())
            ++killed;
        PerfScope setup("bench.setup");
        const std::uint64_t t0 = nowNs();
        {
            PerfScope span("sim.service.launch");
            daemon = std::make_unique<Daemon>(opt, socket, journal);
        }
        const JobOutcome w = runJobs(socket, warmup, 1)[0];
        samples.setupS.push_back(double(nowNs() - t0) / 1e9);
        report.outcomes.record(w.ok, "warm-up job: " + w.why);
    }
    Profiler::setEnabled(false);
    importProfilerEvents(ctx.spans);
    const auto metrics_before = parseMetrics(
        serviceRequest(socket, "GET", "/metrics").body);

    std::mutex mutex; // guards plans, completed, the rng and samples
    std::vector<ColdPlan> plans;
    std::vector<std::size_t> completed;
    std::mt19937_64 mix_rng(mix64(opt.seed ^ 0x313));

    // New plan i has the shape of the top-level README's `submit`
    // example (the integer benchmarks x two machines x all schemes),
    // with the machine pair taking turns so every machine runs, at a
    // budget of its own, so all its keys are new; the budgets start at
    // a seeded offset.  A resubmit asks for its plan ahead of the new ones
    // (priority 1), as someone waiting on a finished grid would, so it
    // does not queue behind the other client's simulation.
    const std::uint64_t offset = mix64(opt.seed) % 1000;
    const std::vector<std::vector<std::string>> pairs = {
        {"P14", "P112"}, {"P14", "P18"}, {"P18", "P112"}};
    auto planBody = [&](std::size_t i, int priority) {
        return planRequestJson(integerNames(), pairs[i % pairs.size()],
                               schemes, {}, kColdInsts + offset + i,
                               priority);
    };

    // Passes run for the measured time, and longer (up to three times
    // that) until cold_job_p90_ms has ten samples beyond it.
    enum class Slot { Cold, Twin, Cached };
    const std::uint64_t start = nowNs();
    auto more = [&](int pass) {
        const double elapsed = double(nowNs() - start) / 1e9;
        return pass < 2 || elapsed < opt.seconds ||
               (!opt.trace && samples.coldMs.size() < 100 &&
                elapsed < 3 * opt.seconds);
    };
    for (int pass = 0; more(pass); ++pass) {
        const bool traced = opt.trace && pass % 2 == 1;
        Profiler::setEnabled(traced);
        std::vector<Slot> slots(kColdPerPass - 1, Slot::Cold);
        slots.push_back(Slot::Twin);
        slots.resize(kColdPerPass + kCachedPerPass, Slot::Cached);
        std::shuffle(slots.begin(), slots.end(), mix_rng);
        std::size_t next = 0;
        auto client = [&] {
            for (;;) {
                Slot slot;
                std::size_t plan = 0;
                std::string body;
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (next == slots.size())
                        return;
                    slot = slots[next++];
                    // Until a new plan has finished there is nothing
                    // to resubmit.
                    if (slot == Slot::Cached && completed.empty())
                        slot = Slot::Cold;
                    if (slot == Slot::Cached) {
                        plan = completed[mix_rng() % completed.size()];
                        body = planBody(plan, 1);
                    } else {
                        plan = plans.size();
                        plans.push_back({planBody(plan, 0), ""});
                        body = plans[plan].body;
                    }
                }
                const std::uint64_t j0 = nowNs();
                std::vector<JobOutcome> jobs =
                    runJobs(socket, body, slot == Slot::Twin ? 2 : 1);
                const double ms = double(nowNs() - j0) / 1e6;
                JobOutcome &job = jobs[0];
                std::vector<RunResult> runs;
                std::map<std::size_t, double> sim, wait;
                if (job.ok && slot != Slot::Cached)
                    runs = parseRuns(job.doc);
                if (job.ok && slot == Slot::Cold && traced) {
                    const std::string trace =
                        serviceRequest(socket, "GET",
                                       "/v1/jobs/" + std::to_string(job.id) +
                                           "/trace")
                            .body;
                    sim = cellSpans(trace, "simulate cell ");
                    wait = cellSpans(trace, "queue-wait cell ");
                }
                std::lock_guard<std::mutex> lock(mutex);
                if (slot == Slot::Cold) {
                    job.ok = job.ok && job.cacheHits == 0;
                } else if (slot == Slot::Twin) {
                    // Single flight: the pair simulates each cell once
                    // and both get the same document.
                    const JobOutcome &copy = jobs[1];
                    report.outcomes.record(copy.ok, copy.why);
                    if (job.ok && copy.ok &&
                        (job.cacheHits + copy.cacheHits != job.cells ||
                         job.doc != copy.doc)) {
                        job.ok = false;
                        job.why = "a plan posted twice simulated a cell "
                                  "twice or got two documents";
                    }
                } else if (job.ok && (job.cacheHits != job.cells ||
                                      job.doc != plans[plan].doc)) {
                    job.ok = false;
                    job.why = "cached resubmit differs from its cold job";
                }
                report.outcomes.record(job.ok, job.why);
                if (job.ok && slot != Slot::Cached) {
                    plans[plan].doc = job.doc;
                    completed.push_back(plan);
                }
                if (traced) {
                    for (std::size_t k = 0; k < runs.size(); ++k) {
                        if (sim.count(k)) {
                            samples.ledger.add(runs[k],
                                               std::uint64_t(sim[k] * 1e3));
                        }
                    }
                    for (const auto &[cell, us] : sim)
                        samples.cellMs.push_back(us / 1e3);
                    for (const auto &[cell, us] : wait)
                        samples.queueMs.push_back(us / 1e3);
                    continue;
                }
                samples.jobs += jobs.size();
                // A plan posted twice is timed by neither list: half
                // of it waits on the other half.
                if (slot == Slot::Cold)
                    samples.coldMs.push_back(ms);
                else if (slot == Slot::Cached)
                    samples.cachedMs.push_back(ms);
                for (const RunResult &run : runs)
                    samples.retired += run.counters.retired;
            }
        };
        const std::uint64_t t0 = nowNs();
        {
            PerfScope span("bench.pass");
            std::vector<std::thread> clients;
            for (int c = 0; c < kClients; ++c)
                clients.emplace_back(client);
            for (std::thread &t : clients)
                t.join();
        }
        const double wall = double(nowNs() - t0) / 1e9;
        Profiler::setEnabled(false);
        if (traced) {
            samples.tracedWallS.push_back(wall);
            importProfilerEvents(ctx.spans);
        } else {
            samples.wallS.push_back(wall);
        }
        samples.busyWallS += wall;
        // The daemon keeps every job, so its memory is read after the
        // same jobs on every run, however fast they go.
        if (pass == 0)
            samples.peakRssMb = peakRssMb(daemon->pid());
    }
    const auto metrics_after = parseMetrics(
        serviceRequest(socket, "GET", "/metrics").body);

    // Gate: the service's document for the first two new plans equals
    // the same plan run in-process and rendered by writeRunsJson.
    Profiler::setEnabled(opt.trace);
    {
        PerfScope check("bench.check");
        Session session;
        for (std::size_t p = 0; p < 2 && p < plans.size(); ++p) {
            const std::vector<RunConfig> configs =
                planConfigsFromJson(parseJson(plans[p].body).value())
                    .value();
            std::vector<RunResult> runs(configs.size());
            parallelFor(configs.size(), opt.threads, [&](std::size_t k) {
                runs[k] = session.run(configs[k]);
            });
            std::ostringstream os;
            {
                PerfScope span("stats.render");
                const std::uint64_t t0 = nowNs();
                writeRunsJson(os, runs);
                samples.renderMs = double(nowNs() - t0) / 1e6;
            }
            report.outcomes.record(
                os.str() == plans[p].doc,
                "service document differs from an in-process run");
        }
    }
    Profiler::setEnabled(false);
    importProfilerEvents(ctx.spans);
    if (!daemon->stop())
        ++killed;
    std::filesystem::remove(journal);
    // Not counted as a failure, since every job was served, but a
    // daemon that outlives its shutdown is a service defect, so it is
    // reported rather than hidden.
    if (killed > 0) {
        report.note(std::to_string(killed) + " of " +
                    std::to_string(kSetups) +
                    " daemons did not exit within 5 s of POST "
                    "/v1/shutdown and were killed");
    }

    if (opt.trace) {
        auto delta = [&](const std::string &name) {
            auto a = metrics_after.find(name);
            auto b = metrics_before.find(name);
            return (a == metrics_after.end() ? 0.0 : a->second) -
                   (b == metrics_before.end() ? 0.0 : b->second);
        };
        const double lookups =
            delta("result_cache.hits") + delta("result_cache.misses");
        report.set("sim.result_cache.hit_ratio",
                   delta("result_cache.hits") / lookups, "ratio");
        report.set("sim.result_cache.waits", delta("result_cache.waits"),
                   "count");
        samples.busyS = delta("service.simulate_us.sum") / 1e6;
        samples.ledgerPasses = samples.tracedWallS.size();
    }
    reportRun(ctx, samples);
}

} // namespace perfbench
