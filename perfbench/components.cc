/**
 * @file
 * The component pass: each simulator component timed alone through
 * its public header, as nanoseconds per operation (the method of
 * bench/micro_components, driven from the benchmark).  Inputs are
 * drawn from the run's seed at run time, so no work is folded away;
 * every result feeds a checksum the pass keeps.  A single-flight probe
 * then drives the result cache and the replay cache from two threads.
 */

#include <random>

#include "bench.h"
#include "branch/btb.h"
#include "cache/icache.h"
#include "compiler/code_layout.h"
#include "compiler/nop_padding.h"
#include "exec/executor.h"
#include "exec/replay_buffer.h"
#include "fetch/hw_models.h"
#include "sim/plan.h"
#include "sim/result_cache.h"
#include "sim/session.h"
#include "workload/benchmark_suite.h"
#include "workload/generator.h"

using namespace fetchsim;

namespace perfbench
{

namespace
{

/** Results of timed work, kept so the compiler cannot drop it. */
volatile std::uint64_t g_sink = 0;

/** Median ns per op of @p reps timings of @p ops calls to @p body. */
template <typename Body>
double
nsPerOp(std::size_t ops, Body &&body, int reps = 7)
{
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        const std::uint64_t t0 = nowNs();
        body();
        samples.push_back(double(nowNs() - t0) / double(ops));
    }
    return median(samples);
}

} // anonymous namespace

void
runComponents(Context &ctx)
{
    Report &report = ctx.report;
    PerfScope pass("bench.components");
    std::mt19937_64 rng(mix64(ctx.options.seed ^ 0xc0c0));

    // One benchmark generated, laid out three ways and recorded, each
    // step under its layer's span.
    const WorkloadSpec &spec = benchmarkByName("gcc");
    Workload base(spec);
    {
        PerfScope span("workload.generate");
        base = generateWorkload(spec);
    }
    {
        Workload reordered = base;
        PerfScope span("compiler.layout");
        reorderWorkload(reordered);
    }
    {
        Workload padded = base;
        PerfScope span("compiler.layout");
        padAll(padded, 16);
    }
    {
        Workload padded = base;
        PerfScope span("compiler.layout");
        std::vector<Trace> traces;
        reorderWorkload(padded, {}, {}, &traces);
        padTrace(padded, traces, 16);
    }

    constexpr std::size_t kInsts = 1 << 20;
    constexpr std::size_t kBatch = 256;
    DynTrace trace;
    {
        PerfScope span("exec.record");
        Executor exec(base, kEvalInput);
        trace = recordStream(exec, kInsts);
    }
    std::vector<DynInst> buf(kBatch);
    {
        PerfScope span("exec.fill");
        Executor exec(base, kEvalInput);
        report.set("exec.fill_ns_per_inst", nsPerOp(kInsts, [&] {
                       std::uint64_t sum = 0;
                       for (std::size_t n = 0; n < kInsts; n += kBatch) {
                           exec.fill(buf.data(), kBatch);
                           sum += buf[kBatch - 1].pc;
                       }
                       g_sink = g_sink + sum;
                   }),
                   "ns");
    }
    {
        PerfScope span("exec.getbatch");
        report.set("exec.getbatch_ns_per_inst", nsPerOp(kInsts, [&] {
                       std::uint64_t sum = 0;
                       for (std::size_t n = 0; n + kBatch <= trace.size();
                            n += kBatch) {
                           trace.getBatch(n, kBatch, buf.data());
                           sum += buf[kBatch - 1].pc;
                       }
                       g_sink = g_sink + sum;
                   }),
                   "ns");
    }

    // Branch and cache: the fetch addresses of the recorded stream,
    // so hit ratios follow a real program rather than a pattern.
    constexpr std::size_t kOps = 1 << 20;
    std::vector<std::uint64_t> pcs(kOps), targets(kOps);
    std::vector<std::uint8_t> taken(kOps);
    for (std::size_t i = 0; i < kOps; ++i) {
        DynInst di;
        trace.get(i % trace.size(), di);
        pcs[i] = di.pc;
        targets[i] = di.actualTarget;
        taken[i] = di.taken ? 1 : 0;
    }
    {
        PerfScope span("branch.btb");
        Btb btb(1024, 4);
        report.set("branch.btb_probe_ns", nsPerOp(kOps, [&] {
                       std::uint64_t sum = 0;
                       for (std::size_t i = 0; i < kOps; ++i) {
                           sum += btb.lookup(pcs[i]).target;
                           btb.update(pcs[i], taken[i] != 0, targets[i]);
                       }
                       g_sink = g_sink + sum;
                   }),
                   "ns");
    }
    {
        PerfScope span("cache.icache");
        ICache cache(32 * 1024, 16);
        report.set("cache.icache_access_ns", nsPerOp(kOps, [&] {
                       std::uint64_t hits = 0;
                       for (std::size_t i = 0; i < kOps; ++i)
                           hits += cache.access(pcs[i]) ? 1 : 0;
                       g_sink = g_sink + hits;
                   }),
                   "ns");
    }
    for (int width : {4, 8, 16}) {
        PerfScope span("fetch.collapse.w" + std::to_string(width));
        CollapsingBufferLogic logic(
            width, CollapsingBufferLogic::Impl::Crossbar);
        constexpr std::size_t kGroups = 256;
        constexpr std::size_t kApplies = 1 << 16;
        std::vector<std::vector<FetchSlot>> groups(kGroups);
        for (auto &slots : groups) {
            slots.resize(2 * static_cast<std::size_t>(width));
            for (std::size_t i = 0; i < slots.size(); ++i) {
                slots[i].word = static_cast<std::uint32_t>(rng());
                slots[i].valid = (rng() & 3) != 0;
            }
        }
        report.set("fetch.collapse_ns.w" + std::to_string(width),
                   nsPerOp(kApplies, [&] {
                       std::uint64_t sum = 0;
                       for (std::size_t i = 0; i < kApplies; ++i)
                           sum += logic.apply(groups[i % kGroups]).size();
                       g_sink = g_sink + sum;
                   }),
                   "ns");
    }

    // Single-flight probe: two threads run the same cells (gcc on
    // every machine and scheme) in the same order through one
    // ResultCache and one replay-mem Session, so one simulates each
    // cell while the other waits on it or hits it.  On a workload where
    // the result cache or the replay cache does not run, its per-layer
    // metrics come from here.
    {
        PerfScope span("sim.result_cache.probe");
        const std::vector<RunConfig> configs = ExperimentPlan()
                                                   .benchmarks({"gcc"})
                                                   .machines(allMachines())
                                                   .schemes(allSchemes())
                                                   .maxRetired(100000)
                                                   .expand();
        Session session;
        ResultCache cache;
        ReplayOptions replay;
        replay.policy = ReplayPolicy::InMemory;
        std::vector<RunCounters> seen[2];
        parallelFor(2, 2, [&](std::size_t t) {
            for (const RunConfig &config : configs) {
                const std::uint64_t key = runKey(config);
                RunCounters counters;
                if (cache.acquire(key, counters) ==
                    ResultCache::Outcome::Miss) {
                    try {
                        counters =
                            session.run(config, {}, 0, replay).counters;
                    } catch (...) {
                        cache.abandon(key);
                        throw;
                    }
                    cache.fulfill(key, counters);
                }
                seen[t].push_back(counters);
            }
        });
        const ResultCacheStats cached = cache.stats();
        bool same = cached.misses == configs.size();
        for (std::size_t i = 0; i < configs.size(); ++i)
            same = same && countersEqual(seen[0][i], seen[1][i]);
        report.outcomes.record(same, "single-flight probe simulated a "
                                     "cell twice or served other counters",
                               configs.size());
        const ReplayStats replayed = session.replayStats();
        // Set only where the workload itself did not measure them.
        report.metrics.emplace(
            "sim.result_cache.hit_ratio",
            Metric{double(cached.hits) / double(cached.hits + cached.misses),
                   "ratio"});
        report.metrics.emplace("sim.result_cache.waits",
                               Metric{double(cached.waits), "count"});
        report.metrics.emplace(
            "exec.replay_hit_ratio",
            Metric{double(replayed.hits) /
                       double(replayed.hits + replayed.misses),
                   "ratio"});
        report.metrics.emplace(
            "exec.replay_mb",
            Metric{double(replayed.bytesInMemory) / 1048576.0, "MB"});
    }
}

} // namespace perfbench
