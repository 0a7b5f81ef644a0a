// Tests of the benchmark's own statistics (perfbench/stats.h).

#include <gtest/gtest.h>

#include <thread>

#include "stats.h"

using namespace perfbench;

namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

Span
span(std::uint64_t id, std::uint64_t parent, const char *name,
     std::uint64_t start, std::uint64_t end)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.startNs = start;
    s.endNs = end;
    return s;
}

} // anonymous namespace

TEST(NearestRank, PicksTheCeilingRank)
{
    EXPECT_EQ(nearestRank(oneTo(10), 50.0), 5.0);
    EXPECT_EQ(nearestRank(oneTo(10), 90.0), 9.0);
    EXPECT_EQ(nearestRank(oneTo(10), 91.0), 10.0);
    EXPECT_EQ(nearestRank(oneTo(10), 100.0), 10.0);
    EXPECT_EQ(nearestRank(oneTo(4), 1.0), 1.0);
    EXPECT_EQ(nearestRank({}, 50.0), 0.0);
}

TEST(TailPercentile, NeedsTenSamplesBeyond)
{
    EXPECT_EQ(tailPercentile(0), 0.0);
    EXPECT_EQ(tailPercentile(19), 0.0);  // p50 is rank 10: 9 beyond
    EXPECT_EQ(tailPercentile(20), 50.0); // rank 10: 10 beyond
    EXPECT_EQ(tailPercentile(99), 50.0); // p90 is rank 90: 9 beyond
    EXPECT_EQ(tailPercentile(100), 90.0);
    EXPECT_EQ(tailPercentile(999), 90.0); // p99 is rank 990: 9 beyond
    EXPECT_EQ(tailPercentile(1000), 99.0);
    EXPECT_EQ(tailPercentile(10000), 99.9);
}

TEST(Summarize, ReportsMedianTailAndCount)
{
    const Timing t = summarize(oneTo(100));
    EXPECT_EQ(t.count, 100u);
    EXPECT_EQ(t.p50, 50.0);
    EXPECT_EQ(t.tailP, 90.0);
    EXPECT_EQ(t.tail, 90.0);
    const Timing few = summarize(oneTo(5));
    EXPECT_EQ(few.tailP, 0.0);
    EXPECT_EQ(few.tail, 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    // root [0,100): children [10,40) and [30,60) overlap on [30,40),
    // so they cover 50; a grandchild [12,20) belongs to child 2 only.
    const std::vector<Span> spans = {
        span(1, 0, "bench.pass", 0, 100),
        span(2, 1, "sim.sweep", 10, 40),
        span(3, 1, "core.run", 30, 60),
        span(4, 2, "core.cycles", 12, 20),
    };
    const auto self = selfTimes(spans);
    EXPECT_EQ(self.at(1), 50u);
    EXPECT_EQ(self.at(2), 22u);
    EXPECT_EQ(self.at(3), 30u);
    EXPECT_EQ(self.at(4), 8u);

    const auto layers = layerSelfTimes(spans);
    EXPECT_EQ(layers.at("bench"), 50u);
    EXPECT_EQ(layers.at("sim"), 22u);
    EXPECT_EQ(layers.at("core"), 38u);
}

TEST(SelfTime, ClipsChildrenToTheParent)
{
    // A child on another thread may outlive its parent's interval.
    const std::vector<Span> spans = {
        span(1, 0, "bench.pass", 100, 200),
        span(2, 1, "sim.cell", 50, 150),
        span(3, 1, "sim.cell", 190, 260),
    };
    EXPECT_EQ(selfTimes(spans).at(1), 40u);
}

TEST(LayerOf, IsThePrefixBeforeTheFirstDot)
{
    EXPECT_EQ(layerOf("sim.service.job"), "sim");
    EXPECT_EQ(layerOf("core"), "core");
}

TEST(Outcomes, CountsFailuresAgainstAttempts)
{
    Outcomes o;
    EXPECT_EQ(o.failedFrac(), 0.0);
    o.record(true, "", 486);
    o.record(false, "report differs", 14);
    o.record(true, "");
    EXPECT_EQ(o.attempted(), 501u);
    EXPECT_EQ(o.failed(), 14u);
    EXPECT_DOUBLE_EQ(o.failedFrac(), 14.0 / 501.0);
    ASSERT_EQ(o.reasons().size(), 1u);
    EXPECT_EQ(o.reasons()[0], "report differs");
}

TEST(Outcomes, CountsFromManyThreads)
{
    Outcomes o;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&o, t] {
            for (int i = 0; i < 1000; ++i)
                o.record(i % 100 != t, "job failed");
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(o.attempted(), 4000u);
    EXPECT_EQ(o.failed(), 40u);
    EXPECT_EQ(o.reasons().size(), 8u); // only the first few are kept
}
