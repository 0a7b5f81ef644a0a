/**
 * @file
 * The fetchsim benchmark driver.
 *
 *   perfbench --workload paper-report|design-sweep|service-mix
 *             --seed N --seconds S --trace 0|1 --cli PATH
 *             [--root DIR] [--out-dir DIR] [--commit SHA]
 *
 * Runs one workload against the simulator's public API, checks its
 * outputs, prints a human-readable summary and, as the last line of
 * standard output, one JSON object with the run's outcome and
 * metrics: end-to-end metrics with --trace 0, per-layer metrics with
 * --trace 1 (which also writes a Chrome trace of the run's spans to
 * the output directory).  README.md describes the workloads and
 * metrics; perfbench/run.py builds and runs this program.
 */

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"

using namespace perfbench;

namespace
{

std::string
numberText(double value)
{
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, 10, "model name") == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

Options
parseArgs(int argc, char **argv, std::string &commit)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::stoull(value);
        else if (flag == "--seconds")
            options.seconds = std::stod(value);
        else if (flag == "--trace")
            options.trace = value != "0";
        else if (flag == "--root")
            options.root = value;
        else if (flag == "--cli")
            options.cli = value;
        else if (flag == "--out-dir")
            options.outDir = value;
        else if (flag == "--commit")
            commit = value;
        else
            throw std::runtime_error("unknown flag " + flag);
    }
    if (options.seconds <= 0.0)
        throw std::runtime_error("--seconds wants a positive value");
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    options.threads = static_cast<int>(std::min(4u, hw));
    return options;
}

/**
 * Self time per layer inside the subtrees rooted at spans named
 * @p root_name, averaged per root, as summary lines.  Self times on
 * all threads sum to the roots' wall time times the mean number of
 * busy threads.
 */
void
noteSelfTimes(Report &report, const std::vector<Span> &all,
              const std::string &root_name)
{
    // Span ids are index + 1, so a span's parent is all[parent - 1].
    std::vector<Span> spans;
    std::size_t roots = 0;
    std::uint64_t wall_ns = 0;
    for (const Span &s : all) {
        std::uint64_t at = s.id;
        while (all[at - 1].parent != 0 && all[at - 1].name != root_name)
            at = all[at - 1].parent;
        if (all[at - 1].name != root_name)
            continue;
        spans.push_back(s);
        if (at == s.id) {
            ++roots;
            wall_ns += s.endNs - s.startNs;
        }
    }
    if (roots == 0)
        return;
    std::uint64_t self_ns = 0;
    std::ostringstream os;
    os << "self time per " << root_name << " (s):";
    for (const auto &[layer, ns] : layerSelfTimes(spans)) {
        os << " " << layer << "=" << double(ns) / 1e9 / double(roots);
        self_ns += ns;
    }
    report.note(os.str());
    std::ostringstream acc;
    acc << root_name << " wall " << double(wall_ns) / 1e9 / double(roots)
        << " s; self times sum to " << double(self_ns) / 1e9 / double(roots)
        << " s = " << double(self_ns) / double(wall_ns)
        << " busy threads";
    report.note(acc.str());
}

std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) >= 0x20) {
            out += c;
        }
    }
    return out + "\"";
}

/**
 * Write @p spans as a Chrome trace-event document (loadable in
 * Perfetto).  Each event carries its span id, parent and the run id
 * in its args; @p metadata goes under "otherData".
 */
void
writeTrace(std::ostream &os, const std::vector<Span> &spans,
           const std::string &run_id,
           const std::map<std::string, std::string> &metadata)
{
    std::uint64_t origin = UINT64_MAX;
    for (const Span &s : spans)
        origin = std::min(origin, s.startNs);
    char buf[64];
    auto micros = [&](std::uint64_t ns) {
        std::snprintf(buf, sizeof(buf), "%.3f", double(ns) / 1000.0);
        return std::string(buf);
    };
    os << "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\","
          "\"pid\":1,\"tid\":0,\"args\":{\"name\":"
       << quoted("perfbench " + run_id) << "}}";
    for (const Span &s : spans) {
        os << ",\n{\"name\":" << quoted(s.name) << ",\"cat\":"
           << quoted(layerOf(s.name)) << ",\"ph\":\"X\",\"ts\":"
           << micros(s.startNs - origin)
           << ",\"dur\":" << micros(s.endNs - s.startNs)
           << ",\"pid\":1,\"tid\":" << s.track
           << ",\"args\":{\"span_id\":" << s.id
           << ",\"parent\":" << s.parent
           << ",\"run_id\":" << quoted(run_id) << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{";
    bool first = true;
    for (const auto &[key, value] : metadata) {
        os << (first ? "" : ",") << quoted(key) << ":" << quoted(value);
        first = false;
    }
    os << "}}\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string commit = "unknown";
    Options options;
    try {
        options = parseArgs(argc, argv, commit);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 64;
    }

    const std::string run_id =
        std::to_string(options.seed) + "-" +
        std::to_string(mix64(nowNs() ^ std::uint64_t(getpid())) & 0xffffff);
    Report report;
    std::vector<Span> spans;
    Context ctx{options, report, spans};

    const std::map<std::string, std::string> provenance = {
        {"workload", options.workload},
        {"seed", std::to_string(options.seed)},
        {"trace", options.trace ? "1" : "0"},
        {"run_id", run_id},
        {"cpu", cpuModel()},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"threads", std::to_string(options.threads)},
        {"compiler", PERFBENCH_COMPILER},
        {"flags", PERFBENCH_FLAGS},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"commit", commit},
    };

    try {
        std::filesystem::create_directories(options.outDir);
        if (options.workload == "paper-report")
            runPaperReport(ctx);
        else if (options.workload == "design-sweep")
            runDesignSweep(ctx);
        else if (options.workload == "service-mix")
            runServiceMix(ctx);
        else
            throw std::runtime_error("unknown workload '" +
                                     options.workload + "'");
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << options.workload << ": " << e.what()
                  << "\n";
        return 1;
    }

    if (options.trace) {
        noteSelfTimes(report, spans, "bench.setup");
        noteSelfTimes(report, spans, "bench.pass");
        const std::string path = options.outDir + "/trace-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".json";
        std::ofstream out(path);
        writeTrace(out, spans, run_id, provenance);
        report.note("trace: " + path);
    }

    std::ostringstream prov;
    prov << "{\"provenance\":{";
    bool first = true;
    for (const auto &[key, value] : provenance) {
        prov << (first ? "" : ",") << "\"" << key << "\":\"" << value
             << "\"";
        first = false;
    }
    prov << "}}";

    for (const std::string &line : report.notes)
        std::cout << "# " << line << "\n";
    for (const std::string &reason : report.outcomes.reasons())
        std::cout << "# FAILED: " << reason << "\n";
    std::cout << "# failed_frac = " << report.outcomes.failedFrac() << " ("
              << report.outcomes.failed() << " of "
              << report.outcomes.attempted() << ")\n";
    for (const auto &[name, metric] : report.metrics) {
        std::cout << "# " << name << " = " << numberText(metric.value)
                  << " " << metric.unit << "\n";
    }
    std::cout << prov.str() << "\n";

    std::cout << "{\"correct\": "
              << (report.outcomes.failed() == 0 ? "true" : "false")
              << ", \"attempted\": " << report.outcomes.attempted()
              << ", \"failed\": " << report.outcomes.failed()
              << ", \"metrics\": {";
    first = true;
    for (const auto &[name, metric] : report.metrics) {
        std::cout << (first ? "" : ", ") << "\"" << name
                  << "\": {\"value\": " << numberText(metric.value)
                  << ", \"unit\": \"" << metric.unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
    return 0;
}
