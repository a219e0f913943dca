/**
 * @file
 * Host-speed benchmark program (see README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--workers N] [--tiny] [--out-dir DIR]
 *             [--git-sha SHA] [--git-dirty 0|1] [--tree-hash HASH]
 *
 * Untraced runs (--trace 0) time repeated rounds of one workload and
 * report the end-to-end metrics. Traced runs (--trace 1) run the layer
 * probes and interleave untraced and traced rounds, and report the
 * per-layer metrics plus the tracing overhead. The last line of
 * standard output is always the JSON result object.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "probes.hh"
#include "sim/report.hh"
#include "spans.hh"
#include "util.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

/** Source identity, passed in by run.py (the build identity comes
 *  from the PPA_BENCH_* definitions of perfbench/CMakeLists.txt). */
struct Provenance
{
    std::string gitSha = "unknown";
    std::string gitDirty = "unknown";
    std::string treeHash = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workers N] [--tiny] [--out-dir DIR] "
                 "[--git-sha SHA] [--git-dirty 0|1] [--tree-hash HASH]\n"
              << "workloads:";
    for (const std::string &w : workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != text.size() || text[0] == '-')
        usage(flag + " expects a non-negative integer, got '" + text + "'");
    return v;
}

std::string
num(double v)
{
    return ppa::metrics::formatDouble(v);
}

std::string
quote(const std::string &s)
{
    return "\"" + ppa::metrics::jsonEscape(s) + "\"";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** User plus system CPU seconds of every thread so far. */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/** Median over rounds of each front-end figure, in first-seen order. */
std::vector<Named>
medianNamed(const std::vector<RoundResult> &rounds)
{
    std::vector<Named> out;
    std::map<std::string, std::vector<double>> values;
    for (const RoundResult &r : rounds) {
        for (const Named &n : r.named) {
            if (!values.count(n.name))
                out.push_back({n.name, 0.0, n.unit});
            values[n.name].push_back(n.value);
        }
    }
    for (Named &n : out)
        n.value = median(values[n.name]);
    return out;
}

std::vector<double>
walls(const std::vector<RoundResult> &rounds)
{
    std::vector<double> w;
    for (const RoundResult &r : rounds)
        w.push_back(r.wallSeconds);
    return w;
}

} // namespace

int
main(int argc, char **argv)
{
    auto mainStart = Clock::now();
    BenchOptions opts;
    Provenance prov;
    std::string outDir = ".bench_build/out";
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    opts.workers = std::min(4u, hw);

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--workload") {
            opts.workload = value();
            haveWorkload = true;
        } else if (flag == "--seed") {
            opts.seed = parseCount(flag, value());
            haveSeed = true;
        } else if (flag == "--seconds") {
            opts.seconds = static_cast<double>(parseCount(flag, value()));
            haveSeconds = true;
        } else if (flag == "--trace") {
            std::string t = value();
            if (t != "0" && t != "1")
                usage("--trace expects 0 or 1");
            opts.trace = t == "1";
            haveTrace = true;
        } else if (flag == "--workers") {
            std::uint64_t w = parseCount(flag, value());
            if (w == 0 || w > hw)
                usage("--workers must be 1.." + std::to_string(hw));
            opts.workers = static_cast<unsigned>(w);
        } else if (flag == "--tiny") {
            opts.tiny = true;
        } else if (flag == "--out-dir") {
            outDir = value();
        } else if (flag == "--git-sha") {
            prov.gitSha = value();
        } else if (flag == "--git-dirty") {
            prov.gitDirty = value();
        } else if (flag == "--tree-hash") {
            prov.treeHash = value();
        } else {
            usage("unknown option '" + flag + "'");
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (opts.seconds < 1)
        usage("--seconds must be at least 1");

    opts.workDir = outDir + "/work-" + std::to_string(getpid());
    std::filesystem::create_directories(opts.workDir);
    std::unique_ptr<Workload> workload = makeWorkload(opts);
    if (!workload)
        usage("unknown workload '" + opts.workload + "'");

    // The first set-up is timed from the start of main() to the first
    // timed call; set-up then runs again between untimed rounds, so its
    // median samples the host over the whole run as the rounds do. The
    // warm-up after the first set-up is not timed.
    workload->prepare();
    std::vector<double> setupS = {secondsSince(mainStart)};
    workload->warmUp();
    auto setUp = [&] {
        auto t0 = Clock::now();
        workload->prepare();
        setupS.push_back(secondsSince(t0));
        workload->warmUp();
    };

    std::vector<RoundResult> rounds, tracedRounds;
    std::vector<Named> layers;
    std::vector<SpanRecord> probeSpans, roundSpans, checkSpans;
    auto start = Clock::now();
    std::vector<double> cpuS;
    if (!opts.trace) {
        for (;;) {
            double cpu0 = processCpuSeconds();
            rounds.push_back(workload->round());
            cpuS.push_back(processCpuSeconds() - cpu0);
            if (rounds.size() >= 2 && secondsSince(start) >= opts.seconds)
                break;
            setUp();
        }
    } else {
        setRecording(true);
        layers = runLayerProbes(opts);
        setRecording(false);
        probeSpans = takeSpans();
        // Alternate so that host noise hits both series alike.
        while (tracedRounds.size() < 2 || secondsSince(start) < opts.seconds) {
            rounds.push_back(workload->round());
            setRecording(true);
            tracedRounds.push_back(workload->round());
            setRecording(false);
        }
        roundSpans = takeSpans();
    }
    setRecording(opts.trace);
    CheckResult checked = workload->check(opts.trace);
    setRecording(false);
    checkSpans = takeSpans();

    std::uint64_t attempted = checked.attempted, failed = checked.failed;
    std::vector<std::string> problems = checked.problems;
    std::set<std::string> digests;
    std::vector<double> opSeconds;
    for (const auto *list : {&rounds, &tracedRounds}) {
        for (const RoundResult &r : *list) {
            attempted += r.attempted;
            failed += r.failed;
            digests.insert(r.digest);
            opSeconds.insert(opSeconds.end(), r.opSeconds.begin(),
                             r.opSeconds.end());
            if (problems.size() < 32)
                problems.insert(problems.end(), r.problems.begin(),
                                r.problems.end());
        }
    }
    if (digests.size() != 1) {
        problems.push_back("simulated digest differs between rounds");
        ++failed;
    }

    std::vector<Named> metrics;
    if (!opts.trace) {
        metrics = {
            {"setup_s", median(setupS), "s"},
            {"wall_s", median(walls(rounds)), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"cpu_s", median(cpuS), "s"},
        };
    } else {
        metrics = layers;
        // Self time per traced round, for the layers rounds call
        // directly; the probes above cover every layer's primitive.
        std::map<std::string, double> self = selfTimes(roundSpans);
        for (const char *layer : {"sim", "serve", "check", "fuzz", "trace"}) {
            metrics.push_back(
                {std::string("round_self_ms.") + layer,
                 self[layer] * 1e3 / static_cast<double>(tracedRounds.size()),
                 "ms"});
        }
        double tracedMed = median(walls(tracedRounds));
        double plainMed = median(walls(rounds));
        metrics.push_back({"bench.trace_overhead_pct",
                           (tracedMed / plainMed - 1.0) * 100.0, "%"});
        std::vector<SpanRecord> spans = probeSpans;
        spans.insert(spans.end(), roundSpans.begin(), roundSpans.end());
        spans.insert(spans.end(), checkSpans.begin(), checkSpans.end());
        if (!writeChromeTrace(outDir + "/trace-" + opts.workload + "-seed" +
                                  std::to_string(opts.seed) + ".json",
                              spans))
            problems.push_back("cannot write the Chrome trace");
    }

    bool correct = failed == 0;
    for (const Named &m : metrics) {
        if (!std::isfinite(m.value)) {
            problems.push_back("metric " + m.name + " is not finite");
            correct = false;
        }
    }

    // Human-readable report: every metric with its unit, the
    // front-end figures of this workload, sample counts, provenance.
    std::vector<Named> named = medianNamed(rounds);
    named.push_back({"op_ms_p50", median(opSeconds) * 1e3, "ms"});
    std::ostringstream table;
    table << "perfbench " << opts.workload << " seed " << opts.seed
          << (opts.trace ? " (traced)" : "") << ": " << rounds.size()
          << " rounds, " << opSeconds.size() << " op samples, "
          << setupS.size() << " set-ups\n";
    for (const auto *list : {&metrics, &named}) {
        for (const Named &m : *list)
            table << "  " << m.name << " = " << num(m.value) << " " << m.unit
                  << "\n";
    }
    for (const std::string &p : problems)
        table << "  PROBLEM: " << p << "\n";
    std::cout << table.str();

    std::ostringstream metricJson;
    metricJson << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Named &m = metrics[i];
        metricJson << (i ? ", " : "") << quote(m.name) << ": {\"value\": "
                   << (std::isfinite(m.value) ? num(m.value) : "0")
                   << ", \"unit\": " << quote(m.unit) << "}";
    }
    metricJson << "}";

    std::ostringstream result;
    result << "{\"workload\": " << quote(opts.workload)
           << ", \"seed\": " << opts.seed << ", \"trace\": " << opts.trace
           << ", \"digest\": " << quote(*digests.begin())
           << ", \"rounds\": " << rounds.size()
           << ", \"traced_rounds\": " << tracedRounds.size()
           << ", \"op_samples\": " << opSeconds.size()
           << ", \"setup_samples_s\": [";
    for (std::size_t i = 0; i < setupS.size(); ++i)
        result << (i ? ", " : "") << num(setupS[i]);
    result << "], \"round_wall_s_quartiles\": [";
    std::vector<double> roundWalls = walls(rounds);
    for (double q : {0.25, 0.5, 0.75})
        result << (q > 0.25 ? ", " : "") << num(quantile(roundWalls, q));
    result << "], \"frontend\": {";
    for (std::size_t i = 0; i < named.size(); ++i)
        result << (i ? ", " : "") << quote(named[i].name) << ": {\"value\": "
               << num(named[i].value) << ", \"unit\": "
               << quote(named[i].unit) << "}";
    result << "}, \"provenance\": {\"git_sha\": " << quote(prov.gitSha)
           << ", \"git_dirty\": " << quote(prov.gitDirty)
           << ", \"tree_hash\": " << quote(prov.treeHash)
           << ", \"build_type\": " << quote(PPA_BENCH_BUILD_TYPE)
           << ", \"lto\": " << (PPA_BENCH_LTO ? "true" : "false")
           << ", \"sanitizer\": " << quote(PPA_BENCH_SANITIZE)
           << ", \"compiler\": " << quote(PPA_BENCH_COMPILER)
           << ", \"host_cores\": " << hw << ", \"workers\": " << opts.workers
           << ", \"seconds\": " << num(opts.seconds)
           << ", \"tiny\": " << (opts.tiny ? "true" : "false")
           << "}, \"metrics\": " << metricJson.str() << "}";
    std::cout << "result: " << result.str() << "\n";
    std::ofstream(outDir + "/result-" + opts.workload + "-seed" +
                  std::to_string(opts.seed) + "-trace" +
                  (opts.trace ? "1" : "0") + ".json")
        << result.str() << "\n";

    std::filesystem::remove_all(opts.workDir);

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": " << metricJson.str() << "}" << std::endl;
    return 0;
}
