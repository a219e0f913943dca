/**
 * @file
 * ppa_cli — command-line driver for the simulator.
 *
 * Run any of the 41 modeled applications on any system variant and
 * print a full statistics report, optionally side by side with the
 * memory-mode baseline:
 *
 *   ppa_cli --list
 *   ppa_cli --app gcc --variant ppa --insts 50000 --compare
 *   ppa_cli --app rb --variant ppa --wpq 8 --bw 1.0
 *   ppa_cli --app water-sp --variant capri --threads 16
 *
 * The sweep subcommand runs a whole figure's simulation grid across
 * hardware threads and writes the schema-versioned JSON document
 * (docs/METRICS.md) that figure plotting consumes:
 *
 *   ppa_cli sweep --list
 *   ppa_cli sweep fig11
 *   ppa_cli sweep fig18 --jobs 8 --insts 30000 --out /tmp/res --csv
 *
 * Every subcommand's flags are entries of one table, kFlags: the one
 * parse loop (parseArgs) looks each flag up there, validates its value
 * by kind before anything runs, and --help is rendered from it.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "check/litmus.hh"
#include "common/table.hh"
#include "fuzz/campaign.hh"
#include "fuzz/shrink.hh"
#include "isa/arch.hh"
#include "obs/telemetry.hh"
#include "obs/trace_export.hh"
#include "serve/serve.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "sim/segment.hh"
#include "sim/figures.hh"
#include "sim/report.hh"
#include "trace/capture.hh"
#include "trace/reader.hh"

using namespace ppa;

namespace
{

/** One bit per subcommand or verb; a flag lists the ones it applies
 *  to. */
enum Scope : unsigned
{
    kRun = 1u << 0,
    kProfile = 1u << 1,
    kRecord = 1u << 2,   ///< trace record
    kCat = 1u << 3,      ///< trace cat
    kTraceDir = 1u << 4, ///< trace info, trace verify
    kSweep = 1u << 5,
    kLitmusList = 1u << 6,
    kLitmusRun = 1u << 7,
    kLitmusExplore = 1u << 8,
    kFuzzRun = 1u << 9,
    kFuzzRepro = 1u << 10,
    kServe = 1u << 11,
    kLitmus = kLitmusRun | kLitmusExplore,
};

/** Everything the flags can set. Each subcommand starts from
 *  optionsFor(its scope) and reads only its own part. */
struct Options
{
    std::vector<std::string> args; ///< positional arguments, in order
    ExperimentKnobs knobs;         ///< run, profile, sweep
    trace::CaptureSpec capture;    ///< trace record
    check::LitmusOptions litmus;
    fuzz::CampaignOptions fuzz;
    serve::ServeConfig serve;
    std::vector<serve::ServeVariant> serveVariants;
    SystemVariant variant = SystemVariant::Ppa;
    std::string app;
    std::string out;
    std::string json;
    std::string telemetryTrace;
    unsigned jobs = 0;        ///< sweep
    unsigned thread = 0;      ///< trace cat
    std::uint64_t limit = 32; ///< trace cat
    std::uint64_t start = 0;  ///< trace cat
    bool list = false;
    bool instsGiven = false;
    bool compare = false;
    bool errorBound = false;
    bool csv = false;
    bool all = false;
    bool expectDivergence = false;
    bool checkMinimal = false;
};

Options
optionsFor(unsigned scope)
{
    Options o;
    o.knobs.instsPerCore = scope == kSweep ? 0 : 50'000;
    o.knobs.telemetry = scope == kProfile;
    o.capture.instsPerThread = 50'000;
    if (scope == kSweep)
        o.out = metrics::resultsDir();
    if (scope == kLitmusExplore)
        o.litmus.mode = check::ExploreMode::Randomized;
    return o;
}

enum class Kind
{
    Switch, ///< takes no value
    Stop,   ///< takes no value and ends parsing (--list)
    Text,   ///< a string or path, taken as is
    Repeat, ///< a string that may be given more than once
    U64,    ///< unsigned count, at least Flag::min
    U32,    ///< unsigned count in [Flag::min, UINT32_MAX]
    Real,   ///< non-negative real
};

/** A flag's parsed value; the member for its Kind is set. */
struct Value
{
    const char *text = nullptr;
    std::uint64_t u64 = 0;
    unsigned u32 = 0;
    double real = 0.0;
};

struct Flag
{
    const char *name;
    unsigned scopes;
    Kind kind;
    std::uint64_t min; ///< U64/U32: smallest accepted value
    const char *metavar;
    const char *help;
    void (*set)(Options &, const Value &);
};

[[noreturn]] void
badValue(const char *flag, const char *text, const char *want)
{
    std::fprintf(stderr, "%s %s, got '%s' (see ppa_cli --help)\n", flag,
                 want, text);
    std::exit(1);
}

/**
 * Strict decimal parse for flag values: the whole token must be
 * digits, fit 64 bits and lie in [min, max]. strtoull's permissiveness
 * (empty strings, trailing garbage, silent wraparound) would turn a
 * typo into a quietly misconfigured run.
 */
std::uint64_t
parseCount(const char *flag, const char *text, std::uint64_t min = 0,
           std::uint64_t max = UINT64_MAX)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (*text == '\0' || *end != '\0' || errno == ERANGE ||
        *text == '-' || *text == '+')
        badValue(flag, text, "wants an unsigned integer");
    if (v == 0 && min == 1)
        badValue(flag, text, "must be positive");
    if (v < min) {
        std::string want = "must be at least " + std::to_string(min);
        badValue(flag, text, want.c_str());
    }
    if (v > max) {
        std::fprintf(stderr,
                     "%s must be at most %llu, got '%s' (see ppa_cli "
                     "--help)\n",
                     flag, static_cast<unsigned long long>(max), text);
        std::exit(1);
    }
    return v;
}

unsigned
parseU32(const char *flag, const char *text, std::uint64_t min = 0)
{
    return static_cast<unsigned>(parseCount(flag, text, min, UINT32_MAX));
}

/** Strict parse of a non-negative real flag value; same philosophy as
 *  parseCount (reject empty, trailing garbage, range errors, and
 *  negative or NaN values). */
double
parseNonNegDouble(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (*text == '\0' || *end != '\0' || errno == ERANGE || !(v >= 0.0))
        badValue(flag, text, "wants a non-negative number");
    return v;
}

SystemVariant
parseVariant(const std::string &name)
{
    SystemVariant v;
    if (!variantFromToken(name, v)) {
        std::fprintf(stderr, "unknown variant '%s'\n", name.c_str());
        std::exit(1);
    }
    return v;
}

/** Report an unknown token for a token-valued flag and exit. */
[[noreturn]] void
badToken(const char *what, const char *tok, const char *choices)
{
    std::fprintf(stderr, "unknown %s '%s' (%s)\n", what, tok, choices);
    std::exit(1);
}

/**
 * Every flag of every subcommand: the single source for parsing,
 * validation and --help. A flag shared by several subcommands is one
 * entry when its meaning and default agree, and one entry per meaning
 * otherwise. Help lists each subcommand's flags in this order.
 */
const Flag kFlags[] = {
    // run, profile, trace record
    {"--list", kRun, Kind::Stop, 0, nullptr,
     "list the modeled applications",
     [](Options &o, const Value &) { o.list = true; }},
    {"--app", kRun | kRecord, Kind::Text, 0, "NAME",
     "application to run or record (run: required unless --list or "
     "--trace)",
     [](Options &o, const Value &v) { o.app = v.text; }},
    {"--variant", kRun | kProfile | kLitmus | kFuzzRun, Kind::Text, 0, "V",
     "system variant: memory-mode | ppa | capri | replaycache | eadr-bbb "
     "| dram-only (default: ppa); litmus and fuzz judge memory-mode and "
     "replaycache against their own model flavors",
     [](Options &o, const Value &v) { o.variant = parseVariant(v.text); }},
    {"--insts", kRun | kProfile | kRecord, Kind::U64, 1, "N",
     "committed instructions per core (default 50000)",
     [](Options &o, const Value &v) {
         o.knobs.instsPerCore = o.capture.instsPerThread = v.u64;
         o.instsGiven = true;
     }},
    {"--threads", kRun | kProfile | kRecord, Kind::U32, 0, "N",
     "thread/core count (default: profile)",
     [](Options &o, const Value &v) {
         o.knobs.threads = o.capture.threads = v.u32;
     }},
    {"--csq", kRun, Kind::U32, 1, "N", "CSQ entries (default 40)",
     [](Options &o, const Value &v) { o.knobs.csqEntries = v.u32; }},
    // One register beyond a full architectural map, so rename can
    // always make progress.
    {"--int-prf", kRun, Kind::U32, numArchIntRegs + 1, "N",
     "integer PRF entries (default 180, min 17)",
     [](Options &o, const Value &v) { o.knobs.intPrf = v.u32; }},
    {"--fp-prf", kRun, Kind::U32, numArchFpRegs + 1, "N",
     "FP PRF entries (default 168, min 33)",
     [](Options &o, const Value &v) { o.knobs.fpPrf = v.u32; }},
    {"--wpq", kRun, Kind::U32, 1, "N",
     "WPQ entries per controller (default 16)",
     [](Options &o, const Value &v) { o.knobs.wpqEntries = v.u32; }},
    {"--bw", kRun, Kind::Real, 0, "G",
     "NVM write bandwidth GB/s (default 2.3)",
     [](Options &o, const Value &v) { o.knobs.nvmWriteGbps = v.real; }},
    {"--l3", kRun, Kind::Switch, 0, nullptr,
     "add an L3 between L2 and DRAM cache",
     [](Options &o, const Value &) { o.knobs.l3Cache = true; }},
    {"--seed", kRun | kProfile | kRecord | kSweep | kServe,
     Kind::U64, 0, "N",
     "workload seed; every result is bitwise reproducible from it "
     "(default 42)",
     [](Options &o, const Value &v) {
         o.knobs.seed = o.capture.seed = o.serve.seed = v.u64;
     }},
    {"--seed", kLitmus | kFuzzRun, Kind::U64, 0, "N",
     "crash-schedule seed (litmus explore) or campaign seed (fuzz); "
     "results are bitwise reproducible from it (default 1)",
     [](Options &o, const Value &v) {
         o.litmus.seed = o.fuzz.seed = v.u64;
     }},
    {"--compare", kRun, Kind::Switch, 0, nullptr,
     "also run the memory-mode baseline and report the slowdown",
     [](Options &o, const Value &) { o.compare = true; }},
    {"--audit", kRun | kSweep, Kind::Switch, 0, nullptr,
     "attach the persistence-invariant auditors to ppa-variant runs "
     "(sweep: every such job; exit 1 on a violation)",
     [](Options &o, const Value &) { o.knobs.audit = true; }},
    {"--fail-at-cycle", kRun, Kind::Repeat, 0, "N",
     "inject a power failure at cycle N and recover through the "
     "serialized checkpoint; ppa variant",
     [](Options &o, const Value &v) {
         o.knobs.failAtCycles.push_back(
             parseCount("--fail-at-cycle", v.text, 1));
     }},
    {"--trace", kRun, Kind::Text, 0, "DIR",
     "replay a recorded trace instead of the generator; threads, insts, "
     "seed and app come from the manifest",
     [](Options &o, const Value &v) { o.knobs.traceDir = v.text; }},
    {"--time-parallel", kRun, Kind::U32, 0, "K",
     "split this one run into K instruction segments and simulate them "
     "concurrently (docs/PERF.md; not replaycache)",
     [](Options &o, const Value &v) { o.knobs.timeParallel = v.u32; }},
    {"--warmup-insts", kRun, Kind::U64, 0, "N",
     "per-segment warmup prefix in instructions, discarded while "
     "microarchitectural state re-converges (default 2000)",
     [](Options &o, const Value &v) { o.knobs.tpWarmupInsts = v.u64; }},
    {"--sampled", kRun, Kind::U32, 0, "N",
     "SimPoint-style sampling: simulate only every Nth segment and "
     "extrapolate, reporting a confidence estimate (default 1)",
     [](Options &o, const Value &v) { o.knobs.tpSampleStride = v.u32; }},
    {"--tp-workers", kRun, Kind::U32, 0, "N",
     "host threads for segment execution (0 = hardware); results are "
     "identical for any value",
     [](Options &o, const Value &v) { o.knobs.tpWorkers = v.u32; }},
    {"--tp-fail", kRun, Kind::Repeat, 0, "S:C",
     "inject a power failure in segment S once its measured window has "
     "run C cycles (C=0 = exactly at the segment join); ppa variant",
     [](Options &o, const Value &v) {
         const std::string spec = v.text;
         auto colon = spec.find(':');
         if (colon == std::string::npos)
             badValue("--tp-fail", v.text, "wants SEGMENT:CYCLE");
         ExperimentKnobs::SegmentFailure f;
         f.segment = parseU32("--tp-fail segment",
                              spec.substr(0, colon).c_str());
         f.cycle = parseCount("--tp-fail cycle",
                              spec.substr(colon + 1).c_str(), 1);
         o.knobs.tpFailAt.push_back(f);
     }},
    {"--error-bound", kRun, Kind::Switch, 0, nullptr,
     "also run the unsegmented serial reference and report the per-stat "
     "warmup-truncation delta (requires --time-parallel)",
     [](Options &o, const Value &) { o.errorBound = true; }},
    {"--json", kRun | kProfile | kLitmus | kFuzzRun | kServe, Kind::Text,
     0, "FILE",
     "also write the result as JSON to FILE (profile: with "
     "stats.telemetry; tools/litmus_report.py, fuzz_report.py and "
     "serve_report.py read the others)",
     [](Options &o, const Value &v) { o.json = v.text; }},
    {"--telemetry", kRun | kServe, Kind::Switch, 0, nullptr,
     "attach the in-run telemetry collector (docs/TELEMETRY.md): sampled "
     "counter series, region/power timelines, and stall attribution land "
     "in stats.telemetry; serve also records request spans per variant",
     [](Options &o, const Value &) {
         o.knobs.telemetry = o.serve.telemetry = true;
     }},
    {"--telemetry-sample", kRun | kProfile, Kind::U64, 0, "N",
     "counter-series sampling period in cycles (default 256; implies "
     "--telemetry)",
     [](Options &o, const Value &v) {
         o.knobs.telemetrySampleCycles = v.u64;
         o.knobs.telemetry = true;
     }},
    {"--telemetry-trace", kRun | kProfile | kServe, Kind::Text, 0, "FILE",
     "write a Chrome trace-event JSON of the run, loadable in Perfetto / "
     "chrome://tracing (implies --telemetry; serve: needs --telemetry "
     "and traces the first variant)",
     [](Options &o, const Value &v) {
         o.telemetryTrace = v.text;
         o.knobs.telemetry = true;
     }},

    // trace record, trace cat
    {"--out", kRecord, Kind::Text, 0, "DIR",
     "record: trace directory to write (required)",
     [](Options &o, const Value &v) { o.out = v.text; }},
    {"--shard-insts", kRecord, Kind::U64, 1, "N",
     "record: instructions per shard file (default 262144)",
     [](Options &o, const Value &v) { o.capture.shardInsts = v.u64; }},
    {"--block-insts", kRecord, Kind::U32, 1, "N",
     "record: instructions per compressed block (default 4096)",
     [](Options &o, const Value &v) { o.capture.blockInsts = v.u32; }},
    {"--thread", kCat, Kind::U32, 0, "T", "cat: thread to dump (default 0)",
     [](Options &o, const Value &v) { o.thread = v.u32; }},
    {"--limit", kCat, Kind::U64, 0, "N",
     "cat: records to print (default 32)",
     [](Options &o, const Value &v) { o.limit = v.u64; }},
    {"--start", kCat, Kind::U64, 0, "I",
     "cat: first instruction index (default 0)",
     [](Options &o, const Value &v) { o.start = v.u64; }},

    // sweep
    {"--list", kSweep, Kind::Stop, 0, nullptr,
     "list the available figure sweeps",
     [](Options &o, const Value &) { o.list = true; }},
    {"--jobs", kSweep, Kind::U32, 0, "N",
     "driver worker threads (default: hardware)",
     [](Options &o, const Value &v) { o.jobs = v.u32; }},
    {"--insts", kSweep, Kind::U64, 0, "N",
     "committed instructions per core (default 0: the figure's own)",
     [](Options &o, const Value &v) { o.knobs.instsPerCore = v.u64; }},
    {"--out", kSweep, Kind::Text, 0, "DIR",
     "output directory for FIGURE.json (default: $PPA_RESULTS_DIR or "
     "results)",
     [](Options &o, const Value &v) { o.out = v.text; }},
    {"--csv", kSweep, Kind::Switch, 0, nullptr,
     "also write FIGURE.csv next to the JSON",
     [](Options &o, const Value &) { o.csv = true; }},
    {"--telemetry", kSweep, Kind::Switch, 0, nullptr,
     "run every job with telemetry attached and write one Chrome trace "
     "per job under FIGURE_telemetry/",
     [](Options &o, const Value &) { o.knobs.telemetry = true; }},

    // litmus, fuzz
    {"--all", kLitmus, Kind::Switch, 0, nullptr, "run the whole corpus",
     [](Options &o, const Value &) { o.all = true; }},
    {"--schedules", kLitmus, Kind::U32, 1, "N",
     "explore: crash points to sample per test (default 64)",
     [](Options &o, const Value &v) { o.litmus.schedules = v.u32; }},
    {"--programs", kFuzzRun, Kind::U64, 1, "N",
     "generated programs per campaign (default 200)",
     [](Options &o, const Value &v) { o.fuzz.programs = v.u64; }},
    {"--schedules", kFuzzRun, Kind::U32, 1, "N",
     "biased crash points per program (default 16)",
     [](Options &o, const Value &v) { o.fuzz.schedules = v.u32; }},
    {"--max-findings", kFuzzRun, Kind::U32, 0, "N",
     "offending programs to record, replay, and shrink (default 4)",
     [](Options &o, const Value &v) { o.fuzz.maxFindings = v.u32; }},
    {"--corpus-out", kFuzzRun, Kind::Text, 0, "DIR",
     "write minimal reproducers here as .litmus files",
     [](Options &o, const Value &v) { o.fuzz.corpusDir = v.text; }},
    {"--trace-out", kFuzzRun, Kind::Text, 0, "DIR",
     "record findings as traces here and confirm them by replay",
     [](Options &o, const Value &v) { o.fuzz.traceDir = v.text; }},
    {"--expect-divergence", kLitmus | kFuzzRun, Kind::Switch, 0, nullptr,
     "fail unless at least one observed outcome diverges from the strict "
     "PPA model (baseline discrimination proof)",
     [](Options &o, const Value &) { o.expectDivergence = true; }},
    {"--check-minimal", kFuzzRepro, Kind::Switch, 0, nullptr,
     "repro: also verify the reproducer is 1-minimal",
     [](Options &o, const Value &) { o.checkMinimal = true; }},

    // serve
    {"--workload", kServe, Kind::Text, 0, "W",
     "tatp | tpcc | kv (default tatp)",
     [](Options &o, const Value &v) {
         if (!serve::serveWorkloadFromToken(v.text, o.serve.workload))
             badToken("serve workload", v.text, "tatp, tpcc, kv");
     }},
    {"--variant", kServe, Kind::Repeat, 0, "V",
     "serve variant: ppa, undo-redo-log, delay-free (default: all three)",
     [](Options &o, const Value &v) {
         serve::ServeVariant sv;
         if (!serve::serveVariantFromToken(v.text, sv))
             badToken("serve variant", v.text,
                      "ppa, undo-redo-log, delay-free");
         o.serveVariants.push_back(sv);
     }},
    {"--ops", kServe, Kind::U64, 1, "N",
     "total requests across all threads (default 1000000)",
     [](Options &o, const Value &v) { o.serve.requests = v.u64; }},
    {"--threads", kServe, Kind::U32, 1, "N",
     "server cores / request streams (default 2)",
     [](Options &o, const Value &v) { o.serve.threads = v.u32; }},
    {"--keys", kServe, Kind::U64, 1, "N",
     "per-thread key-space size; a power of two <= 65536 (default 4096)",
     [](Options &o, const Value &v) { o.serve.keys = v.u64; }},
    {"--skew", kServe, Kind::Real, 0, "S",
     "Zipfian theta, non-negative; 0 = uniform (default 0.99)",
     [](Options &o, const Value &v) { o.serve.skew = v.real; }},
    {"--read-pct", kServe, Kind::U32, 0, "N",
     "kv workload GET percentage, 0..100 (default 50)",
     [](Options &o, const Value &v) { o.serve.readPct = v.u32; }},
    {"--arrival", kServe, Kind::Text, 0, "A",
     "arrival process: poisson | bursty (default poisson)",
     [](Options &o, const Value &v) {
         if (!serve::arrivalFromToken(v.text, o.serve.arrival.kind))
             badToken("arrival process", v.text, "poisson, bursty");
     }},
    {"--mean-gap", kServe, Kind::U64, 1, "N",
     "mean inter-arrival gap per stream in cycles (default 256)",
     [](Options &o, const Value &v) {
         o.serve.arrival.meanGap = static_cast<double>(v.u64);
     }},
    {"--burst-factor", kServe, Kind::Real, 0, "F",
     "bursty: on-phase rate multiplier (default 4)",
     [](Options &o, const Value &v) {
         o.serve.arrival.burstFactor = v.real;
     }},
    {"--burst-period", kServe, Kind::U64, 1, "N",
     "bursty: square-wave period in cycles (default 65536)",
     [](Options &o, const Value &v) {
         o.serve.arrival.period = static_cast<double>(v.u64);
     }},
    {"--on-fraction", kServe, Kind::Real, 0, "F",
     "bursty: fraction of each period in the on phase, in (0, 1) "
     "(default 0.25)",
     [](Options &o, const Value &v) {
         o.serve.arrival.onFraction = v.real;
     }},
    {"--failures", kServe, Kind::U32, 0, "N",
     "injected power-failure points per variant (default 8)",
     [](Options &o, const Value &v) { o.serve.failures = v.u32; }},
    {"--workers", kServe, Kind::U32, 0, "N",
     "host threads the study's variants run on, one variant each; any "
     "value yields identical output (default: hardware parallelism)",
     [](Options &o, const Value &v) { o.serve.workers = v.u32; }},
};

/** A subcommand's help section: its synopsis, then its flags. */
struct Section
{
    unsigned scopes;
    const char *synopsis;
};

const Section kSections[] = {
    {kRun, "subcommand: run — simulate one application (the default when "
           "no\nsubcommand is named)\n"
           "  ppa_cli [run] --app NAME [options]\n"},
    {kProfile, "subcommand: profile — run with telemetry and print where "
               "the cycles went\n"
               "  ppa_cli profile APP [options]\n"},
    {kRecord | kCat | kTraceDir,
     "subcommand: trace — record/inspect committed-stream traces\n"
     "  ppa_cli trace record --app NAME --out DIR [options]\n"
     "  ppa_cli trace info DIR      print the manifest and shard table\n"
     "  ppa_cli trace cat DIR [options]   dump records as text\n"
     "  ppa_cli trace verify DIR    check manifest, CRCs, and decode every "
     "block\n"},
    {kSweep, "subcommand: sweep — run one figure's full grid in parallel "
             "and print the figure\n"
             "  ppa_cli sweep FIGURE [options]\n"},
    {kLitmusList | kLitmus,
     "subcommand: litmus — persistency-model conformance checks "
     "(docs/CHECKING.md)\n"
     "  ppa_cli litmus list                    show the litmus corpus\n"
     "  ppa_cli litmus run [TEST...] [options]     exhaustive crash-point "
     "enumeration\n"
     "  ppa_cli litmus explore [TEST...] [options] auditor-biased "
     "randomized crashes\n"},
    {kFuzzRun | kFuzzRepro,
     "subcommand: fuzz — crash-consistency fuzzing campaign "
     "(docs/FUZZING.md)\n"
     "  ppa_cli fuzz run [options]   generate programs, crash them, "
     "judge, shrink\n"
     "  ppa_cli fuzz repro FILE [options]  re-judge a minimal reproducer "
     "file\n"},
    {kServe, "subcommand: serve — open-loop transaction-serving study "
             "(docs/SERVING.md)\n"
             "  ppa_cli serve [options]    drive Zipfian request streams "
             "against each durability\n"
             "                             variant and compare tail "
             "latency, throughput,\n"
             "                             recovery time, and data loss\n"},
};

/** Print "  --name META" and the flag's help, word-wrapped to 79
 *  columns with continuation lines aligned under the help column. */
void
printFlag(const Flag &f)
{
    constexpr std::size_t kHelpColumn = 22;
    constexpr std::size_t kWidth = 79;
    std::string text = std::string("  ") + f.name;
    if (f.metavar)
        text += std::string(" ") + f.metavar;
    text.resize(std::max(text.size() + 2, kHelpColumn), ' ');
    std::string help = f.help;
    if (f.kind == Kind::Repeat)
        help += " (repeatable)";
    std::size_t column = text.size();
    for (std::size_t pos = 0; pos < help.size();) {
        std::size_t end = std::min(help.find(' ', pos), help.size());
        std::size_t len = end - pos;
        if (pos > 0 && column + 1 + len > kWidth) {
            text += "\n" + std::string(kHelpColumn, ' ');
            column = kHelpColumn;
        } else if (pos > 0) {
            text += ' ';
            ++column;
        }
        text.append(help, pos, len);
        column += len;
        pos = end + 1;
    }
    std::printf("%s\n", text.c_str());
}

void
printSection(const Section &s)
{
    std::fputs(s.synopsis, stdout);
    for (const Flag &f : kFlags)
        if (f.scopes & s.scopes)
            printFlag(f);
}

/** Help for one subcommand; run's help is every subcommand's. */
void
printHelp(unsigned scope)
{
    if (scope != kRun) {
        for (const Section &s : kSections)
            if (s.scopes & scope)
                printSection(s);
        return;
    }
    std::printf("usage: ppa_cli [SUBCOMMAND] [options]\n"
                "subcommands: run (default), sweep, trace, "
                "profile, litmus, fuzz, serve\n"
                "flags are grouped by the subcommand they belong to:\n");
    for (const Section &s : kSections) {
        std::printf("\n");
        printSection(s);
    }
}

/** A subcommand (or one verb of trace/litmus/fuzz) and its body. */
struct Command
{
    const char *name; ///< "sweep", "trace record", ...
    unsigned scope;
    std::size_t maxArgs; ///< positional arguments it accepts
    int (*main)(Options &);
};

/**
 * The one parse loop: every flag in @p argv is looked up in kFlags
 * under @p cmd's scope, its value parsed strictly by kind, and handed
 * to the flag's setter. Any error exits before the subcommand runs.
 */
void
parseArgs(const Command &cmd, int argc, char **argv, Options &o)
{
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(cmd.scope);
            std::exit(0);
        }
        const Flag *flag = nullptr;
        for (const Flag &f : kFlags)
            if ((f.scopes & cmd.scope) && arg == f.name)
                flag = &f;
        if (!flag) {
            if (!arg.empty() && arg[0] != '-' &&
                o.args.size() < cmd.maxArgs) {
                o.args.push_back(arg);
                continue;
            }
            std::fprintf(stderr,
                         "unknown %s option '%s' (see ppa_cli %s "
                         "--help)\n",
                         cmd.name, arg.c_str(), cmd.name);
            std::exit(1);
        }
        Value v;
        if (flag->kind != Kind::Switch && flag->kind != Kind::Stop) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(1);
            }
            v.text = argv[++i];
        }
        if (flag->kind == Kind::U64)
            v.u64 = parseCount(flag->name, v.text, flag->min);
        else if (flag->kind == Kind::U32)
            v.u32 = parseU32(flag->name, v.text, flag->min);
        else if (flag->kind == Kind::Real)
            v.real = parseNonNegDouble(flag->name, v.text);
        flag->set(o, v);
        if (flag->kind == Kind::Stop)
            return;
    }
}

int
sweepMain(Options &o)
{
    if (o.list) {
        TextTable t({"figure", "jobs", "description"});
        for (const auto &name : figureNames()) {
            FigureSweep fs = figureSweep(name);
            t.addRow({fs.name, std::to_string(fs.jobs.size()),
                      fs.description});
        }
        std::printf("%s", t.render().c_str());
        return 0;
    }
    const std::string figure = o.args.empty() ? "" : o.args[0];
    const std::string &outDir = o.out;
    const bool audit = o.knobs.audit;
    const bool telemetry = o.knobs.telemetry;

    if (figure.empty()) {
        std::fprintf(stderr,
                     "sweep: figure name required (see sweep --list)\n");
        return 1;
    }
    if (!figureExists(figure)) {
        std::fprintf(stderr,
                     "sweep: unknown figure '%s' (see sweep --list)\n",
                     figure.c_str());
        return 1;
    }

    FigureSweep fs = figureSweep(figure, o.knobs.instsPerCore, o.knobs.seed);
    if (audit) {
        for (SweepJob &job : fs.jobs)
            job.knobs.audit = true;
    }
    if (telemetry) {
        for (SweepJob &job : fs.jobs)
            job.knobs.telemetry = true;
    }
    ExperimentDriver driver(o.jobs);
    std::fprintf(stderr, "sweep %s: %zu jobs on %u threads — %s\n",
                 fs.name.c_str(), fs.jobs.size(), driver.workers(),
                 fs.description.c_str());
    auto results = driver.run(
        fs.jobs,
        [](const JobResult &r, std::size_t done, std::size_t total) {
            std::fprintf(stderr, "  [%zu/%zu] %s/%s (%.2fs)\n", done,
                         total, r.job.profile.name.c_str(),
                         variantToken(r.job.variant), r.wallSeconds);
        });

    if (audit) {
        std::uint64_t events = 0;
        std::uint64_t violations = 0;
        for (const JobResult &r : results) {
            events += r.stats.auditEvents;
            violations += r.stats.auditViolations;
            for (const std::string &m : r.stats.auditMessages)
                std::fprintf(stderr, "  audit: %s\n", m.c_str());
        }
        std::printf("audit: %llu events, %llu violations\n",
                    static_cast<unsigned long long>(events),
                    static_cast<unsigned long long>(violations));
        if (violations)
            return 1;
    }

    if (telemetry) {
        // One Chrome trace per job. Figures re-run the same
        // (workload, variant) pair under different knobs, so the job
        // index keeps the filenames unique.
        std::string traceDir = outDir + "/" + fs.name + "_telemetry";
        std::error_code ec;
        std::filesystem::create_directories(traceDir, ec);
        for (std::size_t j = 0; j < results.size(); ++j) {
            const JobResult &r = results[j];
            std::string path = traceDir + "/" + std::to_string(j) +
                               "_" + r.job.profile.name + "_" +
                               variantToken(r.job.variant) +
                               ".trace.json";
            if (!obs::writeChromeTrace(r.stats.telemetry, path)) {
                std::fprintf(stderr, "sweep: cannot write %s\n",
                             path.c_str());
                return 1;
            }
        }
        std::printf("wrote %zu telemetry trace(s) under %s\n",
                    results.size(), traceDir.c_str());
    }

    FigureTable reduced = reduceFigure(fs.name, results);
    std::string jsonPath = outDir + "/" + fs.name + ".json";
    if (!metrics::writeFile(jsonPath, metrics::sweepToJson(
                                          fs.name, results, reduced.extra)))
        return 1;
    std::printf("wrote %s (%zu jobs)\n", jsonPath.c_str(),
                results.size());
    if (o.csv) {
        std::string csvPath = outDir + "/" + fs.name + ".csv";
        if (!metrics::writeFile(csvPath, metrics::sweepToCsv(results)))
            return 1;
        std::printf("wrote %s\n", csvPath.c_str());
    }
    std::printf("%s", reduced.render().c_str());
    return 0;
}

int
traceRecordMain(Options &o)
{
    if (o.app.empty() || o.out.empty()) {
        std::fprintf(stderr,
                     "trace record: --app and --out are required\n");
        return 1;
    }

    const WorkloadProfile &profile = profileByName(o.app);
    trace::TraceSummary s =
        trace::recordWorkloadTrace(o.out, profile, o.capture);
    std::printf("recorded %s: %llu insts in %u shard(s), crc %08x\n",
                o.out.c_str(),
                static_cast<unsigned long long>(s.totalInsts),
                s.shardCount, s.combinedCrc);
    return 0;
}

/** The DIR argument of trace info/cat/verify; reports it if missing. */
bool
traceDirGiven(const Options &o, const char *verb)
{
    if (o.args.empty())
        std::fprintf(stderr, "trace %s: trace directory required\n", verb);
    return !o.args.empty();
}

int
traceInfoMain(Options &o)
{
    if (!traceDirGiven(o, "info"))
        return 1;
    const std::string &dir = o.args[0];
    trace::TraceSet set = trace::TraceSet::openOrDie(dir);
    const trace::TraceMeta &meta = set.metadata();
    TextTable t({"field", "value"});
    t.addRow({"app", meta.app});
    t.addRow({"seed", std::to_string(meta.seed)});
    t.addRow({"threads", std::to_string(meta.threads)});
    t.addRow({"insts / thread", std::to_string(meta.instsPerThread)});
    t.addRow({"shard insts", std::to_string(meta.shardInsts)});
    t.addRow({"block insts", std::to_string(meta.blockInsts)});
    t.addRow({"shards", std::to_string(set.allShards().size())});
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x", set.combinedCrc());
    t.addRow({"combined crc32", crc});
    std::printf("%s", t.render().c_str());

    TextTable shards({"file", "thread", "first index", "insts", "crc32"});
    for (const trace::ShardInfo &s : set.allShards()) {
        std::snprintf(crc, sizeof(crc), "%08x", s.crc32);
        shards.addRow({s.file, std::to_string(s.thread),
                       std::to_string(s.firstIndex),
                       std::to_string(s.count), crc});
    }
    std::printf("%s", shards.render().c_str());
    return 0;
}

int
traceCatMain(Options &o)
{
    if (!traceDirGiven(o, "cat"))
        return 1;
    const std::string &dir = o.args[0];
    const unsigned thread = o.thread;
    const std::uint64_t limit = o.limit;
    const std::uint64_t start = o.start;

    trace::TraceSet set = trace::TraceSet::openOrDie(dir);
    if (thread >= set.metadata().threads) {
        std::fprintf(stderr, "trace cat: thread %u out of range (%u)\n",
                     thread, set.metadata().threads);
        return 1;
    }
    trace::TraceReplaySource src(set, thread);
    if (start > 0)
        src.seekTo(start);
    TextTable t({"index", "pc", "op", "dst", "srcs", "imm", "memAddr",
                 "taken"});
    DynInst inst;
    for (std::uint64_t n = 0; n < limit && src.next(inst); ++n) {
        char pc[24], mem[24];
        std::snprintf(pc, sizeof(pc), "0x%llx",
                      static_cast<unsigned long long>(inst.pc));
        std::snprintf(mem, sizeof(mem), "0x%llx",
                      static_cast<unsigned long long>(inst.memAddr));
        std::string dst = "-";
        if (inst.dst.valid()) {
            dst = inst.dst.cls == RegClass::Fp ? "f" : "r";
            dst += std::to_string(inst.dst.idx);
        }
        std::string srcs;
        for (int s = 0; s < inst.numSrcs(); ++s) {
            srcs += (s ? "," : "");
            srcs += inst.srcs[s].cls == RegClass::Fp ? "f" : "r";
            srcs += std::to_string(inst.srcs[s].idx);
        }
        t.addRow({std::to_string(inst.index), pc,
                  std::string(opName(inst.op)), dst,
                  srcs.empty() ? std::string("-") : srcs,
                  std::to_string(inst.imm),
                  inst.memAddr ? std::string(mem) : std::string("-"),
                  inst.taken ? std::string("T") : std::string("-")});
    }
    std::printf("%s", t.render().c_str());
    return 0;
}

int
traceVerifyMain(Options &o)
{
    if (!traceDirGiven(o, "verify"))
        return 1;
    const std::string &dir = o.args[0];
    trace::VerifyResult r = trace::verifyTrace(dir);
    for (const std::string &e : r.errors)
        std::fprintf(stderr, "trace verify: %s: %s\n", dir.c_str(),
                     e.c_str());
    if (!r.ok) {
        std::fprintf(stderr, "trace verify: %s: FAILED (%zu error(s))\n",
                     dir.c_str(), r.errors.size());
        return 1;
    }
    std::printf("trace verify: %s: OK — %llu insts, %u shard(s), "
                "crc %08x\n",
                dir.c_str(),
                static_cast<unsigned long long>(r.totalInsts),
                r.shardCount, r.combinedCrc);
    return 0;
}

void
printStats(const RunStats &rs)
{
    TextTable t({"metric", "value"});
    t.addRow({"workload", rs.workload});
    t.addRow({"variant", variantName(rs.variant)});
    t.addRow({"threads", std::to_string(rs.threads)});
    t.addRow({"measured cycles", std::to_string(rs.cycles)});
    t.addRow({"total cycles (with warmup)",
              std::to_string(rs.totalCycles)});
    t.addRow({"committed instructions",
              std::to_string(rs.committedInsts)});
    t.addRow({"committed stores", std::to_string(rs.committedStores)});
    t.addRow({"system IPC", TextTable::num(rs.ipc, 2)});
    t.addRow({"L2 miss ratio", TextTable::percent(rs.l2MissRatio)});
    t.addRow({"NVM reads", std::to_string(rs.nvmReads)});
    t.addRow({"NVM writes", std::to_string(rs.nvmWrites)});
    t.addRow({"NVM bytes written", std::to_string(rs.nvmBytesWritten)});
    if (rs.regionCount) {
        t.addRow({"regions", std::to_string(rs.regionCount)});
        t.addRow({"stores / region",
                  TextTable::num(rs.avgRegionStores, 1)});
        t.addRow({"others / region",
                  TextTable::num(rs.avgRegionOthers, 1)});
        t.addRow({"boundary stall cycles",
                  std::to_string(rs.boundaryStallCycles)});
        t.addRow({"boundary stall ratio",
                  TextTable::percent(rs.boundaryStallRatio(), 2)});
        t.addRow({"persist ops", std::to_string(rs.persistOps)});
        t.addRow({"coalesced stores",
                  std::to_string(rs.coalescedStores)});
    }
    t.addRow({"rename no-free-reg stall",
              TextTable::percent(rs.renameStallRatio(), 2)});
    if (rs.auditEvents) {
        t.addRow({"audit events", std::to_string(rs.auditEvents)});
        t.addRow({"audit violations",
                  std::to_string(rs.auditViolations)});
    }
    if (!rs.traceDir.empty()) {
        char crc[16];
        std::snprintf(crc, sizeof(crc), "%08x", rs.traceCrc);
        t.addRow({"trace dir", rs.traceDir});
        t.addRow({"trace shards", std::to_string(rs.traceShards)});
        t.addRow({"trace insts", std::to_string(rs.traceInsts)});
        t.addRow({"trace crc32", crc});
    }
    if (rs.tpSegments) {
        t.addRow({"tp segments (simulated/total)",
                  std::to_string(rs.tpSimulatedSegments) + "/" +
                      std::to_string(rs.tpSegments)});
        t.addRow({"tp warmup insts / segment",
                  std::to_string(rs.tpWarmupInsts)});
        t.addRow({"tp warmup cycles (overlap work)",
                  std::to_string(rs.tpWarmupCycles)});
        if (rs.tpSampleStride > 1) {
            t.addRow({"tp sample stride",
                      std::to_string(rs.tpSampleStride)});
            t.addRow({"tp CPI rel stderr",
                      TextTable::percent(rs.tpCpiRelStderr, 2)});
        }
    }
    if (rs.powerFailures) {
        t.addRow({"power failures injected",
                  std::to_string(rs.powerFailures)});
        t.addRow({"replay audits", std::to_string(rs.replayAudits)});
        t.addRow({"replay addrs checked",
                  std::to_string(rs.replayAddrsChecked)});
        t.addRow({"replay mismatches",
                  std::to_string(rs.replayMismatches)});
    }
    if (rs.telemetry.enabled) {
        t.addRow({"telemetry covered cycles / core",
                  std::to_string(rs.telemetry.coveredCycles)});
        t.addRow({"telemetry series",
                  std::to_string(rs.telemetry.series.size())});
        t.addRow({"telemetry region events",
                  std::to_string(rs.telemetry.regionEvents.size())});
    }
    std::printf("%s", t.render().c_str());
    for (const std::string &m : rs.auditMessages)
        std::fprintf(stderr, "audit: %s\n", m.c_str());
}

/**
 * Print the stall-attribution and counter-series tables for a
 * telemetry-enabled run — the body of `ppa_cli profile`. Returns
 * false when the attribution partition does not cover the run's
 * cycles (a contract violation the CI smoke job would catch).
 */
bool
printTelemetryProfile(const RunStats &rs)
{
    const obs::TelemetryResult &t = rs.telemetry;

    TextTable stall({"cycle class", "cycles", "share"});
    std::uint64_t attributed = 0;
    for (unsigned c = 0; c < obs::kCycleClassCount; ++c)
        attributed += t.classCycles(static_cast<obs::CycleClass>(c));
    for (unsigned c = 0; c < obs::kCycleClassCount; ++c) {
        auto cls = static_cast<obs::CycleClass>(c);
        std::uint64_t cyc = t.classCycles(cls);
        stall.addRow({obs::cycleClassLabel(cls), std::to_string(cyc),
                      TextTable::percent(
                          attributed ? static_cast<double>(cyc) /
                                           static_cast<double>(attributed)
                                     : 0.0,
                          2)});
    }
    stall.addRow({"total", std::to_string(attributed), "100.00%"});
    std::printf("\nstall attribution (%zu core(s), %llu covered "
                "cycles each):\n%s",
                t.stallCycles.size(),
                static_cast<unsigned long long>(t.coveredCycles),
                stall.render().c_str());

    TextTable series({"series", "core", "samples", "mean", "p95",
                      "max bucket", "total"});
    for (const obs::TelemetrySeries &s : t.series) {
        series.addRow({s.name,
                       s.core < 0 ? std::string("sys")
                                  : std::to_string(s.core),
                       std::to_string(s.samples()),
                       TextTable::num(s.mean(), 2),
                       TextTable::num(s.percentile(0.95), 2),
                       TextTable::num(s.maxBucketMean(), 2),
                       std::to_string(s.total())});
    }
    std::printf("\ncounter series (sample period %llu cycles):\n%s",
                static_cast<unsigned long long>(t.sampleCycles),
                series.render().c_str());

    if (!t.regionEvents.empty() || t.droppedRegionEvents) {
        std::uint64_t drainCycles = 0;
        for (const obs::TelemetryRegionEvent &e : t.regionEvents)
            drainCycles += e.end - e.drainStart;
        std::printf("\nregions: %zu recorded (%llu dropped past cap), "
                    "%llu drain cycles in recorded spans\n",
                    t.regionEvents.size(),
                    static_cast<unsigned long long>(
                        t.droppedRegionEvents),
                    static_cast<unsigned long long>(drainCycles));
    }
    if (!t.powerEvents.empty())
        std::printf("power events: %zu span(s)\n",
                    t.powerEvents.size());

    // The acceptance check: every core's attribution rows partition
    // its covered cycles, and the covered window is the whole run.
    bool ok = true;
    for (std::size_t core = 0; core < t.stallCycles.size(); ++core) {
        std::uint64_t sum = 0;
        for (std::uint64_t v : t.stallCycles[core])
            sum += v;
        if (sum != t.coveredCycles)
            ok = false;
    }
    std::printf("attribution check: %llu cycles/core attributed, "
                "%llu covered, run total %llu — %s\n",
                static_cast<unsigned long long>(
                    t.stallCycles.empty()
                        ? 0
                        : attributed / t.stallCycles.size()),
                static_cast<unsigned long long>(t.coveredCycles),
                static_cast<unsigned long long>(rs.totalCycles),
                ok ? "OK" : "MISMATCH");
    return ok;
}

int
profileMain(Options &o)
{
    if (o.args.empty()) {
        std::fprintf(stderr, "profile: application name required\n");
        printHelp(kProfile);
        return 1;
    }

    const WorkloadProfile &profile = profileByName(o.args[0]);
    RunStats rs = runWorkload(profile, o.variant, o.knobs);

    TextTable head({"metric", "value"});
    head.addRow({"workload", rs.workload});
    head.addRow({"variant", variantName(rs.variant)});
    head.addRow({"threads", std::to_string(rs.threads)});
    head.addRow({"total cycles", std::to_string(rs.totalCycles)});
    head.addRow({"committed instructions",
                 std::to_string(rs.committedInsts)});
    head.addRow({"system IPC", TextTable::num(rs.ipc, 2)});
    std::printf("%s", head.render().c_str());

    bool ok = printTelemetryProfile(rs);

    if (!o.telemetryTrace.empty()) {
        if (!obs::writeChromeTrace(rs.telemetry, o.telemetryTrace)) {
            std::fprintf(stderr, "profile: cannot write %s\n",
                         o.telemetryTrace.c_str());
            return 1;
        }
        std::printf("wrote %s (load in https://ui.perfetto.dev or "
                    "chrome://tracing)\n",
                    o.telemetryTrace.c_str());
    }
    if (!o.json.empty()) {
        if (!metrics::writeFile(o.json,
                                metrics::runStatsToJson(rs) + "\n"))
            return 1;
        std::printf("wrote %s\n", o.json.c_str());
    }
    return ok ? 0 : 1;
}

int
litmusListMain(Options &)
{
    TextTable t({"test", "threads", "stores", "observed", "prefix",
                 "description"});
    for (const check::LitmusTest &test : check::litmusCorpus()) {
        std::vector<const Program *> progs;
        for (const Program &p : test.threads)
            progs.push_back(&p);
        check::PersistModel model(progs);
        t.addRow({test.name,
                  std::to_string(test.threads.size()),
                  std::to_string(model.totalStores()),
                  std::to_string(test.observed.size()),
                  test.prefixCoverage ? "yes" : "no",
                  test.description});
    }
    std::printf("%s", t.render().c_str());
    return 0;
}

int
litmusMain(Options &o)
{
    using check::ExploreMode;
    using check::LitmusOptions;
    using check::LitmusResult;
    using check::LitmusTest;

    LitmusOptions opts = o.litmus;
    opts.variant = o.variant;
    const std::string verb =
        opts.mode == ExploreMode::Exhaustive ? "run" : "explore";

    std::vector<const LitmusTest *> tests;
    if (o.all) {
        for (const LitmusTest &t : check::litmusCorpus())
            tests.push_back(&t);
    } else {
        for (const std::string &name : o.args) {
            const LitmusTest *t = check::findLitmusTest(name);
            if (!t) {
                std::fprintf(stderr,
                             "unknown litmus test '%s' (see "
                             "ppa_cli litmus list)\n",
                             name.c_str());
                return 1;
            }
            tests.push_back(t);
        }
    }
    if (tests.empty()) {
        std::fprintf(stderr,
                     "litmus %s: name tests or pass --all\n",
                     verb.c_str());
        return 1;
    }

    std::string why;
    if (!check::variantSupportsLitmus(opts.variant, &why)) {
        std::fprintf(stderr, "litmus: variant '%s' unsupported: %s\n",
                     variantToken(opts.variant), why.c_str());
        return 1;
    }

    std::printf("litmus %s: %zu test(s), variant %s (flavor %s)%s\n",
                verb.c_str(), tests.size(),
                variantToken(opts.variant),
                check::flavorName(
                    check::flavorForVariant(opts.variant)),
                opts.mode == ExploreMode::Randomized
                    ? (", " + std::to_string(opts.schedules) +
                       " crash points/test, seed " +
                       std::to_string(opts.seed))
                          .c_str()
                    : "");

    std::vector<LitmusResult> results;
    std::uint64_t divergences = 0;
    bool allPass = true;
    for (const LitmusTest *t : tests) {
        results.push_back(check::runLitmusTest(*t, opts));
        divergences += results.back().strictDivergences;
        allPass = allPass && results.back().pass();
    }

    TextTable t({"test", "crashes", "violations", "strict-div",
                 "vacuous", "required", "distinct", "verdict"});
    for (const LitmusResult &r : results) {
        t.addRow({r.test, std::to_string(r.crashPoints),
                  std::to_string(r.violations),
                  std::to_string(r.strictDivergences),
                  std::to_string(r.vacuous),
                  std::to_string(r.requiredSeen) + "/" +
                      std::to_string(r.requiredTotal),
                  std::to_string(r.distinctOutcomes),
                  r.corpusError ? "CORPUS-ERROR"
                                : (r.pass() ? "pass" : "FAIL")});
    }
    std::printf("%s", t.render().c_str());
    for (const LitmusResult &r : results) {
        for (const auto &s : r.samples)
            std::printf("%s: cycle %llu: %s\n", r.test.c_str(),
                        static_cast<unsigned long long>(s.cycle),
                        s.detail.c_str());
        for (const auto &n : r.notes)
            std::printf("%s: %s\n", r.test.c_str(), n.c_str());
    }

    if (!o.json.empty()) {
        if (!metrics::writeFile(o.json,
                                check::litmusResultsJson(results, opts)))
            return 1;
        std::printf("wrote %s\n", o.json.c_str());
    }

    if (o.expectDivergence && divergences == 0) {
        std::printf("FAIL: expected at least one strict-model "
                    "divergence, observed none\n");
        return 1;
    }
    std::printf("%s\n", allPass ? "litmus: all conformance checks pass"
                                : "litmus: FAILURES above");
    return allPass ? 0 : 1;
}

int
fuzzReproMain(Options &o)
{
    if (o.args.empty()) {
        std::fprintf(stderr, "fuzz repro: name a reproducer file\n");
        printHelp(kFuzzRepro);
        return 1;
    }
    const std::string &file = o.args[0];

    std::string text;
    if (!metrics::readFile(file, text))
        return 1;
    fuzz::Violation v;
    std::string error;
    if (!fuzz::parseReproducerText(text, v, error)) {
        std::fprintf(stderr, "%s: %s\n", file.c_str(), error.c_str());
        return 1;
    }

    fuzz::ShrinkLimits limits;
    std::uint64_t judged = 0;
    fuzz::Violation found;
    if (!fuzz::findEarliestViolation(v.spec, v.variant, v.flavor,
                                     limits, judged, found)) {
        std::printf("%s: FAIL — no crash cycle violates %s on %s "
                    "anymore (%llu crash sims)\n",
                    file.c_str(), check::flavorName(v.flavor),
                    variantToken(v.variant),
                    static_cast<unsigned long long>(judged));
        return 1;
    }
    std::printf("%s: violation confirmed on %s under %s at cycle %llu"
                " (recorded %llu)\n",
                file.c_str(), variantToken(v.variant),
                check::flavorName(v.flavor),
                static_cast<unsigned long long>(found.cycle),
                static_cast<unsigned long long>(v.cycle));
    if (o.checkMinimal) {
        if (!fuzz::isOneMinimal(found, limits, judged)) {
            std::printf("%s: FAIL — a 1-step reduction still "
                        "violates; reproducer is not minimal\n",
                        file.c_str());
            return 1;
        }
        std::printf("%s: 1-minimal (every further reduction passes; "
                    "%llu crash sims)\n",
                    file.c_str(),
                    static_cast<unsigned long long>(judged));
    }
    return 0;
}

int
fuzzMain(Options &o)
{
    fuzz::CampaignOptions opts = o.fuzz;
    opts.variant = o.variant;
    std::string why;
    if (!check::variantSupportsLitmus(opts.variant, &why)) {
        std::fprintf(stderr, "fuzz: variant '%s' unsupported: %s\n",
                     variantToken(opts.variant), why.c_str());
        return 1;
    }

    std::printf("fuzz run: %llu program(s) x %u crash point(s), "
                "variant %s (flavor %s), seed %llu\n",
                static_cast<unsigned long long>(opts.programs),
                opts.schedules, variantToken(opts.variant),
                check::flavorName(check::flavorForVariant(opts.variant)),
                static_cast<unsigned long long>(opts.seed));

    fuzz::CampaignResult res = fuzz::runCampaign(opts);

    TextTable t({"programs", "crashes", "violations", "strict-div",
                 "skipped", "findings", "verdict"});
    t.addRow({std::to_string(res.programs),
              std::to_string(res.crashPoints),
              std::to_string(res.violations),
              std::to_string(res.strictDivergences),
              std::to_string(res.skipped),
              std::to_string(res.findings.size()),
              res.pass() ? "pass" : "FAIL"});
    std::printf("%s", t.render().c_str());
    for (const fuzz::CampaignFinding &f : res.findings) {
        std::printf("%s: %s; shrunk %u->%u threads, %llu->%llu "
                    "actions, cycle %llu (%u steps)%s%s\n",
                    f.program.c_str(), f.detail.c_str(),
                    f.threadsBefore, f.threadsAfter,
                    static_cast<unsigned long long>(f.actionsBefore),
                    static_cast<unsigned long long>(f.actionsAfter),
                    static_cast<unsigned long long>(f.shrunkCycle),
                    f.shrinkSteps,
                    f.replayAttempted
                        ? (f.replayConfirmed ? "; replay confirmed"
                                             : "; REPLAY DIVERGED")
                        : "",
                    f.reproducerFile.empty()
                        ? ""
                        : ("; wrote " + f.reproducerFile).c_str());
    }
    for (const std::string &n : res.notes)
        std::printf("note: %s\n", n.c_str());

    if (!o.json.empty()) {
        if (!metrics::writeFile(o.json, fuzz::campaignJson(res, opts)))
            return 1;
        std::printf("wrote %s\n", o.json.c_str());
    }

    bool ok = res.pass();
    for (const fuzz::CampaignFinding &f : res.findings)
        if (f.replayAttempted && !f.replayConfirmed)
            ok = false;
    if (o.expectDivergence && res.strictDivergences == 0) {
        std::printf("FAIL: expected at least one strict-forbidden "
                    "state, observed none\n");
        ok = false;
    }
    std::printf("%s\n", ok ? "fuzz: campaign verdict pass"
                           : "fuzz: FAILURES above");
    return ok ? 0 : 1;
}

int
serveMain(Options &o)
{
    const serve::ServeConfig &cfg = o.serve;
    std::vector<serve::ServeVariant> &variants = o.serveVariants;

    if ((cfg.keys & (cfg.keys - 1)) != 0) {
        std::fprintf(stderr,
                     "--keys must be a power of two, got %llu (see "
                     "ppa_cli --help)\n",
                     static_cast<unsigned long long>(cfg.keys));
        return 1;
    }
    if (cfg.keys > 65536) {
        std::fprintf(stderr,
                     "--keys must be at most 65536, got %llu (the "
                     "per-thread data regions are 16 MiB)\n",
                     static_cast<unsigned long long>(cfg.keys));
        return 1;
    }
    if (cfg.readPct > 100) {
        std::fprintf(stderr, "--read-pct must be at most 100, got %u\n",
                     cfg.readPct);
        return 1;
    }
    if (cfg.arrival.kind == serve::ArrivalKind::Bursty) {
        if (cfg.arrival.onFraction <= 0.0 ||
            cfg.arrival.onFraction >= 1.0) {
            std::fprintf(stderr,
                         "--on-fraction wants a fraction in (0, 1), "
                         "got %g\n",
                         cfg.arrival.onFraction);
            return 1;
        }
        if (cfg.arrival.burstFactor <= 0.0) {
            std::fprintf(stderr,
                         "--burst-factor must be positive, got %g\n",
                         cfg.arrival.burstFactor);
            return 1;
        }
        if (cfg.arrival.burstFactor * cfg.arrival.onFraction > 1.0) {
            std::fprintf(stderr,
                         "--burst-factor times --on-fraction must be "
                         "at most 1 (the off-phase rate would be "
                         "negative)\n");
            return 1;
        }
    }
    if (!o.telemetryTrace.empty() && !cfg.telemetry) {
        std::fprintf(stderr,
                     "--telemetry-trace requires --telemetry\n");
        return 1;
    }
    if (variants.empty())
        variants = serve::allServeVariants();

    std::printf("serve: %llu %s request(s) on %u thread(s), %s "
                "arrivals (mean gap %g), zipf theta %g, %u failure "
                "point(s), seed %llu\n",
                static_cast<unsigned long long>(cfg.requests),
                serve::serveWorkloadToken(cfg.workload), cfg.threads,
                serve::arrivalToken(cfg.arrival.kind),
                cfg.arrival.meanGap, cfg.skew, cfg.failures,
                static_cast<unsigned long long>(cfg.seed));

    serve::ServeStats stats = serve::runServeStudy(cfg, variants);

    auto median = [](std::vector<std::uint64_t> v) -> std::uint64_t {
        if (v.empty())
            return 0;
        std::sort(v.begin(), v.end());
        return v[(v.size() + 1) / 2 - 1];
    };

    TextTable t({"variant", "completed", "req/kcyc", "p50", "p95",
                 "p99", "p99.9", "recovery~", "loss~", "lost~"});
    for (const serve::ServeVariantStats &vs : stats.variants) {
        std::vector<std::uint64_t> recovery, loss, lost;
        for (const serve::FailurePoint &fp : vs.failures) {
            recovery.push_back(fp.recoveryCycles);
            loss.push_back(fp.lossWindow);
            lost.push_back(fp.lostRequests);
        }
        t.addRow({serve::serveVariantToken(vs.variant),
                  std::to_string(vs.completed),
                  TextTable::num(vs.achievedPerKcycle, 2),
                  std::to_string(vs.latency.percentile(0.50)),
                  std::to_string(vs.latency.percentile(0.95)),
                  std::to_string(vs.latency.percentile(0.99)),
                  std::to_string(vs.latency.percentile(0.999)),
                  std::to_string(median(recovery)),
                  std::to_string(median(loss)),
                  std::to_string(median(lost))});
    }
    std::printf("%s", t.render().c_str());
    std::printf("(~ columns are medians over the %u injected failure "
                "points; latency columns are cycles)\n",
                cfg.failures);

    bool ok = true;
    for (const serve::ServeVariantStats &vs : stats.variants) {
        if (vs.completed != vs.requests) {
            std::printf("WARN: %s completed %llu of %llu requests "
                        "before the cycle cap\n",
                        serve::serveVariantToken(vs.variant),
                        static_cast<unsigned long long>(vs.completed),
                        static_cast<unsigned long long>(vs.requests));
            ok = false;
        }
    }

    if (!o.telemetryTrace.empty()) {
        if (!obs::writeChromeTrace(stats.variants.front().telemetry,
                                   o.telemetryTrace))
            return 1;
        std::printf("wrote %s\n", o.telemetryTrace.c_str());
    }
    if (!o.json.empty()) {
        if (!metrics::writeFile(o.json,
                                serve::serveToJson(stats) + "\n"))
            return 1;
        std::printf("wrote %s\n", o.json.c_str());
    }
    return ok ? 0 : 1;
}

int
runMain(Options &o)
{
    if (o.list) {
        TextTable t({"app", "suite", "threads", "store frac",
                     "working set (MiB)"});
        for (const auto &p : allProfiles()) {
            t.addRow({p.name, suiteName(p.suite),
                      std::to_string(p.defaultThreads),
                      TextTable::percent(p.fracStore),
                      TextTable::num(
                          static_cast<double>(p.workingSetBytes) /
                              (1024.0 * 1024.0),
                          1)});
        }
        std::printf("%s", t.render().c_str());
        return 0;
    }
    std::string app = o.app;
    ExperimentKnobs &knobs = o.knobs;
    const SystemVariant variant = o.variant;

    if (!knobs.traceDir.empty()) {
        // The trace manifest is authoritative for what was recorded:
        // app, thread count, stream length, and seed all come from it.
        trace::TraceSet set = trace::TraceSet::openOrDie(knobs.traceDir);
        const trace::TraceMeta &meta = set.metadata();
        if (!app.empty() && app != meta.app) {
            std::fprintf(stderr,
                         "--app %s conflicts with trace '%s' (recorded "
                         "from %s)\n",
                         app.c_str(), knobs.traceDir.c_str(),
                         meta.app.c_str());
            return 1;
        }
        if (o.instsGiven && knobs.instsPerCore != meta.instsPerThread) {
            std::fprintf(stderr,
                         "--insts %llu conflicts with trace '%s' (%llu "
                         "insts per thread)\n",
                         static_cast<unsigned long long>(
                             knobs.instsPerCore),
                         knobs.traceDir.c_str(),
                         static_cast<unsigned long long>(
                             meta.instsPerThread));
            return 1;
        }
        app = meta.app;
        knobs.threads = meta.threads;
        knobs.instsPerCore = meta.instsPerThread;
        knobs.seed = meta.seed;
    }
    if (app.empty()) {
        printHelp(kRun);
        return 1;
    }

    const WorkloadProfile &profile = profileByName(app);
    if (o.errorBound && knobs.timeParallel < 2) {
        std::fprintf(stderr,
                     "--error-bound requires --time-parallel K "
                     "(K >= 2)\n");
        return 1;
    }
    if (o.errorBound && !knobs.tpFailAt.empty()) {
        std::fprintf(stderr,
                     "note: --error-bound compares against a "
                     "failure-free serial run; --tp-fail effects are "
                     "part of the reported delta\n");
    }

    RunStats rs = runWorkload(profile, variant, knobs);
    printStats(rs);
    if (!o.telemetryTrace.empty()) {
        if (!obs::writeChromeTrace(rs.telemetry, o.telemetryTrace))
            return 1;
        std::printf("wrote %s\n", o.telemetryTrace.c_str());
    }
    if (!o.json.empty()) {
        if (!metrics::writeFile(o.json,
                                metrics::runStatsToJson(rs) + "\n"))
            return 1;
        std::printf("wrote %s\n", o.json.c_str());
    }

    if (o.errorBound) {
        // The accuracy contract's empirical side (docs/PERF.md): how
        // far does the segmented run drift from the unsegmented
        // serial reference with this warmup length?
        ExperimentKnobs serialKnobs = knobs;
        serialKnobs.timeParallel = 0;
        serialKnobs.tpFailAt.clear();
        RunStats ref = runWorkload(profile, variant, serialKnobs);
        TextTable t({"stat", "serial", "time-parallel", "rel delta"});
        double worst = 0.0;
        for (const StatDelta &d : statDeltas(ref, rs)) {
            worst = std::max(worst, std::fabs(d.relative()));
            t.addRow({d.name, TextTable::num(d.serial, 3),
                      TextTable::num(d.segmented, 3),
                      TextTable::percent(d.relative(), 2)});
        }
        std::printf("\nerror bound vs unsegmented serial run "
                    "(warmup %llu insts/segment):\n%s"
                    "worst-case relative delta: %s\n",
                    static_cast<unsigned long long>(
                        knobs.tpWarmupInsts),
                    t.render().c_str(),
                    TextTable::percent(worst, 2).c_str());
    }

    if (o.compare && variant != SystemVariant::MemoryMode) {
        ExperimentKnobs base_knobs = knobs;
        base_knobs.failAtCycles.clear(); // PPA-only mechanism
        RunStats base =
            runWorkload(profile, SystemVariant::MemoryMode, base_knobs);
        std::printf("\nslowdown vs memory-mode baseline: %s\n",
                    TextTable::factor(slowdown(rs, base)).c_str());
    }
    return 0;
}

const Command kCommands[] = {
    {"run", kRun, 0, runMain},
    {"profile", kProfile, 1, profileMain},
    {"trace record", kRecord, 0, traceRecordMain},
    {"trace info", kTraceDir, 1, traceInfoMain},
    {"trace cat", kCat, 1, traceCatMain},
    {"trace verify", kTraceDir, 1, traceVerifyMain},
    {"sweep", kSweep, 1, sweepMain},
    {"litmus list", kLitmusList, 0, litmusListMain},
    {"litmus run", kLitmusRun, SIZE_MAX, litmusMain},
    {"litmus explore", kLitmusExplore, SIZE_MAX, litmusMain},
    {"fuzz run", kFuzzRun, 0, fuzzMain},
    {"fuzz repro", kFuzzRepro, 1, fuzzReproMain},
    {"serve", kServe, 0, serveMain},
};

} // namespace

int
main(int argc, char **argv)
{
    // "ppa_cli SUB [VERB] args...": with no SUB (the first argument is
    // a flag) the default run subcommand runs; trace, litmus and fuzz
    // need a VERB.
    const std::string sub = argc > 1 ? argv[1] : "";
    const std::string verb = argc > 2 ? argv[2] : "";
    const Command *cmd = &kCommands[0];
    int used = 1;
    std::string verbs;
    unsigned groupScope = 0;
    for (const Command &c : kCommands) {
        const std::string name = c.name;
        if (name == sub) {
            cmd = &c;
            used = 2;
        } else if (!sub.empty() && name.rfind(sub + " ", 0) == 0) {
            const std::string v = name.substr(sub.size() + 1);
            if (v == verb) {
                cmd = &c;
                used = 3;
            }
            verbs += (verbs.empty() ? "" : " | ") + v;
            groupScope |= c.scope;
        }
    }
    if (used == 1 && groupScope) {
        if (verb == "--help" || verb == "-h") {
            printHelp(groupScope);
            return 0;
        }
        if (verb.empty())
            std::fprintf(stderr, "%s: subcommand required (%s)\n",
                         sub.c_str(), verbs.c_str());
        else
            std::fprintf(stderr, "unknown %s subcommand '%s' (%s)\n",
                         sub.c_str(), verb.c_str(), verbs.c_str());
        return 1;
    }
    if (used == 1 && !sub.empty() && sub[0] != '-') {
        std::fprintf(stderr,
                     "unknown subcommand '%s' (see ppa_cli --help)\n",
                     sub.c_str());
        return 1;
    }

    Options o = optionsFor(cmd->scope);
    parseArgs(*cmd, argc - used, argv + used, o);
    return cmd->main(o);
}
