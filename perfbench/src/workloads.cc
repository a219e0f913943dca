#include "workloads.hh"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "check/litmus.hh"
#include "core/params.hh"
#include "fuzz/campaign.hh"
#include "serve/serve.hh"
#include "sim/driver.hh"
#include "sim/report.hh"
#include "sim/system.hh"
#include "spans.hh"
#include "trace/capture.hh"
#include "trace/reader.hh"
#include "util.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace perfbench
{

/**
 * The simulated machines of a workload, one per distinct
 * (app, variant, threads): build() constructs one as a job would
 * (System, bindSource with generator streams, seedMemory) and releases
 * it, so set-up never holds more than one at a time, and remembers it
 * for warm(). The streams use a fixed seed, so set-up does the same
 * work for every run seed.
 */
class Machines
{
  public:
    void
    build(const ppa::WorkloadProfile &profile, ppa::SystemVariant variant,
          unsigned threads)
    {
        specs.push_back({profile, variant, threads});
        construct(specs.back(), 0);
    }

    /** Build each machine again and run it for @p cycles. */
    void
    warm(std::uint64_t cycles) const
    {
        for (const Spec &spec : specs)
            construct(spec, cycles);
    }

    void clear() { specs.clear(); }

  private:
    struct Spec
    {
        ppa::WorkloadProfile profile;
        ppa::SystemVariant variant;
        unsigned threads;
    };

    static void
    construct(const Spec &spec, std::uint64_t cycles)
    {
        std::vector<std::unique_ptr<ppa::StreamGenerator>> streams;
        ppa::System system(ppa::makeSystemConfig(
            spec.variant, ppa::ExperimentKnobs{}, spec.threads));
        for (unsigned t = 0; t < spec.threads; ++t) {
            streams.push_back(
                std::make_unique<ppa::StreamGenerator>(spec.profile, t, 1));
            system.bindSource(t, streams.back().get());
        }
        system.seedMemory(ppa::MemImage{});
        if (cycles)
            system.runUntilCycle(cycles);
    }

    std::vector<Spec> specs;
};

Workload::Workload() : machines(std::make_unique<Machines>()) {}

Workload::~Workload() = default;

void
Workload::warmUp()
{
    if (!warmed)
        machines->warm(20'000);
    warmed = true;
    machines->clear();
}

namespace
{

using namespace ppa;

/** Derive an independent seed for one input family from the run seed. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// sweep: generator-driven runWorkload jobs, memory- and compute-bound
// apps x memory-mode / ppa / replaycache.
// ---------------------------------------------------------------------

class SweepWorkload : public Workload
{
  public:
    explicit SweepWorkload(const BenchOptions &o)
        : opts(o), driver(o.workers)
    {
    }

    void
    prepare() override
    {
        static const char *const apps[] = {"gcc", "hmmer", "lbm",
                                           "mcf", "pc",    "tatp"};
        static const SystemVariant variants[] = {
            SystemVariant::MemoryMode, SystemVariant::Ppa,
            SystemVariant::ReplayCache};
        jobs.clear();
        for (const char *app : apps) {
            for (SystemVariant v : variants) {
                SweepJob job;
                job.profile = profileByName(app);
                job.variant = v;
                // About equal instructions per job (8-thread jobs get
                // a quarter of the per-core budget), so the closed loop
                // packs well and one slow job does not set the round.
                unsigned threads = job.profile.defaultThreads;
                job.knobs.instsPerCore =
                    (opts.tiny ? 1'500 : 40'000) / (threads > 1 ? 4 : 1);
                job.knobs.seed = mixSeed(opts.seed, 1);
                jobs.push_back(job);
            }
        }
        // Longest jobs first, so the closed loop's tail stays short.
        std::stable_sort(jobs.begin(), jobs.end(),
                         [](const SweepJob &a, const SweepJob &b) {
                             return cost(a) > cost(b);
                         });
        for (const SweepJob &job : jobs)
            machines->build(job.profile, job.variant,
                            job.profile.defaultThreads);
    }

    RoundResult
    round() override
    {
        RoundResult r;
        std::vector<JobResult> results;
        auto start = Clock::now();
        {
            Span span("sim", "ExperimentDriver::run");
            results = driver.run(jobs);
        }
        r.wallSeconds = secondsSince(start);
        std::vector<RunStats> stats;
        for (const JobResult &job : results) {
            stats.push_back(job.stats);
            r.opSeconds.push_back(job.wallSeconds);
        }

        Digest digest;
        double insts = 0.0, cycles = 0.0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const RunStats &rs = stats[i];
            digest.add(metrics::runStatsToJson(rs));
            insts += static_cast<double>(rs.committedInsts);
            cycles += static_cast<double>(rs.totalCycles);
            ++r.attempted;
            if (!committedBudget(jobs[i], rs)) {
                ++r.failed;
                r.problems.push_back(
                    "sweep: " + jobs[i].profile.name + "/" +
                    variantToken(jobs[i].variant) + " committed " +
                    std::to_string(rs.committedInsts) + " instructions");
            }
        }
        r.digest = digest.hex();
        r.named = {
            {"sim_kips", insts / r.wallSeconds / 1e3, "kinst/s"},
            {"sim_mcycles_per_s", cycles / r.wallSeconds / 1e6, "Mcycle/s"},
            {"ppa_slowdown_geomean", ppaSlowdown(stats), "x"},
        };
        return r;
    }

    CheckResult
    check(bool traced) override
    {
        // The auditors and the power-failure replay diff are read-only
        // instrumentation whose results land in RunStats, so they run
        // here rather than in the digested rounds.
        CheckResult c;
        if (!traced)
            return c;
        std::vector<SweepJob> audited;
        for (SweepJob job : jobs) {
            if (job.variant != SystemVariant::Ppa)
                continue;
            job.knobs.audit = true;
            job.knobs.failAtCycles = {2'000, 9'000};
            audited.push_back(job);
        }
        std::vector<JobResult> results;
        {
            Span span("check", "auditedExperimentDriver::run");
            results = driver.run(audited);
        }
        for (std::size_t i = 0; i < audited.size(); ++i) {
            const RunStats &rs = results[i].stats;
            ++c.attempted;
            if (rs.auditViolations || rs.replayMismatches ||
                !rs.powerFailures || !committedBudget(audited[i], rs)) {
                ++c.failed;
                c.problems.push_back(
                    "sweep audit: " + audited[i].profile.name + " saw " +
                    std::to_string(rs.auditViolations) + " violations, " +
                    std::to_string(rs.replayMismatches) +
                    " replay mismatches over " +
                    std::to_string(rs.powerFailures) + " power failures");
            }
        }
        return c;
    }

  private:
    static unsigned
    cost(const SweepJob &job)
    {
        unsigned per = job.variant == SystemVariant::ReplayCache ? 3 : 2;
        return job.profile.defaultThreads * per;
    }

    /** ReplayCache also commits the clwbs and fences it injects. */
    static bool
    committedBudget(const SweepJob &job, const RunStats &rs)
    {
        std::uint64_t budget =
            job.knobs.instsPerCore * job.profile.defaultThreads;
        return job.variant == SystemVariant::ReplayCache
                   ? rs.committedInsts >= budget
                   : rs.committedInsts == budget;
    }

    /** Geomean over apps of ppa cycles / memory-mode cycles. */
    double
    ppaSlowdown(const std::vector<RunStats> &stats) const
    {
        std::vector<double> slowdowns;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (jobs[i].variant != SystemVariant::Ppa)
                continue;
            for (std::size_t j = 0; j < jobs.size(); ++j) {
                if (jobs[j].variant == SystemVariant::MemoryMode &&
                    jobs[j].profile.name == jobs[i].profile.name)
                    slowdowns.push_back(slowdown(stats[i], stats[j]));
            }
        }
        return geomean(slowdowns);
    }

    BenchOptions opts;
    std::vector<SweepJob> jobs;
    ExperimentDriver driver;
};

// ---------------------------------------------------------------------
// serve-crash: the serving study with injected power failures.
// ---------------------------------------------------------------------

class ServeWorkload : public Workload
{
  public:
    explicit ServeWorkload(const BenchOptions &o) : opts(o) {}

    void
    prepare() override
    {
        cfg = serve::ServeConfig{};
        cfg.workload = serve::ServeWorkload::Tatp;
        cfg.requests = opts.tiny ? 300 : 8'000;
        cfg.failures = opts.tiny ? 2 : 8;
        cfg.seed = mixSeed(opts.seed, 2);
        cfg.workers = opts.workers;
        const WorkloadProfile &tatp = profileByName("tatp");
        for (SystemVariant v :
             {SystemVariant::Ppa, SystemVariant::ReplayCache})
            machines->build(tatp, v, cfg.threads);
    }

    RoundResult
    round() override
    {
        RoundResult r;
        serve::ServeStats study;
        study.config = cfg;
        auto start = Clock::now();
        for (serve::ServeVariant v : serve::allServeVariants()) {
            setCurrentJob(static_cast<std::uint64_t>(v) + 1);
            auto t0 = Clock::now();
            {
                Span span("serve", "runServeStudy");
                study.variants.push_back(
                    serve::runServeStudy(cfg, {v}).variants.front());
            }
            r.opSeconds.push_back(secondsSince(t0));
        }
        r.wallSeconds = secondsSince(start);

        std::string json = serve::serveToJson(study);
        Digest digest;
        digest.add(json);
        r.digest = digest.hex();

        double completed = 0.0, insts = 0.0, cycles = 0.0;
        for (const serve::ServeVariantStats &vs : study.variants) {
            completed += static_cast<double>(vs.completed);
            insts += static_cast<double>(vs.committedInsts);
            cycles += static_cast<double>(vs.serviceCycles);
        }
        checkInvariants(json, r);
        r.named = {
            {"serve_req_per_s", completed / r.wallSeconds, "req/s"},
            {"sim_kips", insts / r.wallSeconds / 1e3, "kinst/s"},
            {"sim_mcycles_per_s", cycles / r.wallSeconds / 1e6, "Mcycle/s"},
        };
        return r;
    }

    CheckResult check(bool) override { return {}; }

  private:
    /** The invariants tools/serve_report.py checks, on the same JSON. */
    static void
    checkInvariants(const std::string &json, RoundResult &r)
    {
        metrics::JsonValue doc;
        std::string error;
        if (!metrics::JsonValue::parse(json, doc, error)) {
            r.attempted += 1;
            r.failed += 1;
            r.problems.push_back("serve: unparsable report: " + error);
            return;
        }
        for (const metrics::JsonValue &variant :
             doc.field("serve").field("variants").items()) {
            const std::string tag =
                "serve " + variant.field("variant").asString() + ": ";
            const metrics::JsonValue &s =
                variant.field("stats").field("serve");
            std::vector<std::string> bad;
            if (s.field("completed").asUint64() !=
                s.field("requests").asUint64())
                bad.push_back("completed != requests");
            const metrics::JsonValue &lat = s.field("latency");
            double prev = 0.0;
            for (const char *q :
                 {"p50", "p95", "p99", "p999", "p9999", "max"}) {
                double v = lat.field(q).asDouble();
                if (v < prev)
                    bad.push_back(std::string("latency ") + q +
                                  " below the previous quantile");
                prev = v;
            }
            for (const metrics::JsonValue &p :
                 s.field("failures").field("points").items()) {
                std::uint64_t cycle = p.field("cycle").asUint64();
                if (p.field("durableRequests").asUint64() +
                        p.field("lostRequests").asUint64() !=
                    p.field("completedRequests").asUint64())
                    bad.push_back("durable + lost != completed at cycle " +
                                  std::to_string(cycle));
                if (p.field("lossWindow").asUint64() > cycle)
                    bad.push_back("loss window exceeds crash cycle " +
                                  std::to_string(cycle));
            }
            r.attempted += 1;
            if (!bad.empty()) {
                r.failed += 1;
                for (const std::string &b : bad)
                    r.problems.push_back(tag + b);
            }
        }
    }

    BenchOptions opts;
    serve::ServeConfig cfg;
};

// ---------------------------------------------------------------------
// crash-check: exhaustive litmus corpus + one fuzz campaign per variant.
// ---------------------------------------------------------------------

class CrashCheckWorkload : public Workload
{
  public:
    explicit CrashCheckWorkload(const BenchOptions &o)
        : opts(o), pool(o.workers)
    {
    }

    void
    prepare() override
    {
        const std::vector<check::LitmusTest> &corpus = check::litmusCorpus();
        jobs.clear();
        // Campaigns first: they are the longest jobs.
        for (SystemVariant v : variants)
            jobs.push_back({v, nullptr});
        for (const check::LitmusTest &test : corpus) {
            for (SystemVariant v : variants)
                jobs.push_back({v, &test});
        }
        campaign = fuzz::CampaignOptions{};
        campaign.programs = opts.tiny ? 2 : 12;
        campaign.schedules = 8;
        campaign.seed = mixSeed(opts.seed, 3);
        campaign.maxFindings = 1;
        // Cap the shrink: how long a finding takes to minimize depends
        // on which random program violated first, and an uncapped
        // shrink would make the round's cost a lottery on the seed.
        campaign.shrink.maxCrashSims = 2'000;

        const WorkloadProfile &gcc = profileByName("gcc");
        for (SystemVariant v : variants) {
            for (unsigned threads = 1; threads <= 2; ++threads)
                machines->build(gcc, v, threads);
        }
    }

    RoundResult
    round() override
    {
        RoundResult r;
        std::vector<check::LitmusResult> litmus(jobs.size());
        std::vector<fuzz::CampaignResult> campaigns(jobs.size());
        std::vector<double> secs(jobs.size(), 0.0);
        auto start = Clock::now();
        pool.run(jobs.size(), [&](std::size_t i) {
            setCurrentJob(i + 1);
            auto t0 = Clock::now();
            const Job &job = jobs[i];
            if (job.test) {
                Span span("check", "runLitmusTest");
                litmus[i] = check::runLitmusTest(*job.test,
                                                 litmusOptions(job.variant));
            } else {
                Span span("fuzz", "runCampaign");
                fuzz::CampaignOptions o = campaign;
                o.variant = job.variant;
                campaigns[i] = fuzz::runCampaign(o);
            }
            secs[i] = secondsSince(t0);
        });
        r.wallSeconds = secondsSince(start);

        Digest digest;
        std::uint64_t mmDivergences = 0;
        for (SystemVariant v : variants) {
            std::vector<check::LitmusResult> results;
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                if (jobs[i].variant == v && jobs[i].test)
                    results.push_back(litmus[i]);
            }
            digest.add(check::litmusResultsJson(results, litmusOptions(v)));
        }
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const Job &job = jobs[i];
            std::uint64_t points = 0;
            if (job.test) {
                const check::LitmusResult &res = litmus[i];
                points = res.crashPoints;
                r.failed += litmusFailures(job, res, r.problems);
                if (job.variant == SystemVariant::MemoryMode)
                    mmDivergences += res.strictDivergences;
            } else {
                fuzz::CampaignOptions o = campaign;
                o.variant = job.variant;
                const fuzz::CampaignResult &res = campaigns[i];
                digest.add(fuzz::campaignJson(res, o));
                points = res.crashPoints;
                if (!res.pass()) {
                    r.failed += res.violations + res.skipped;
                    r.problems.push_back(
                        std::string("campaign ") + variantToken(job.variant) +
                        ": " + std::to_string(res.violations) +
                        " violations, " + std::to_string(res.skipped) +
                        " skipped programs");
                }
            }
            r.attempted += points;
            if (points)
                r.opSeconds.push_back(secs[i] / static_cast<double>(points));
        }
        if (mmDivergences == 0) {
            // The checker no longer tells memory-mode from ppa.
            r.failed += 1;
            r.problems.push_back(
                "litmus memory-mode: no strict divergence observed");
        }
        r.digest = digest.hex();
        r.named = {
            {"crash_points_per_s",
             static_cast<double>(r.attempted) / r.wallSeconds, "1/s"},
            {"crash_point_ms_p50", quantile(r.opSeconds, 0.5) * 1e3, "ms"},
            {"crash_point_ms_p99", quantile(r.opSeconds, 0.99) * 1e3, "ms"},
        };
        return r;
    }

    CheckResult check(bool) override { return {}; }

  private:
    struct Job
    {
        SystemVariant variant;
        const check::LitmusTest *test; ///< nullptr = fuzz campaign
    };

    static check::LitmusOptions
    litmusOptions(SystemVariant v)
    {
        check::LitmusOptions o;
        o.variant = v;
        o.mode = check::ExploreMode::Exhaustive;
        return o;
    }

    /**
     * ppa must pass strictly with full coverage; memory-mode must not
     * violate its own (relaxed) flavor.
     */
    static std::uint64_t
    litmusFailures(const Job &job, const check::LitmusResult &res,
                   std::vector<std::string> &problems)
    {
        std::uint64_t failed = res.violations;
        if (job.variant == SystemVariant::Ppa) {
            failed = res.strictDivergences;
            if (res.vacuous)
                failed += 1;
        }
        if (res.corpusError)
            failed += 1;
        if (failed) {
            problems.push_back(
                "litmus " + res.test + " on " + variantToken(job.variant) +
                ": " + std::to_string(res.violations) + " violations, " +
                std::to_string(res.strictDivergences) +
                " strict divergences, " + std::to_string(res.vacuous) +
                " vacuous");
        }
        return failed;
    }

    static constexpr SystemVariant variants[] = {SystemVariant::Ppa,
                                                 SystemVariant::MemoryMode};
    BenchOptions opts;
    std::vector<Job> jobs;
    fuzz::CampaignOptions campaign;
    WorkerPool pool;
};

// ---------------------------------------------------------------------
// trace-replay: record, verify, decode and replay single-thread traces.
// ---------------------------------------------------------------------

class TraceReplayWorkload : public Workload
{
  public:
    explicit TraceReplayWorkload(const BenchOptions &o) : opts(o) {}

    void
    prepare() override
    {
        insts = opts.tiny ? 3'000 : 150'000;
        seed = mixSeed(opts.seed, 4);
        apps = {"gcc", "hmmer"};
        lastTraceRun.assign(apps.size(), RunStats{});
        for (const std::string &app : apps) {
            std::filesystem::create_directories(traceDir(app));
            machines->build(profileByName(app), SystemVariant::Ppa, 1);
        }
    }

    RoundResult
    round() override
    {
        RoundResult r;
        Digest digest;
        double bytes = 0.0, recordS = 0.0, drainS = 0.0;
        double simInsts = 0.0, simCycles = 0.0;
        auto start = Clock::now();
        for (std::size_t a = 0; a < apps.size(); ++a) {
            setCurrentJob(a + 1);
            const WorkloadProfile &profile = profileByName(apps[a]);
            const std::string dir = traceDir(apps[a]);
            auto t0 = Clock::now();
            std::vector<std::string> bad;

            trace::CaptureSpec spec;
            spec.seed = seed;
            spec.threads = 1;
            spec.instsPerThread = insts;
            trace::TraceSummary summary;
            {
                Span span("trace", "recordWorkloadTrace");
                summary = trace::recordWorkloadTrace(dir, profile, spec);
            }
            recordS += secondsSince(t0);
            double shardBytes = shardBytesIn(dir);
            bytes += shardBytes;

            trace::VerifyResult verdict;
            {
                Span span("trace", "verifyTrace");
                verdict = trace::verifyTrace(dir);
            }
            if (!verdict.ok || verdict.totalInsts != insts ||
                verdict.combinedCrc != summary.combinedCrc)
                bad.push_back("verifyTrace rejected the recording");

            auto d0 = Clock::now();
            std::uint64_t decoded = 0, streamHash = 0;
            {
                Span span("trace", "drainDecoder");
                trace::TraceSet set;
                std::string error;
                if (!set.load(dir, error)) {
                    bad.push_back("TraceSet::load: " + error);
                } else {
                    trace::TraceReplaySource source(set, 0);
                    DynInst inst;
                    while (source.next(inst)) {
                        ++decoded;
                        streamHash = streamHash * 0x100000001b3ull ^
                                     (inst.pc + inst.memAddr * 31 +
                                      static_cast<std::uint64_t>(inst.op));
                    }
                }
            }
            drainS += secondsSince(d0);
            if (decoded != insts)
                bad.push_back("decoder returned " + std::to_string(decoded) +
                              " instructions");

            ExperimentKnobs knobs;
            knobs.threads = 1;
            knobs.instsPerCore = insts;
            knobs.seed = seed;
            knobs.traceDir = dir;
            RunStats serial;
            {
                Span span("sim", "runWorkload");
                serial = runWorkload(profile, SystemVariant::Ppa, knobs);
            }
            // Both segments on this thread: on a shared host a second
            // worker overlaps with the first only when a core happens
            // to be free, so the round time would be bimodal between
            // runs. The probes time K=2 on two workers
            // (sim.tp2_speedup).
            knobs.timeParallel = 2;
            knobs.tpWorkers = 1;
            RunStats tp;
            {
                Span span("sim", "runWorkloadTimeParallel");
                tp = runWorkload(profile, SystemVariant::Ppa, knobs);
            }
            // The serial replay commits the whole trace. The K=2 run
            // counts each later segment from the cycle its warmup
            // ended, which can overshoot the warmup by up to
            // commitWidth - 1 instructions, so it may come up short by
            // that much per segment join, and never over.
            const std::uint64_t joinSlack = CoreParams{}.commitWidth - 1;
            if (serial.committedInsts != insts ||
                tp.committedInsts > insts ||
                insts - tp.committedInsts > joinSlack)
                bad.push_back("replay committed " +
                              std::to_string(serial.committedInsts) +
                              " (serial) and " +
                              std::to_string(tp.committedInsts) +
                              " (K=2) instructions");
            r.opSeconds.push_back(secondsSince(t0));

            simInsts += static_cast<double>(serial.committedInsts +
                                            tp.committedInsts);
            simCycles += static_cast<double>(serial.totalCycles +
                                             tp.totalCycles +
                                             tp.tpWarmupCycles);
            digest.add(summary.totalInsts);
            digest.add(summary.shardCount);
            digest.add(summary.combinedCrc);
            digest.add(decoded);
            digest.add(streamHash);
            digest.add(metrics::runStatsToJson(withoutProvenance(serial)));
            digest.add(metrics::runStatsToJson(withoutProvenance(tp)));
            lastTraceRun[a] = withoutProvenance(serial);

            r.attempted += 1;
            if (!bad.empty()) {
                r.failed += 1;
                for (const std::string &b : bad)
                    r.problems.push_back("trace " + apps[a] + ": " + b);
            }
        }
        r.wallSeconds = secondsSince(start);
        // Unlink the shards, untimed, so the next round writes new
        // files. Rewriting them in place truncates files that hold
        // data, and ext4 then flushes each one to disk on close, so
        // every round would time writes to the host's shared disk.
        for (const std::string &app : apps) {
            for (const auto &entry :
                 std::filesystem::directory_iterator(traceDir(app)))
                std::filesystem::remove(entry.path());
        }
        r.digest = digest.hex();
        r.named = {
            {"trace_record_mb_s", bytes / recordS / 1e6, "MB/s"},
            {"trace_replay_mb_s", bytes / drainS / 1e6, "MB/s"},
            {"sim_kips", simInsts / r.wallSeconds / 1e3, "kinst/s"},
            {"sim_mcycles_per_s", simCycles / r.wallSeconds / 1e6,
             "Mcycle/s"},
        };
        return r;
    }

    /** The trace-driven run must equal the generator-driven one. */
    CheckResult
    check(bool) override
    {
        CheckResult c;
        for (std::size_t a = 0; a < apps.size(); ++a) {
            ExperimentKnobs knobs;
            knobs.threads = 1;
            knobs.instsPerCore = insts;
            knobs.seed = seed;
            RunStats gen;
            {
                Span span("sim", "runWorkload");
                gen = runWorkload(profileByName(apps[a]),
                                  SystemVariant::Ppa, knobs);
            }
            ++c.attempted;
            if (metrics::runStatsToJson(gen) !=
                metrics::runStatsToJson(lastTraceRun[a])) {
                ++c.failed;
                c.problems.push_back("trace " + apps[a] +
                                     ": trace-driven RunStats differ from "
                                     "the generator-driven run");
            }
        }
        return c;
    }

  private:
    std::string
    traceDir(const std::string &app) const
    {
        return opts.workDir + "/trace-" + app;
    }

    /** Trace provenance names a scratch path; the digest leaves it out. */
    static RunStats
    withoutProvenance(RunStats rs)
    {
        rs.traceDir.clear();
        rs.traceShards = 0;
        rs.traceInsts = 0;
        rs.traceCrc = 0;
        return rs;
    }

    BenchOptions opts;
    std::uint64_t insts = 0;
    std::uint64_t seed = 0;
    std::vector<std::string> apps;
    std::vector<RunStats> lastTraceRun;
};

} // namespace

double
shardBytesIn(const std::string &dir)
{
    double total = 0.0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().filename() != trace::manifestFileName)
            total += static_cast<double>(entry.file_size());
    }
    return total;
}

std::vector<std::string>
workloadNames()
{
    return {"sweep", "serve-crash", "crash-check", "trace-replay"};
}

std::unique_ptr<Workload>
makeWorkload(const BenchOptions &opts)
{
    if (opts.workload == "sweep")
        return std::make_unique<SweepWorkload>(opts);
    if (opts.workload == "serve-crash")
        return std::make_unique<ServeWorkload>(opts);
    if (opts.workload == "crash-check")
        return std::make_unique<CrashCheckWorkload>(opts);
    if (opts.workload == "trace-replay")
        return std::make_unique<TraceReplayWorkload>(opts);
    return nullptr;
}

} // namespace perfbench
