#include "probes.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "baselines/durability.hh"
#include "baselines/replaycache.hh"
#include "check/litmus.hh"
#include "check/model.hh"
#include "common/rng.hh"
#include "fuzz/shrink.hh"
#include "fuzz/spec.hh"
#include "mem/hierarchy.hh"
#include "mem/mem_image.hh"
#include "ppa/checkpoint_io.hh"
#include "serve/request_source.hh"
#include "serve/serve.hh"
#include "sim/driver.hh"
#include "sim/report.hh"
#include "sim/system.hh"
#include "spans.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"
#include "util.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace perfbench
{

namespace
{

using namespace ppa;

/** Host ns of one steady_clock read, subtracted from per-call times. */
double
clockReadNs()
{
    std::vector<double> reps;
    for (int r = 0; r < 5; ++r) {
        auto start = Clock::now();
        for (int i = 0; i < 20'000; ++i)
            (void)Clock::now();
        reps.push_back(secondsSince(start) * 1e9 / 20'000);
    }
    return median(reps);
}

/** Keep @p value alive so the work producing it is not optimized out. */
template <class T>
void
keep(const T &value)
{
    asm volatile("" : : "g"(value) : "memory");
}

/** Accumulates the host time of individually timed calls. */
class CallTimer
{
  public:
    explicit CallTimer(double overhead_ns) : overheadNs(overhead_ns) {}

    template <class F>
    decltype(auto)
    time(F &&f)
    {
        struct Stop
        {
            CallTimer &t;
            Clock::time_point start = Clock::now();
            ~Stop()
            {
                t.totalNs += secondsSince(start) * 1e9;
                ++t.calls;
            }
        } stop{*this};
        return f();
    }

    double
    nsPerCall() const
    {
        if (!calls)
            return 0.0;
        return std::max(totalNs / static_cast<double>(calls) - overheadNs,
                        0.0);
    }

  private:
    double overheadNs;
    double totalNs = 0.0;
    std::uint64_t calls = 0;
};

std::vector<DynInst>
materialize(DynInstSource &source, std::uint64_t limit)
{
    std::vector<DynInst> out;
    out.reserve(std::min<std::uint64_t>(limit, 1u << 20));
    DynInst inst;
    while (out.size() < limit && source.next(inst))
        out.push_back(inst);
    return out;
}

std::vector<DynInst>
generatorStream(const char *app, std::uint64_t seed, std::uint64_t n)
{
    StreamGenerator gen(profileByName(app), 0, seed, n);
    return materialize(gen, n);
}

/** Drain @p source, returning how many instructions it produced. */
std::uint64_t
drain(DynInstSource &source)
{
    std::uint64_t n = 0;
    DynInst inst;
    while (source.next(inst))
        ++n;
    return n;
}

struct Probe
{
    const BenchOptions &opts;
    double clockNs;
    std::vector<Named> out;

    std::uint64_t size(std::uint64_t full, std::uint64_t tiny) const
    {
        return opts.tiny ? tiny : full;
    }

    void add(const std::string &name, double value, const char *unit)
    {
        out.push_back({name, value, unit});
    }

    // --- core, mem counts, obs, sim.job_s / sim.report_ms ------------
    void
    sweepJobs()
    {
        static const char *const apps[] = {"gcc", "hmmer", "lbm", "mcf"};
        static const SystemVariant variants[] = {
            SystemVariant::MemoryMode, SystemVariant::Ppa,
            SystemVariant::ReplayCache};
        std::vector<JobResult> plain;
        double activeNs = 0, activeCycles = 0, stallNs = 0, stallCycles = 0;
        double plainS = 0, telemetryS = 0;
        std::array<double, obs::kCycleClassCount> classes{};
        std::vector<double> jobS;
        double l2Miss = 0;
        for (const char *app : apps) {
            for (SystemVariant v : variants) {
                SweepJob job;
                job.profile = profileByName(app);
                job.variant = v;
                job.knobs.instsPerCore = size(20'000, 1'000);
                job.knobs.seed = opts.seed;
                auto t0 = Clock::now();
                RunStats rs;
                {
                    Span span("sim", "runWorkload");
                    rs = runWorkload(job.profile, v, job.knobs);
                }
                double s = secondsSince(t0);
                plain.push_back({job, rs, s});
                jobS.push_back(s);
                plainS += s;

                job.knobs.telemetry = true;
                t0 = Clock::now();
                RunStats tel;
                {
                    Span span("obs", "runWorkloadWithTelemetry");
                    tel = runWorkload(job.profile, v, job.knobs);
                }
                telemetryS += secondsSince(t0);

                double work = 0, structural = 0;
                for (unsigned c = 0; c < obs::kCycleClassCount; ++c) {
                    auto cls = static_cast<obs::CycleClass>(c);
                    double n = static_cast<double>(
                        tel.telemetry.classCycles(cls));
                    classes[c] += n;
                    if (cls == obs::CycleClass::Active ||
                        cls == obs::CycleClass::RobFull)
                        work += n;
                    if (cls == obs::CycleClass::WpqFull ||
                        cls == obs::CycleClass::NvmBandwidth ||
                        cls == obs::CycleClass::CsqFull)
                        structural += n;
                }
                double cycles = static_cast<double>(rs.totalCycles);
                if (work >= structural) {
                    activeNs += s * 1e9;
                    activeCycles += cycles;
                } else {
                    stallNs += s * 1e9;
                    stallCycles += cycles;
                }
                l2Miss += rs.l2MissRatio;
            }
        }
        double classTotal = 0;
        for (double c : classes)
            classTotal += c;
        using CC = obs::CycleClass;
        double quiescent = classes[static_cast<unsigned>(CC::CsqFull)] +
                           classes[static_cast<unsigned>(CC::WpqFull)] +
                           classes[static_cast<unsigned>(CC::NvmBandwidth)] +
                           classes[static_cast<unsigned>(CC::Idle)];
        add("core.ns_per_cycle.active_bound",
            activeCycles ? activeNs / activeCycles : 0.0, "ns");
        add("core.ns_per_cycle.stall_bound",
            stallCycles ? stallNs / stallCycles : 0.0, "ns");
        add("core.quiescent_share", quiescent / classTotal, "ratio");
        for (unsigned c = 0; c < obs::kCycleClassCount; ++c) {
            add(std::string("core.stall.") +
                    obs::cycleClassKey(static_cast<CC>(c)),
                classes[c], "cycles");
        }

        std::uint64_t nvmWrites = 0, wpqStalls = 0, coalesced = 0;
        for (const JobResult &j : plain) {
            nvmWrites += j.stats.nvmWrites;
            wpqStalls += j.stats.wpqStallCycles;
            coalesced += j.stats.coalescedStores;
        }
        add("mem.l2_miss_ratio", l2Miss / static_cast<double>(plain.size()),
            "ratio");
        add("mem.nvm_writes", static_cast<double>(nvmWrites), "count");
        add("mem.wpq_stall_cycles", static_cast<double>(wpqStalls),
            "cycles");
        add("mem.coalesced_stores", static_cast<double>(coalesced), "count");
        add("obs.telemetry_overhead_pct",
            (telemetryS - plainS) / plainS * 100.0, "%");
        add("sim.job_s", median(jobS), "s");

        std::vector<double> reportS;
        for (int r = 0; r < 5; ++r) {
            auto t0 = Clock::now();
            Span span("sim", "sweepToJson");
            keep(metrics::sweepToJson("perfbench", plain).size());
            reportS.push_back(secondsSince(t0));
        }
        add("sim.report_ms", median(reportS) * 1e3, "ms");
    }

    // --- mem: hierarchy primitives and the functional image ----------
    void
    memory()
    {
        SystemConfig sc =
            makeSystemConfig(SystemVariant::Ppa, ExperimentKnobs{}, 1);
        ClockDomain clock(sc.clockGhz * 1e9);
        MemHierarchy mem(sc.mem, 1, clock);
        CallTimer load(clockNs), store(clockNs), tick(clockNs);
        Cycle now = 0;
        for (const char *app : {"lbm", "gcc"}) {
            std::vector<DynInst> stream =
                generatorStream(app, opts.seed, size(60'000, 2'000));
            Span span("mem", "MemHierarchy::replay");
            for (const DynInst &inst : stream) {
                ++now;
                if (inst.isLoad()) {
                    load.time([&] { return mem.load(0, inst.memAddr, now); });
                } else if (inst.isStore()) {
                    // A full persist path refuses the store; the core
                    // would retry next cycle, so do the same.
                    while (!store.time([&] {
                               return mem.storeMerge(0, inst.memAddr,
                                                     inst.index, now, true);
                           }).accepted) {
                        ++now;
                        tick.time([&] { mem.tick(now); });
                    }
                }
                tick.time([&] { mem.tick(now); });
            }
        }
        add("mem.load_ns", load.nsPerCall(), "ns");
        add("mem.store_merge_ns", store.nsPerCall(), "ns");
        add("mem.tick_ns", tick.nsPerCall(), "ns");

        const std::uint64_t words = size(400'000, 5'000);
        Rng rng(opts.seed);
        std::vector<Addr> addrs(words);
        for (Addr &a : addrs)
            a = rng.below(Addr{1} << 26) & ~Addr{7};
        MemImage image;
        Word acc = 0;
        auto t0 = Clock::now();
        {
            Span span("mem", "MemImage::write+read");
            for (std::uint64_t i = 0; i < words; ++i) {
                image.write(addrs[i], i);
                acc += image.read(addrs[words - 1 - i]);
            }
        }
        keep(acc);
        add("mem.image_word_ns",
            secondsSince(t0) * 1e9 / static_cast<double>(words), "ns");
    }

    // --- workload: the stream generator ------------------------------
    void
    generator()
    {
        const std::uint64_t n = size(200'000, 4'000);
        StreamGenerator gen(profileByName("gcc"), 0, opts.seed, n);
        auto t0 = Clock::now();
        std::uint64_t got = 0;
        {
            Span span("workload", "StreamGenerator::next");
            got = drain(gen);
        }
        add("workload.gen_ns_per_inst",
            secondsSince(t0) * 1e9 / static_cast<double>(got), "ns");

        Rng rng(opts.seed + 1);
        std::vector<double> seekS;
        DynInst inst;
        for (int i = 0; i < 32; ++i) {
            std::uint64_t target = rng.below(n);
            auto s0 = Clock::now();
            {
                Span span("workload", "StreamGenerator::seekTo");
                gen.seekTo(target);
                gen.next(inst);
            }
            seekS.push_back(secondsSince(s0));
        }
        add("workload.seek_us", median(seekS) * 1e6, "us");
        add("workload.replayed_insts",
            static_cast<double>(gen.replayedInsts()), "count");
    }

    // --- trace: codec write, load, verify, decode, seek --------------
    void
    traceCodec()
    {
        const std::uint64_t n = size(300'000, 4'000);
        std::vector<DynInst> stream = generatorStream("gcc", opts.seed, n);
        const std::string dir = opts.workDir + "/probe-trace";
        trace::TraceMeta meta;
        meta.app = "gcc";
        meta.seed = opts.seed;
        meta.threads = 1;
        meta.instsPerThread = n;
        auto t0 = Clock::now();
        {
            Span span("trace", "TraceWriter::append+finish");
            trace::TraceWriter writer(dir, meta);
            for (const DynInst &inst : stream)
                writer.append(0, inst);
            writer.finish();
        }
        double appendS = secondsSince(t0);
        double bytes = shardBytesIn(dir);
        add("trace.append_ns_per_inst",
            appendS * 1e9 / static_cast<double>(n), "ns");
        add("trace.bytes_per_inst", bytes / static_cast<double>(n), "B");

        std::vector<double> loadS;
        trace::TraceSet set;
        for (int r = 0; r < 5; ++r) {
            std::string error;
            auto l0 = Clock::now();
            Span span("trace", "TraceSet::load");
            set = trace::TraceSet{};
            if (!set.load(dir, error))
                throw std::runtime_error("trace probe: " + error);
            loadS.push_back(secondsSince(l0));
        }
        add("trace.load_ms", median(loadS) * 1e3, "ms");

        auto v0 = Clock::now();
        {
            Span span("trace", "verifyTrace");
            trace::verifyTrace(dir);
        }
        add("trace.verify_mb_s", bytes / secondsSince(v0) / 1e6, "MB/s");

        trace::TraceReplaySource source(set, 0);
        auto d0 = Clock::now();
        std::uint64_t got = 0;
        {
            Span span("trace", "TraceReplaySource::next");
            got = drain(source);
        }
        add("trace.decode_ns_per_inst",
            secondsSince(d0) * 1e9 / static_cast<double>(got), "ns");

        Rng rng(opts.seed + 2);
        std::vector<double> seekS;
        DynInst inst;
        for (int i = 0; i < 16; ++i) {
            std::uint64_t target = rng.below(n);
            auto s0 = Clock::now();
            {
                Span span("trace", "TraceReplaySource::seekTo");
                source.seekTo(target);
                source.next(inst);
            }
            seekS.push_back(secondsSince(s0));
        }
        add("trace.seek_us", median(seekS) * 1e6, "us");
    }

    // --- sim: machine construction and the time-parallel runner ------
    void
    simulator()
    {
        const WorkloadProfile &gcc = profileByName("gcc");
        SystemConfig sc =
            makeSystemConfig(SystemVariant::Ppa, ExperimentKnobs{}, 1);
        std::vector<double> newS;
        for (int r = 0; r < 20; ++r) {
            auto t0 = Clock::now();
            Span span("sim", "System::new");
            System system(sc);
            StreamGenerator gen(gcc, 0, opts.seed, 1);
            system.bindSource(0, &gen);
            system.seedMemory(MemImage{});
            newS.push_back(secondsSince(t0));
        }
        add("sim.system_new_us", median(newS) * 1e6, "us");

        ExperimentKnobs knobs;
        knobs.instsPerCore = size(150'000, 4'000);
        knobs.seed = opts.seed;
        auto t0 = Clock::now();
        {
            Span span("sim", "runWorkload");
            runWorkload(gcc, SystemVariant::Ppa, knobs);
        }
        double serialS = secondsSince(t0);
        knobs.timeParallel = 2;
        knobs.tpWorkers = std::min(2u, opts.workers);
        t0 = Clock::now();
        {
            Span span("sim", "runWorkloadTimeParallel");
            runWorkload(gcc, SystemVariant::Ppa, knobs);
        }
        add("sim.tp2_speedup", serialS / secondsSince(t0), "x");
    }

    // --- ppa: power failure, checkpoint I/O, recovery ----------------
    void
    persistence()
    {
        const WorkloadProfile &tatp = profileByName("tatp");
        unsigned threads = tatp.defaultThreads;
        System system(
            makeSystemConfig(SystemVariant::Ppa, ExperimentKnobs{}, threads));
        std::vector<std::unique_ptr<StreamGenerator>> streams;
        for (unsigned t = 0; t < threads; ++t) {
            streams.push_back(std::make_unique<StreamGenerator>(
                tatp, t, opts.seed, size(40'000, 2'000)));
            system.bindSource(t, streams.back().get());
        }
        std::vector<double> failS, ioS, recoverS;
        for (int k = 1; k <= static_cast<int>(size(16, 2)); ++k) {
            system.runUntilCycle(system.cycle() + 3'000);
            auto t0 = Clock::now();
            std::vector<CheckpointImage> images;
            {
                Span span("ppa", "System::powerFail");
                images = system.powerFail();
            }
            failS.push_back(secondsSince(t0));
            t0 = Clock::now();
            std::vector<CheckpointImage> restored;
            {
                Span span("ppa", "checkpointIo");
                for (const CheckpointImage &image : images)
                    restored.push_back(
                        deserializeCheckpoint(serializeCheckpoint(image)));
            }
            ioS.push_back(secondsSince(t0));
            t0 = Clock::now();
            {
                Span span("ppa", "System::recover");
                system.recover(restored);
            }
            recoverS.push_back(secondsSince(t0));
        }
        add("ppa.power_fail_us", median(failS) * 1e6, "us");
        add("ppa.recover_us", median(recoverS) * 1e6, "us");
        add("ppa.checkpoint_io_us", median(ioS) * 1e6, "us");
    }

    // --- baselines: the committed-stream durability transforms -------
    void
    transforms()
    {
        const std::uint64_t n = size(200'000, 4'000);
        VectorSource gcc(generatorStream("gcc", opts.seed, n));
        ReplayCacheTransform replay(gcc, ReplayCacheParams{});
        auto t0 = Clock::now();
        std::uint64_t got = 0;
        {
            Span span("baselines", "ReplayCacheTransform::next");
            got = drain(replay);
        }
        add("baselines.replaycache_ns_per_inst",
            secondsSince(t0) * 1e9 / static_cast<double>(got), "ns");

        serve::RequestStreamConfig rc;
        rc.requests = n / 16;
        rc.seed = opts.seed;
        rc.dataBase = 0x1000'0000;
        rc.ackAddr = 0x0800'0000;
        rc.scratchAddr = 0x0804'0000;
        serve::RequestSource requests(rc);
        std::vector<DynInst> txns = materialize(requests, ~std::uint64_t{0});
        DurabilityParams dp;
        dp.publishAddr = rc.ackAddr;
        dp.commitAddr = 0x0808'0000;
        dp.logBase = 0x0900'0000;

        VectorSource forLog(txns);
        UndoRedoLogTransform log(forLog, dp);
        t0 = Clock::now();
        {
            Span span("baselines", "UndoRedoLogTransform::next");
            got = drain(log);
        }
        add("baselines.undo_redo_log_ns_per_inst",
            secondsSince(t0) * 1e9 / static_cast<double>(got), "ns");

        VectorSource forFlush(txns);
        DelayFreeTransform flush(forFlush, dp);
        t0 = Clock::now();
        {
            Span span("baselines", "DelayFreeTransform::next");
            got = drain(flush);
        }
        add("baselines.delay_free_ns_per_inst",
            secondsSince(t0) * 1e9 / static_cast<double>(got), "ns");
    }

    // --- serve: request source, measurement run, failure branches ----
    void
    serving()
    {
        serve::RequestStreamConfig rc;
        rc.requests = size(20'000, 300);
        rc.seed = opts.seed;
        rc.dataBase = 0x1000'0000;
        rc.ackAddr = 0x0800'0000;
        rc.scratchAddr = 0x0804'0000;
        serve::RequestSource source(rc);
        auto t0 = Clock::now();
        std::uint64_t got = 0;
        {
            Span span("serve", "RequestSource::next");
            got = drain(source);
        }
        add("serve.source_ns_per_inst",
            secondsSince(t0) * 1e9 / static_cast<double>(got), "ns");

        serve::ServeConfig cfg;
        cfg.requests = size(3'000, 200);
        cfg.seed = opts.seed;
        cfg.workers = 1;
        cfg.failures = 0;
        t0 = Clock::now();
        {
            Span span("serve", "runServeVariant");
            serve::runServeVariant(cfg, serve::ServeVariant::Ppa);
        }
        double measureS = secondsSince(t0);
        cfg.failures = 4;
        t0 = Clock::now();
        {
            Span span("serve", "runServeVariant");
            serve::runServeVariant(cfg, serve::ServeVariant::Ppa);
        }
        double studyS = secondsSince(t0);
        add("serve.measure_s", measureS, "s");
        add("serve.branch_s", (studyS - measureS) / cfg.failures, "s");
        add("serve.prefix_share", (studyS - measureS) / studyS, "ratio");
    }

    // --- check: reference runs, crash observation, model judgment ----
    void
    checking()
    {
        const std::vector<check::LitmusTest> &corpus = check::litmusCorpus();
        std::size_t tests = size(corpus.size(), 3);
        std::vector<double> refS, observeS;
        CallTimer judge(clockNs);
        std::uint64_t points = 0;
        for (std::size_t i = 0; i < tests && i < corpus.size(); ++i) {
            const check::LitmusTest &test = corpus[i];
            auto t0 = Clock::now();
            check::ReferenceSummary ref;
            {
                Span span("check", "runReference");
                ref = check::runReference(test, SystemVariant::Ppa, 200'000);
            }
            refS.push_back(secondsSince(t0));
            std::vector<const Program *> threads;
            for (const Program &p : test.threads)
                threads.push_back(&p);
            check::PersistModel model(threads);
            const Cycle crashes = size(8, 2);
            for (Cycle k = 1; k <= crashes; ++k) {
                Cycle cycle = std::max<Cycle>(1, ref.endCycle * k / crashes);
                t0 = Clock::now();
                check::CrashObservation obs;
                {
                    Span span("check", "crashObserve");
                    obs = check::crashObserve(test, SystemVariant::Ppa, cycle);
                }
                observeS.push_back(secondsSince(t0));
                ++points;
                Span span("check", "outcomeAllowed");
                judge.time([&] {
                    return model.outcomeAllowed(check::PersistFlavor::Strict,
                                                obs.cut, test.observed,
                                                obs.outcome);
                });
            }
        }
        add("check.reference_ms", median(refS) * 1e3, "ms");
        add("check.crash_observe_us", median(observeS) * 1e6, "us");
        add("check.judge_us", judge.nsPerCall() / 1e3, "us");
        add("check.crash_points", static_cast<double>(points), "count");
    }

    // --- fuzz: program generation, violation search, shrinking -------
    void
    fuzzing()
    {
        fuzz::GeneratorConfig gen;
        std::vector<double> genS;
        for (std::uint64_t i = 0; i < 64; ++i) {
            auto t0 = Clock::now();
            Span span("fuzz", "generateSpec+lowerSpec");
            fuzz::lowerSpec(fuzz::generateSpec(gen, opts.seed, i));
            genS.push_back(secondsSince(t0));
        }
        add("fuzz.generate_us", median(genS) * 1e6, "us");

        // Memory-mode persists out of order, so some random programs
        // expose outcomes the strict model forbids; count them among
        // the first programs, and shrink the first one found.
        fuzz::ShrinkLimits limits;
        limits.maxCrashSims = size(20'000, 2'000);
        const std::uint64_t counted = size(12, 2);
        std::uint64_t findings = 0;
        bool shrunk = false;
        double shrinkS = 0.0;
        for (std::uint64_t i = 0; i < 256 && (i < counted || !shrunk); ++i) {
            fuzz::FuzzSpec spec = fuzz::generateSpec(gen, opts.seed, i);
            std::uint64_t judged = 0;
            fuzz::Violation v;
            bool found = false;
            {
                Span span("fuzz", "findEarliestViolation");
                found = fuzz::findEarliestViolation(
                    spec, SystemVariant::MemoryMode,
                    check::PersistFlavor::Strict, limits, judged, v);
            }
            if (!found)
                continue;
            if (i < counted)
                ++findings;
            if (!shrunk) {
                auto t0 = Clock::now();
                Span span("fuzz", "shrinkViolation");
                fuzz::shrinkViolation(v, limits);
                shrinkS = secondsSince(t0);
                shrunk = true;
            }
        }
        add("fuzz.shrink_ms", shrinkS * 1e3, "ms");
        add("fuzz.findings", static_cast<double>(findings), "count");
    }
};

} // namespace

std::vector<Named>
runLayerProbes(const BenchOptions &opts)
{
    Probe probe{opts, clockReadNs(), {}};
    probe.sweepJobs();
    probe.memory();
    probe.generator();
    probe.traceCodec();
    probe.simulator();
    probe.persistence();
    probe.transforms();
    probe.serving();
    probe.checking();
    probe.fuzzing();
    return probe.out;
}

} // namespace perfbench
