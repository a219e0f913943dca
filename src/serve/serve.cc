#include "serve/serve.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "baselines/durability.hh"
#include "check/observer.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/system.hh"

namespace ppa
{
namespace serve
{

namespace
{

// ---------------------------------------------------------------------
// Address-space layout. Every region is thread-private (the streams
// are DRF by construction) and all regions are pairwise disjoint:
// control words live below 0x1000'0000, data regions above it.
// ---------------------------------------------------------------------

constexpr Addr kAckBase = 0x0800'0000;     ///< per-thread ack word
constexpr Addr kScratchBase = 0x0804'0000; ///< kv GET fold sink
constexpr Addr kCommitBase = 0x0808'0000;  ///< undo/redo commit record
constexpr Addr kLogBase = 0x0900'0000;     ///< undo/redo log rings
constexpr Addr kLogStride = 0x1'0000;      ///< 64 KiB per thread
constexpr Addr kDataBase = 0x1000'0000;    ///< per-thread data region
constexpr Addr kDataStride = 0x100'0000;   ///< 16 MiB per thread

Addr ackAddr(unsigned t) { return kAckBase + Addr{t} * 64; }
Addr scratchAddr(unsigned t) { return kScratchBase + Addr{t} * 64; }
Addr commitAddr(unsigned t) { return kCommitBase + Addr{t} * 64; }
Addr logBase(unsigned t) { return kLogBase + Addr{t} * kLogStride; }
Addr dataBase(unsigned t) { return kDataBase + Addr{t} * kDataStride; }

// ---------------------------------------------------------------------
// Modeled recovery costs (docs/SERVING.md). Constants, not measured:
// recovery is not simulated cycle-by-cycle, it is priced from state
// the crash leaves behind.
// ---------------------------------------------------------------------

/** PPA: power-on handshake before CSQ replay starts. */
constexpr Cycle kRecoverPpaBase = 1000;
/** PPA: replay one checkpointed CSQ entry to NVM. */
constexpr Cycle kRecoverPpaPerCsqEntry = 64;
/** Software schemes: process restart plus recovery-code entry. */
constexpr Cycle kRecoverSwBase = 2000;
/** Undo/redo logging: read and apply one log entry. */
constexpr Cycle kRecoverSwPerLogEntry = 128;

/** Data stores the undo/redo transform logs per request (the fence
 *  and ack/commit machinery is txn overhead, not logged data). */
double
storesLoggedPerRequest(const ServeConfig &cfg)
{
    switch (cfg.workload) {
      case ServeWorkload::Tatp:
        return 2.0;
      case ServeWorkload::Tpcc:
        return 7.0;
      case ServeWorkload::Kv:
        // GET folds into one scratch store; SET writes 9 words.
        return (static_cast<double>(cfg.readPct) * 1.0 +
                static_cast<double>(100 - cfg.readPct) * 9.0) /
               100.0;
    }
    return 0.0;
}

/** Splitmix64-style (seed, thread, salt) mixer so every stream and
 *  arrival process draws from an independent, reproducible sequence. */
std::uint64_t
mixSeed(std::uint64_t seed, unsigned t, std::uint64_t salt)
{
    std::uint64_t x = seed + 0x9E3779B97F4A7C15ull * (salt + 1) +
                      (static_cast<std::uint64_t>(t) << 32);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
}

constexpr std::uint64_t kStreamSalt = 1;
constexpr std::uint64_t kArrivalSalt = 2;

std::uint64_t
requestsForThread(const ServeConfig &cfg, unsigned t)
{
    std::uint64_t base = cfg.requests / cfg.threads;
    std::uint64_t rem = cfg.requests % cfg.threads;
    return base + (t < rem ? 1 : 0);
}

/** Hang guard for System::run — same worst-case cycles-per-inst
 *  allowance runWorkload uses. 64 bounds the per-request instruction
 *  count across all workloads including transform inflation. */
Cycle
cycleCap(const ServeConfig &cfg)
{
    std::uint64_t per_thread = requestsForThread(cfg, 0);
    return (per_thread * 64 + 1024) * 400;
}

SystemVariant
systemVariantFor(ServeVariant v)
{
    // The software schemes rely on clwb/fence ordering, which the
    // ReplayCache persist mode implements (fences retire only after
    // outstanding clwb acknowledgements).
    return v == ServeVariant::Ppa ? SystemVariant::Ppa
                                  : SystemVariant::ReplayCache;
}

/**
 * Records the commit cycle of every ack store — the completion event
 * of each request.
 */
class AckTracker : public check::PipelineObserver
{
  public:
    AckTracker(const Core &core, Addr ack)
        : core(core), ackWord(MemImage::wordAlign(ack))
    {
    }

    void
    onStoreCommit(Addr addr, Word value, unsigned, bool, bool) override
    {
        if (addr != ackWord)
            return;
        PPA_ASSERT(value == ackCycles.size() + 1,
                   "ack sequence out of order: store carries ", value,
                   " but ", ackCycles.size(), " requests completed");
        ackCycles.push_back(core.cycle());
    }

    /** Commit cycle of request i (0-based; sequence number i + 1). */
    std::vector<Cycle> ackCycles;

  private:
    const Core &core;
    Addr ackWord;
};

/** One fully wired simulation instance (system, streams, transforms):
 *  built once for the measurement run and once for the forking run
 *  that the failure branches are copied from. */
struct ServeRun
{
    std::unique_ptr<System> system;
    std::vector<std::unique_ptr<RequestSource>> sources;
    std::vector<std::unique_ptr<UndoRedoLogTransform>> undoRedo;
    std::vector<std::unique_ptr<DelayFreeTransform>> delayFree;
};

ServeRun
makeRun(const ServeConfig &cfg, ServeVariant variant)
{
    PPA_ASSERT(cfg.threads > 0, "serve needs at least one thread");
    ExperimentKnobs knobs;
    knobs.threads = cfg.threads;
    SystemConfig sc =
        makeSystemConfig(systemVariantFor(variant), knobs, cfg.threads);

    ServeRun run;
    run.system = std::make_unique<System>(sc);
    for (unsigned t = 0; t < cfg.threads; ++t) {
        RequestStreamConfig rc;
        rc.workload = cfg.workload;
        rc.requests = requestsForThread(cfg, t);
        rc.keys = cfg.keys;
        rc.skew = cfg.skew;
        rc.readPct = cfg.readPct;
        rc.seed = mixSeed(cfg.seed, t, kStreamSalt);
        rc.dataBase = dataBase(t);
        rc.ackAddr = ackAddr(t);
        rc.scratchAddr = scratchAddr(t);
        run.sources.push_back(std::make_unique<RequestSource>(rc));

        DynInstSource *src = run.sources.back().get();
        DurabilityParams dp;
        dp.publishAddr = ackAddr(t);
        dp.commitAddr = commitAddr(t);
        dp.logBase = logBase(t);
        if (variant == ServeVariant::UndoRedoLog) {
            run.undoRedo.push_back(
                std::make_unique<UndoRedoLogTransform>(*src, dp));
            src = run.undoRedo.back().get();
        } else if (variant == ServeVariant::DelayFree) {
            run.delayFree.push_back(
                std::make_unique<DelayFreeTransform>(*src, dp));
            src = run.delayFree.back().get();
        }
        run.system->bindSource(t, src);
    }
    return run;
}

/**
 * Run @p fn(0..jobs-1) on a pool of @p workers host threads. Results
 * must be written to per-index slots; any worker count (including 1)
 * produces identical results because scheduling only decides who
 * computes each independent index.
 */
void
runIndexed(unsigned workers, std::size_t jobs,
           const std::function<void(std::size_t)> &fn)
{
    if (jobs == 0)
        return;
    if (workers == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        workers = hw ? hw : 1;
    }
    workers = static_cast<unsigned>(
        std::min<std::size_t>(workers, jobs));
    if (workers <= 1) {
        for (std::size_t i = 0; i < jobs; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (;;) {
                std::size_t i = next.fetch_add(1);
                if (i >= jobs)
                    return;
                fn(i);
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
}

Cycle
modelRecovery(const ServeConfig &cfg, ServeVariant variant,
              const std::vector<CheckpointImage> &images,
              std::uint64_t lost_requests)
{
    switch (variant) {
      case ServeVariant::Ppa: {
        std::uint64_t entries = 0;
        for (const CheckpointImage &im : images)
            entries += im.csq.size();
        return kRecoverPpaBase + entries * kRecoverPpaPerCsqEntry;
      }
      case ServeVariant::UndoRedoLog: {
        // Recovery scans the log tail past the last durable commit
        // record: the entries of every completed-but-lost request.
        double entries = static_cast<double>(lost_requests) *
                         storesLoggedPerRequest(cfg);
        auto n = static_cast<std::uint64_t>(std::ceil(entries));
        return kRecoverSwBase + n * kRecoverSwPerLogEntry;
      }
      case ServeVariant::DelayFree:
        // No log to scan; published state is usable as-is.
        return kRecoverSwBase;
    }
    return 0;
}

/**
 * The measurement run of one variant: runs it to completion with an
 * AckTracker (and, when configured, telemetry) on every core, fills
 * @p out's run counters and telemetry, and returns each thread's ack
 * commit cycles. The run's System is released on return, before the
 * forking run starts.
 */
std::vector<std::vector<Cycle>>
measureRun(const ServeConfig &cfg, ServeVariant variant,
           ServeVariantStats &out)
{
    ServeRun run = makeRun(cfg, variant);
    std::vector<std::unique_ptr<AckTracker>> trackers;
    for (unsigned t = 0; t < cfg.threads; ++t) {
        trackers.push_back(std::make_unique<AckTracker>(
            run.system->core(t), ackAddr(t)));
        run.system->core(t).attachObserver(trackers.back().get());
    }

    std::unique_ptr<obs::Telemetry> telem;
    if (cfg.telemetry) {
        obs::TelemetryConfig tc;
        tc.sampleCycles = cfg.telemetrySampleCycles;
        tc.seriesCap = cfg.telemetrySeriesCap;
        telem = std::make_unique<obs::Telemetry>(tc, cfg.threads);
        for (unsigned t = 0; t < cfg.threads; ++t)
            telem->attach(run.system->core(t), run.system->memory());
    }

    run.system->run(cycleCap(cfg));

    std::vector<std::vector<Cycle>> acks;
    for (unsigned t = 0; t < cfg.threads; ++t) {
        std::vector<Cycle> &ack = trackers[t]->ackCycles;
        out.completed += ack.size();
        if (!ack.empty())
            out.serviceCycles = std::max(out.serviceCycles, ack.back());
        out.committedInsts += run.system->core(t).committedInsts();
        out.committedStores += run.system->core(t).committedStores();
        acks.push_back(std::move(ack));
    }
    for (const auto &tf : run.undoRedo) {
        out.injectedClwbs += tf->injectedClwbs();
        out.injectedFences += tf->injectedFences();
        out.injectedLogStores += tf->injectedLogStores();
    }
    for (const auto &tf : run.delayFree) {
        out.injectedClwbs += tf->injectedClwbs();
        out.injectedFences += tf->injectedFences();
    }
    out.nvmWrites = run.system->memory().nvm().writeCount();
    out.nvmBytesWritten = run.system->memory().nvm().bytesWritten();

    if (telem)
        out.telemetry = telem->harvest();
    return acks;
}

/**
 * The failure study of one variant. Runs the variant once more and, at
 * each crash point (ascending), forks the running system, power-fails
 * the fork (and recovers it, for ppa) and reads the durable frontier
 * from the fork's NVM image. @p acks holds each thread's ack commit
 * cycles from the measurement run: a request counts as completed at a
 * crash when its ack committed in a cycle before the crash cycle.
 */
std::vector<FailurePoint>
forkedFailures(const ServeConfig &cfg, ServeVariant variant,
               const std::vector<std::vector<Cycle>> &acks,
               const std::vector<Cycle> &points)
{
    ServeRun run = makeRun(cfg, variant);
    std::vector<FailurePoint> out;
    out.reserve(points.size());
    for (Cycle crash : points) {
        run.system->runUntilCycle(crash);
        System branch = run.system->fork();

        std::vector<CheckpointImage> images = branch.powerFail();
        if (variant == ServeVariant::Ppa)
            branch.recover(images);

        FailurePoint fp;
        fp.cycle = crash;
        for (unsigned t = 0; t < cfg.threads; ++t) {
            const std::vector<Cycle> &ack = acks[t];
            auto completed = static_cast<std::uint64_t>(
                std::lower_bound(ack.begin(), ack.end(), crash) -
                ack.begin());
            // The durable frontier is read from the post-crash NVM
            // image: the last sequence number whose ack (PPA,
            // delay-free) or commit record (undo/redo logging)
            // actually persisted. Recovery replays the CSQ, so the
            // frontier is capped at what had completed.
            Addr word = variant == ServeVariant::UndoRedoLog
                            ? MemImage::wordAlign(commitAddr(t))
                            : MemImage::wordAlign(ackAddr(t));
            std::uint64_t durable = std::min(
                branch.memory().nvmImage().read(word), completed);

            fp.completedRequests += completed;
            fp.durableRequests += durable;
            fp.lostRequests += completed - durable;

            // Data-loss window: how far back acknowledged work can
            // disappear — from the completion of the first lost
            // request to the crash. Zero when every completed request
            // survived.
            Cycle window =
                durable < completed ? crash - ack[durable] : 0;
            fp.lossWindow = std::max(fp.lossWindow, window);
        }
        fp.recoveryCycles =
            modelRecovery(cfg, variant, images, fp.lostRequests);
        out.push_back(fp);
    }
    return out;
}

} // namespace

const char *
serveVariantToken(ServeVariant v)
{
    switch (v) {
      case ServeVariant::Ppa:
        return "ppa";
      case ServeVariant::UndoRedoLog:
        return "undo-redo-log";
      case ServeVariant::DelayFree:
        return "delay-free";
    }
    return "?";
}

bool
serveVariantFromToken(const std::string &token, ServeVariant &out)
{
    if (token == "ppa") {
        out = ServeVariant::Ppa;
        return true;
    }
    if (token == "undo-redo-log") {
        out = ServeVariant::UndoRedoLog;
        return true;
    }
    if (token == "delay-free") {
        out = ServeVariant::DelayFree;
        return true;
    }
    return false;
}

std::vector<ServeVariant>
allServeVariants()
{
    return {ServeVariant::Ppa, ServeVariant::UndoRedoLog,
            ServeVariant::DelayFree};
}

ServeVariantStats
runServeVariant(const ServeConfig &cfg, ServeVariant variant)
{
    ServeVariantStats out;
    out.variant = variant;
    out.requests = cfg.requests;

    const std::vector<std::vector<Cycle>> acks =
        measureRun(cfg, variant, out);

    // Open-loop latency: remap the simulated service timeline onto
    // the arrival process with the Lindley recursion (see serve.hh).
    double makespan = 0.0;
    for (unsigned t = 0; t < cfg.threads; ++t) {
        const std::vector<Cycle> &ack = acks[t];
        ArrivalProcess arrivals(cfg.arrival,
                                mixSeed(cfg.seed, t, kArrivalSalt));
        Cycle prev_ack = 0;
        double prev_finish = 0.0;
        for (std::size_t i = 0; i < ack.size(); ++i) {
            double arrival = arrivals.next();
            auto service = static_cast<double>(ack[i] - prev_ack);
            prev_ack = ack[i];
            double start = std::max(arrival, prev_finish);
            double finish = start + service;
            prev_finish = finish;
            out.latency.sample(
                static_cast<std::uint64_t>(std::llround(
                    finish - arrival)));
            if (cfg.telemetry) {
                if (out.telemetry.requestSpans.size() <
                    obs::kRequestSpanCap) {
                    obs::TelemetryRequestSpan span;
                    span.core = t;
                    span.seq = i + 1;
                    span.arrival = static_cast<std::uint64_t>(
                        std::llround(arrival));
                    span.start = static_cast<std::uint64_t>(
                        std::llround(start));
                    span.finish = static_cast<std::uint64_t>(
                        std::llround(finish));
                    out.telemetry.requestSpans.push_back(span);
                } else {
                    ++out.telemetry.droppedRequestSpans;
                }
            }
        }
        makespan = std::max(makespan, prev_finish);
    }
    out.offeredPerKcycle =
        static_cast<double>(cfg.threads) * 1000.0 / cfg.arrival.meanGap;
    out.achievedPerKcycle =
        makespan > 0.0
            ? static_cast<double>(out.completed) * 1000.0 / makespan
            : 0.0;

    // Failure study: crash forks of one run at evenly spaced points of
    // the measured service timeline.
    if (cfg.failures > 0 && out.serviceCycles > 0) {
        std::vector<Cycle> points;
        points.reserve(cfg.failures);
        for (unsigned k = 1; k <= cfg.failures; ++k) {
            Cycle c = out.serviceCycles *
                      static_cast<Cycle>(k) / (cfg.failures + 1);
            points.push_back(std::max<Cycle>(c, 1));
        }
        out.failures = forkedFailures(cfg, variant, acks, points);
    }
    return out;
}

ServeStats
runServeStudy(const ServeConfig &cfg,
              const std::vector<ServeVariant> &variants)
{
    // Variants are independent, so a worker pool may compute them in
    // any order into indexed slots.
    ServeStats stats;
    stats.config = cfg;
    stats.variants.resize(variants.size());
    runIndexed(cfg.workers, variants.size(), [&](std::size_t i) {
        stats.variants[i] = runServeVariant(cfg, variants[i]);
    });
    return stats;
}

// ---------------------------------------------------------------------
// JSON emission.
// ---------------------------------------------------------------------

namespace
{

double
vecMean(const std::vector<std::uint64_t> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0.0;
    for (std::uint64_t x : v)
        sum += static_cast<double>(x);
    return sum / static_cast<double>(v.size());
}

std::uint64_t
vecP50(std::vector<std::uint64_t> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    // Same ceil-rank convention as stats::Histogram::percentile.
    std::size_t rank = (v.size() + 1) / 2;
    return v[rank - 1];
}

std::uint64_t
vecMax(const std::vector<std::uint64_t> &v)
{
    std::uint64_t m = 0;
    for (std::uint64_t x : v)
        m = std::max(m, x);
    return m;
}

void
summaryToJson(std::ostringstream &os, const char *name,
              const std::vector<std::uint64_t> &v)
{
    os << "\"" << name << "\": {\"mean\": "
       << metrics::formatDouble(vecMean(v)) << ", \"p50\": " << vecP50(v)
       << ", \"max\": " << vecMax(v) << "}";
}

void
latencyToJson(std::ostringstream &os, const LogHistogram &h)
{
    os << "{\"count\": " << h.count()
       << ", \"mean\": " << metrics::formatDouble(h.mean())
       << ", \"min\": " << h.min() << ", \"max\": " << h.max()
       << ", \"p50\": " << h.percentile(0.50)
       << ", \"p95\": " << h.percentile(0.95)
       << ", \"p99\": " << h.percentile(0.99)
       << ", \"p999\": " << h.percentile(0.999)
       << ", \"p9999\": " << h.percentile(0.9999)
       << ", \"scheme\": \"log16\", \"buckets\": [";
    auto buckets = h.nonZeroBuckets();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        os << (i ? ", " : "") << "[" << buckets[i].first << ", "
           << buckets[i].second << "]";
    }
    os << "]}";
}

void
variantToJson(std::ostringstream &os, const ServeVariantStats &vs)
{
    os << "{\"variant\": \"" << serveVariantToken(vs.variant)
       << "\", \"stats\": {\"serve\": {";
    os << "\"requests\": " << vs.requests
       << ", \"completed\": " << vs.completed
       << ", \"serviceCycles\": " << vs.serviceCycles
       << ", \"committedInsts\": " << vs.committedInsts
       << ", \"committedStores\": " << vs.committedStores
       << ", \"offeredPerKcycle\": "
       << metrics::formatDouble(vs.offeredPerKcycle)
       << ", \"achievedPerKcycle\": "
       << metrics::formatDouble(vs.achievedPerKcycle);
    os << ", \"latency\": ";
    latencyToJson(os, vs.latency);
    os << ", \"injected\": {\"clwbs\": " << vs.injectedClwbs
       << ", \"fences\": " << vs.injectedFences
       << ", \"logStores\": " << vs.injectedLogStores << "}";
    os << ", \"nvm\": {\"writes\": " << vs.nvmWrites
       << ", \"bytesWritten\": " << vs.nvmBytesWritten << "}";

    std::vector<std::uint64_t> recovery, loss, lost;
    os << ", \"failures\": {\"points\": [";
    for (std::size_t i = 0; i < vs.failures.size(); ++i) {
        const FailurePoint &fp = vs.failures[i];
        os << (i ? ", " : "") << "{\"cycle\": " << fp.cycle
           << ", \"recoveryCycles\": " << fp.recoveryCycles
           << ", \"lossWindow\": " << fp.lossWindow
           << ", \"completedRequests\": " << fp.completedRequests
           << ", \"durableRequests\": " << fp.durableRequests
           << ", \"lostRequests\": " << fp.lostRequests << "}";
        recovery.push_back(fp.recoveryCycles);
        loss.push_back(fp.lossWindow);
        lost.push_back(fp.lostRequests);
    }
    os << "], ";
    summaryToJson(os, "recovery", recovery);
    os << ", ";
    summaryToJson(os, "lossWindow", loss);
    os << ", ";
    summaryToJson(os, "lostRequests", lost);
    os << "}";
    os << "}";
    if (vs.telemetry.enabled)
        os << ", \"telemetry\": "
           << metrics::telemetryToJson(vs.telemetry);
    os << "}}";
}

} // namespace

std::string
serveToJson(const ServeStats &stats)
{
    const ServeConfig &cfg = stats.config;
    std::ostringstream os;
    os << "{\"schemaVersion\": " << metrics::schemaVersion
       << ", \"kind\": \"serve\", \"serve\": {";
    os << "\"config\": {\"workload\": \""
       << serveWorkloadToken(cfg.workload)
       << "\", \"requests\": " << cfg.requests
       << ", \"threads\": " << cfg.threads << ", \"keys\": " << cfg.keys
       << ", \"skew\": " << metrics::formatDouble(cfg.skew)
       << ", \"readPct\": " << cfg.readPct
       << ", \"arrival\": {\"kind\": \""
       << arrivalToken(cfg.arrival.kind) << "\", \"meanGap\": "
       << metrics::formatDouble(cfg.arrival.meanGap)
       << ", \"burstFactor\": "
       << metrics::formatDouble(cfg.arrival.burstFactor)
       << ", \"period\": " << metrics::formatDouble(cfg.arrival.period)
       << ", \"onFraction\": "
       << metrics::formatDouble(cfg.arrival.onFraction) << "}"
       << ", \"failures\": " << cfg.failures
       << ", \"seed\": " << cfg.seed << "}";
    os << ", \"variants\": [";
    for (std::size_t i = 0; i < stats.variants.size(); ++i) {
        if (i)
            os << ", ";
        variantToJson(os, stats.variants[i]);
    }
    os << "]}}";
    return os.str();
}

} // namespace serve
} // namespace ppa
